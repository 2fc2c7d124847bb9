//! The load generator's pieces: a fixed-rate open-loop arrival
//! schedule, the pacer that follows it and accounts for its own lag,
//! and a trailing-window rate meter.
//!
//! Latency is taken from a task's *due* time on the schedule, not from
//! when the generator got round to sending it, so a stall anywhere
//! (including in the generator) shows up in the latency instead of
//! silently thinning the offered load (coordinated omission).

use crate::stats::Histogram;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Task `i` is due at `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: f64,
}

impl Schedule {
    /// A schedule of `rate` tasks/s from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        assert!(rate > 0.0, "schedule rate must be positive");
        Self {
            start,
            period_ns: 1e9 / rate,
        }
    }

    /// When task `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.period_ns) as u64)
    }

    /// Tasks due within `span` of the start.
    pub fn tasks_within(&self, span: Duration) -> u64 {
        (span.as_nanos() as f64 / self.period_ns).ceil() as u64
    }

    /// Latency of task `i` delivered at `at`, measured from its due time.
    pub fn latency(&self, i: u64, at: Instant) -> Duration {
        at.saturating_duration_since(self.due(i))
    }
}

/// Follows a [`Schedule`] for tasks `first..end`, recording how late
/// each send was relative to its due time.
pub struct Pacer {
    schedule: Schedule,
    next: u64,
    end: u64,
    /// Send lateness, one sample per task.
    pub lag: Histogram,
}

impl Pacer {
    /// Paces tasks `first..end` along `schedule`.
    pub fn new(schedule: Schedule, first: u64, end: u64) -> Self {
        Self {
            schedule,
            next: first,
            end,
            lag: Histogram::new(),
        }
    }

    /// Sends (via `send`) every task due by now, reading the clock before
    /// each so a slow send shows up as lag on the tasks behind it.
    /// Returns when the next task is due, `None` once all are sent.
    pub fn poll(&mut self, mut send: impl FnMut(u64)) -> Option<Instant> {
        self.poll_at(Instant::now, &mut send)
    }

    fn poll_at(
        &mut self,
        mut now: impl FnMut() -> Instant,
        send: &mut impl FnMut(u64),
    ) -> Option<Instant> {
        while self.next < self.end {
            let due = self.schedule.due(self.next);
            let t = now();
            if t < due {
                return Some(due);
            }
            self.lag.record(t - due);
            send(self.next);
            self.next += 1;
        }
        None
    }
}

/// Sleeps until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Counts events over a trailing time window.
pub struct RateWindow {
    window: Duration,
    times: VecDeque<Instant>,
}

impl RateWindow {
    /// A meter over the trailing `window`.
    pub fn new(window: Duration) -> Self {
        Self {
            window,
            times: VecDeque::new(),
        }
    }

    /// Records an event at `at` (non-decreasing) and returns the rate
    /// over the window ending there, in events/s.
    pub fn record(&mut self, at: Instant) -> f64 {
        self.times.push_back(at);
        while let Some(&front) = self.times.front() {
            if at.duration_since(front) < self.window {
                break;
            }
            self.times.pop_front();
        }
        self.times.len() as f64 / self.window.as_secs_f64()
    }
}

/// Event rates over consecutive fixed-width slices of time, so a run
/// can report the median slice rather than one total that a burst of
/// lost CPU time (another tenant of the host) drags down.
pub struct SliceRates {
    width: Duration,
    start: Instant,
    count: u64,
    /// Rate of each completed slice, events/s.
    pub rates: Vec<f64>,
}

impl SliceRates {
    /// Slices of `width` starting at `start`.
    pub fn new(start: Instant, width: Duration) -> Self {
        Self {
            width,
            start,
            count: 0,
            rates: Vec::new(),
        }
    }

    /// Records an event at `at` (non-decreasing). A slice closes at the
    /// first event past its width; the events up to and including that
    /// one count towards it.
    pub fn record(&mut self, at: Instant) {
        self.count += 1;
        let span = at.saturating_duration_since(self.start);
        if span >= self.width {
            self.rates.push(self.count as f64 / span.as_secs_f64());
            self.start = at;
            self.count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_tasks_evenly() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1_000.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(250) - t0, Duration::from_millis(250));
        assert_eq!(s.tasks_within(Duration::from_secs(2)), 2_000);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100.0);
        // Task 3 is due at 30 ms; delivered at 45 ms it waited 15 ms,
        // however late the generator actually sent it.
        let at = t0 + Duration::from_millis(45);
        assert_eq!(s.latency(3, at), Duration::from_millis(15));
        // Delivered "before" its due time cannot go negative.
        assert_eq!(s.latency(9, at), Duration::ZERO);
    }

    #[test]
    fn pacer_sends_only_due_tasks_and_records_lag() {
        let t0 = Instant::now();
        let mut p = Pacer::new(Schedule::new(t0, 1_000.0), 0, 10);
        // At t0 + 2.5 ms, tasks 0..=2 are due; task 3 is due at 3 ms.
        let now = t0 + Duration::from_micros(2_500);
        let mut sent = Vec::new();
        let next = p.poll_at(|| now, &mut |i| sent.push(i));
        assert_eq!(sent, vec![0, 1, 2]);
        assert_eq!(next, Some(t0 + Duration::from_millis(3)));
        assert_eq!(p.next, 3);
        // Lags: 2.5, 1.5 and 0.5 ms.
        assert_eq!(p.lag.count(), 3);
        assert!((p.lag.quantile_ns(0.5) - 1.5e6).abs() < 1.5e6 / 100.0);
        assert!((p.lag.quantile_ns(1.0) - 2.5e6).abs() < 2.5e6 / 100.0);
    }

    #[test]
    fn pacer_charges_a_stalled_send_to_the_tasks_behind_it() {
        let t0 = Instant::now();
        let mut p = Pacer::new(Schedule::new(t0, 1_000.0), 0, 3);
        // Every send takes 10 ms: tasks 1 and 2 go out 9 and 18 ms late.
        let clock = std::cell::Cell::new(t0);
        let mut sent = Vec::new();
        let next = p.poll_at(|| clock.get(), &mut |i| {
            sent.push(i);
            clock.set(clock.get() + Duration::from_millis(10));
        });
        assert_eq!(next, None);
        assert_eq!(sent, vec![0, 1, 2]);
        assert!((p.lag.quantile_ns(1.0) - 18e6).abs() < 18e6 / 100.0);
        assert!((p.lag.quantile_ns(0.5) - 9e6).abs() < 9e6 / 100.0);
    }

    #[test]
    fn pacer_starts_at_its_first_task() {
        let t0 = Instant::now();
        let mut p = Pacer::new(Schedule::new(t0, 1_000.0), 1, 3);
        let mut sent = Vec::new();
        let now = t0 + Duration::from_millis(5);
        assert_eq!(p.poll_at(|| now, &mut |i| sent.push(i)), None);
        assert_eq!(sent, vec![1, 2]);
    }

    #[test]
    fn slice_rates_close_each_slice_at_its_width() {
        let t0 = Instant::now();
        let mut s = SliceRates::new(t0, Duration::from_millis(100));
        // 10 events per 100 ms, then 5.
        for i in 1..=10 {
            s.record(t0 + Duration::from_millis(i * 10));
        }
        for i in 1..=5 {
            s.record(t0 + Duration::from_millis(100 + i * 20));
        }
        assert_eq!(s.rates.len(), 2);
        assert!((s.rates[0] - 100.0).abs() < 1e-9);
        assert!((s.rates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rate_window_forgets_old_events() {
        let t0 = Instant::now();
        let mut w = RateWindow::new(Duration::from_millis(100));
        for i in 0..10 {
            w.record(t0 + Duration::from_millis(i * 10));
        }
        // Eleven events in the 100 ms ending at 99 ms.
        assert!((w.record(t0 + Duration::from_millis(99)) - 110.0).abs() < 1e-9);
        // At 250 ms only the new event is inside the window.
        assert!((w.record(t0 + Duration::from_millis(250)) - 10.0).abs() < 1e-9);
    }
}
