//! Sensor snapshots — the bean vector an ABC hands to the rule engine.
//!
//! The paper's autonomic control loop begins with a *monitor* phase in which
//! the Autonomic Behaviour Controller (ABC) samples the computation and
//! materialises a set of named *beans* (`ArrivalRateBean`,
//! `DepartureRateBean`, `NumWorkerBean`, `QueueVarianceBean`, …) over which
//! the JBoss-style rules are written. [`SensorSnapshot`] is our typed
//! equivalent: a plain value object produced once per control period,
//! convertible into the `(name, value)` pairs a rule engine's working memory
//! consumes.

use crate::clock::Time;

/// Canonical bean names shared between ABCs, rule files and tests.
///
/// Keeping these in one place means a rule file written against the
/// simulator drives the threaded runtime unchanged.
pub mod beans {
    /// Input-pressure rate (tasks/s arriving at the skeleton).
    pub const ARRIVAL_RATE: &str = "arrivalRate";
    /// Delivered throughput (tasks/s leaving the skeleton).
    pub const DEPARTURE_RATE: &str = "departureRate";
    /// Current parallelism degree (number of workers).
    pub const NUM_WORKERS: &str = "numWorkers";
    /// Population variance of per-worker queue lengths.
    pub const QUEUE_VARIANCE: &str = "queueVariance";
    /// Total tasks queued inside the skeleton (all workers + emitter).
    pub const QUEUED_TASKS: &str = "queuedTasks";
    /// Mean observed per-task service time (seconds).
    pub const SERVICE_TIME: &str = "serviceTime";
    /// 1.0 once the end-of-stream marker has been observed on the input.
    pub const END_OF_STREAM: &str = "endOfStream";
    /// Seconds since the last input task arrived.
    pub const IDLE_FOR: &str = "idleFor";
    /// 1.0 while a reconfiguration is in progress (sensor blackout).
    pub const RECONFIGURING: &str = "reconfiguring";
    /// Cumulative workers lost to faults (panics, injected kills).
    pub const WORKERS_LOST: &str = "workersLost";
    /// The fault-tolerance parallelism floor the manager must restore
    /// after failures (0 = no floor configured).
    pub const FT_MIN_WORKERS: &str = "ftMinWorkers";
    /// Workers hosted on remote nodes (0 for purely local substrates).
    pub const REMOTE_WORKERS: &str = "remoteWorkers";
    /// Mean heartbeat round-trip time to remote workers, milliseconds
    /// (0.0 when no remote worker has answered a heartbeat yet).
    pub const NET_RTT_MS: &str = "netRttMs";
    /// Endpoints currently quarantined by an open circuit breaker.
    pub const CIRCUIT_OPEN_COUNT: &str = "circuitOpenCount";
    /// Largest current reconnect backoff delay across endpoints,
    /// milliseconds (0.0 when every endpoint is healthy).
    pub const RECONNECT_BACKOFF_MS: &str = "reconnectBackoffMs";
    /// Cumulative tasks re-dispatched while their worker lived: resends
    /// of tasks whose `Task` or answer frame was lost on the wire, plus
    /// speculative re-executions after a missed soft deadline.
    pub const TASKS_RETRIED: &str = "tasksRetried";
    /// Cumulative speculative retries that beat the original attempt to
    /// the result.
    pub const SPECULATIVE_WINS: &str = "speculativeWins";
    /// Worst lateness of the network reactor's timer duties in the last
    /// loop iteration, microseconds (0.0 for non-reactor substrates). A
    /// persistently high value means the single event-loop thread is
    /// saturated.
    pub const REACTOR_LOOP_LAG_US: &str = "reactorLoopLagUs";
    /// Frames sitting in per-connection send queues, waiting for socket
    /// writability (0 for non-networked substrates). Sustained growth
    /// means the wire — not the workers — is the bottleneck.
    pub const NET_SEND_QUEUE_DEPTH: &str = "netSendQueueDepth";
    /// Cumulative tasks dropped by admission control (bounded tenant
    /// queues: shed-oldest evictions plus outright rejections).
    pub const TASKS_SHED: &str = "tasksShed";
    /// Tasks waiting in this tenant's admission queue (0 for
    /// single-tenant substrates).
    pub const TENANT_QUEUE_DEPTH: &str = "tenantQueueDepth";
    /// This tenant's normalised share of the pool (0..1; 1.0 for
    /// single-tenant substrates).
    pub const TENANT_SHARE: &str = "tenantShare";
    /// Tasks/s delivered to this tenant by the shared pool.
    pub const TENANT_THROUGHPUT: &str = "tenantThroughput";
    /// Tokens left in the retry budget gating re-dispatch (speculation,
    /// hedges, reconnect storms). 0.0 when no budget is configured.
    pub const RETRY_BUDGET_TOKENS: &str = "retryBudgetTokens";
    /// Cumulative hedged task dispatches (quantile-triggered duplicates).
    pub const HEDGES_LAUNCHED: &str = "hedgesLaunched";
    /// Cumulative hedged dispatches that beat the original to the result.
    pub const HEDGE_WINS: &str = "hedgeWins";
    /// The AIMD controller's current par-degree ceiling (0.0 when the
    /// manager runs a non-AIMD control law).
    pub const AIMD_CEILING: &str = "aimdCeiling";
}

/// A point-in-time reading of every sensor a skeleton ABC exposes.
///
/// Extra substrate-specific beans (e.g. the simulator's per-node load) can
/// be attached through [`SensorSnapshot::with_extra`].
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSnapshot {
    /// Monitoring timestamp (seconds since run origin).
    pub at: Time,
    /// Tasks/s arriving at the skeleton input.
    pub arrival_rate: f64,
    /// Tasks/s delivered on the skeleton output.
    pub departure_rate: f64,
    /// Current parallelism degree.
    pub num_workers: u32,
    /// Variance of per-worker queue lengths.
    pub queue_variance: f64,
    /// Total queued tasks.
    pub queued_tasks: u64,
    /// Mean per-task service time in seconds (0.0 if unknown).
    pub service_time: f64,
    /// Whether the end-of-stream marker has been observed.
    pub end_of_stream: bool,
    /// Seconds since the last input arrival (`f64::INFINITY` if none yet).
    pub idle_for: f64,
    /// Whether a reconfiguration is in progress (sensors are stale).
    pub reconfiguring: bool,
    /// Cumulative workers lost to faults.
    pub workers_lost: u64,
    /// Configured fault-tolerance parallelism floor (0 = none).
    pub ft_min_workers: u32,
    /// Workers hosted on remote nodes (0 for purely local substrates).
    pub remote_workers: u32,
    /// Mean heartbeat round-trip time to remote workers, milliseconds.
    pub net_rtt_ms: f64,
    /// Endpoints currently quarantined by an open circuit breaker.
    pub circuit_open_count: u32,
    /// Largest current reconnect backoff delay across endpoints (ms).
    pub reconnect_backoff_ms: f64,
    /// Cumulative lost-frame resends plus speculative re-dispatches of
    /// straggling tasks.
    pub tasks_retried: u64,
    /// Cumulative speculative retries that won the race to the result.
    pub speculative_wins: u64,
    /// Worst reactor timer lateness in the last loop iteration (µs).
    pub reactor_loop_lag_us: f64,
    /// Frames pending in per-connection send queues.
    pub net_send_queue_depth: u64,
    /// Cumulative tasks dropped by admission control.
    pub tasks_shed: u64,
    /// Tasks waiting in this tenant's admission queue.
    pub tenant_queue_depth: u64,
    /// Normalised pool share of this tenant (0..1).
    pub tenant_share: f64,
    /// Tasks/s delivered to this tenant by the shared pool.
    pub tenant_throughput: f64,
    /// Tokens left in the retry budget (0.0 when no budget configured).
    pub retry_budget_tokens: f64,
    /// Cumulative hedged task dispatches.
    pub hedges_launched: u64,
    /// Cumulative hedged dispatches that won the race to the result.
    pub hedge_wins: u64,
    /// AIMD par-degree ceiling (0.0 under non-AIMD control laws).
    pub aimd_ceiling: f64,
    /// Additional substrate-specific beans.
    pub extra: Vec<(String, f64)>,
}

impl SensorSnapshot {
    /// A snapshot with all sensors at rest, timestamped `at`.
    pub fn empty(at: Time) -> Self {
        Self {
            at,
            arrival_rate: 0.0,
            departure_rate: 0.0,
            num_workers: 0,
            queue_variance: 0.0,
            queued_tasks: 0,
            service_time: 0.0,
            end_of_stream: false,
            idle_for: f64::INFINITY,
            reconfiguring: false,
            workers_lost: 0,
            ft_min_workers: 0,
            remote_workers: 0,
            net_rtt_ms: 0.0,
            circuit_open_count: 0,
            reconnect_backoff_ms: 0.0,
            tasks_retried: 0,
            speculative_wins: 0,
            reactor_loop_lag_us: 0.0,
            net_send_queue_depth: 0,
            tasks_shed: 0,
            tenant_queue_depth: 0,
            tenant_share: 1.0,
            tenant_throughput: 0.0,
            retry_budget_tokens: 0.0,
            hedges_launched: 0,
            hedge_wins: 0,
            aimd_ceiling: 0.0,
            extra: Vec::new(),
        }
    }

    /// Attaches an extra named bean (builder style).
    pub fn with_extra(mut self, name: impl Into<String>, value: f64) -> Self {
        self.extra.push((name.into(), value));
        self
    }

    /// Flattens the snapshot to `(bean name, value)` pairs for a rule
    /// engine's working memory. Booleans encode as 0.0/1.0.
    pub fn to_beans(&self) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(27 + self.extra.len());
        out.push((beans::ARRIVAL_RATE.to_owned(), self.arrival_rate));
        out.push((beans::DEPARTURE_RATE.to_owned(), self.departure_rate));
        out.push((beans::NUM_WORKERS.to_owned(), f64::from(self.num_workers)));
        out.push((beans::QUEUE_VARIANCE.to_owned(), self.queue_variance));
        out.push((beans::QUEUED_TASKS.to_owned(), self.queued_tasks as f64));
        out.push((beans::SERVICE_TIME.to_owned(), self.service_time));
        out.push((
            beans::END_OF_STREAM.to_owned(),
            if self.end_of_stream { 1.0 } else { 0.0 },
        ));
        out.push((beans::IDLE_FOR.to_owned(), self.idle_for));
        out.push((
            beans::RECONFIGURING.to_owned(),
            if self.reconfiguring { 1.0 } else { 0.0 },
        ));
        out.push((beans::WORKERS_LOST.to_owned(), self.workers_lost as f64));
        out.push((
            beans::FT_MIN_WORKERS.to_owned(),
            f64::from(self.ft_min_workers),
        ));
        out.push((
            beans::REMOTE_WORKERS.to_owned(),
            f64::from(self.remote_workers),
        ));
        out.push((beans::NET_RTT_MS.to_owned(), self.net_rtt_ms));
        out.push((
            beans::CIRCUIT_OPEN_COUNT.to_owned(),
            f64::from(self.circuit_open_count),
        ));
        out.push((
            beans::RECONNECT_BACKOFF_MS.to_owned(),
            self.reconnect_backoff_ms,
        ));
        out.push((beans::TASKS_RETRIED.to_owned(), self.tasks_retried as f64));
        out.push((
            beans::SPECULATIVE_WINS.to_owned(),
            self.speculative_wins as f64,
        ));
        out.push((
            beans::REACTOR_LOOP_LAG_US.to_owned(),
            self.reactor_loop_lag_us,
        ));
        out.push((
            beans::NET_SEND_QUEUE_DEPTH.to_owned(),
            self.net_send_queue_depth as f64,
        ));
        out.push((beans::TASKS_SHED.to_owned(), self.tasks_shed as f64));
        out.push((
            beans::TENANT_QUEUE_DEPTH.to_owned(),
            self.tenant_queue_depth as f64,
        ));
        out.push((beans::TENANT_SHARE.to_owned(), self.tenant_share));
        out.push((beans::TENANT_THROUGHPUT.to_owned(), self.tenant_throughput));
        out.push((
            beans::RETRY_BUDGET_TOKENS.to_owned(),
            self.retry_budget_tokens,
        ));
        out.push((
            beans::HEDGES_LAUNCHED.to_owned(),
            self.hedges_launched as f64,
        ));
        out.push((beans::HEDGE_WINS.to_owned(), self.hedge_wins as f64));
        out.push((beans::AIMD_CEILING.to_owned(), self.aimd_ceiling));
        out.extend(self.extra.iter().cloned());
        out
    }

    /// Looks a bean up by name, including extras.
    pub fn bean(&self, name: &str) -> Option<f64> {
        self.to_beans()
            .into_iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_defaults() {
        let s = SensorSnapshot::empty(1.0);
        assert_eq!(s.at, 1.0);
        assert_eq!(s.arrival_rate, 0.0);
        assert_eq!(s.num_workers, 0);
        assert!(!s.end_of_stream);
        assert!(s.idle_for.is_infinite());
    }

    #[test]
    fn beans_roundtrip_core_fields() {
        let mut s = SensorSnapshot::empty(0.0);
        s.arrival_rate = 0.55;
        s.departure_rate = 0.4;
        s.num_workers = 3;
        s.queue_variance = 2.25;
        s.end_of_stream = true;
        assert_eq!(s.bean(beans::ARRIVAL_RATE), Some(0.55));
        assert_eq!(s.bean(beans::DEPARTURE_RATE), Some(0.4));
        assert_eq!(s.bean(beans::NUM_WORKERS), Some(3.0));
        assert_eq!(s.bean(beans::QUEUE_VARIANCE), Some(2.25));
        assert_eq!(s.bean(beans::END_OF_STREAM), Some(1.0));
        assert_eq!(s.bean("noSuchBean"), None);
    }

    #[test]
    fn extra_beans_are_exposed() {
        let s = SensorSnapshot::empty(0.0).with_extra("nodeLoad", 0.75);
        assert_eq!(s.bean("nodeLoad"), Some(0.75));
        assert!(s
            .to_beans()
            .iter()
            .any(|(n, v)| n == "nodeLoad" && *v == 0.75));
    }

    #[test]
    fn bool_beans_encode_as_zero_one() {
        let mut s = SensorSnapshot::empty(0.0);
        assert_eq!(s.bean(beans::RECONFIGURING), Some(0.0));
        s.reconfiguring = true;
        assert_eq!(s.bean(beans::RECONFIGURING), Some(1.0));
    }

    #[test]
    fn to_beans_emits_every_core_bean_once() {
        let s = SensorSnapshot::empty(0.0);
        let all = s.to_beans();
        for name in [
            beans::ARRIVAL_RATE,
            beans::DEPARTURE_RATE,
            beans::NUM_WORKERS,
            beans::QUEUE_VARIANCE,
            beans::QUEUED_TASKS,
            beans::SERVICE_TIME,
            beans::END_OF_STREAM,
            beans::IDLE_FOR,
            beans::RECONFIGURING,
            beans::WORKERS_LOST,
            beans::FT_MIN_WORKERS,
            beans::REMOTE_WORKERS,
            beans::NET_RTT_MS,
            beans::CIRCUIT_OPEN_COUNT,
            beans::RECONNECT_BACKOFF_MS,
            beans::TASKS_RETRIED,
            beans::SPECULATIVE_WINS,
            beans::REACTOR_LOOP_LAG_US,
            beans::NET_SEND_QUEUE_DEPTH,
            beans::TASKS_SHED,
            beans::TENANT_QUEUE_DEPTH,
            beans::TENANT_SHARE,
            beans::TENANT_THROUGHPUT,
            beans::RETRY_BUDGET_TOKENS,
            beans::HEDGES_LAUNCHED,
            beans::HEDGE_WINS,
            beans::AIMD_CEILING,
        ] {
            assert_eq!(
                all.iter().filter(|(n, _)| n == name).count(),
                1,
                "bean {name} missing or duplicated"
            );
        }
    }
}
