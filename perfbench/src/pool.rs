//! The reactor-pool workloads: `RemoteWorkerPool` slots on in-process
//! loopback `bskel-workerd` daemons.
//!
//! * `pool_echo` — 2 slots on one daemon, `echo`, 8-byte payloads,
//!   ordered gather. Open-loop rounds at a fixed rate give the delivered
//!   rate and latency; closed-loop rounds (fixed in-flight window) give
//!   the saturation rate.
//! * `pool_bulk` — the same with 64 KiB payloads (an image tile).
//! * `pool_chaos` — one endpoint behind a `ChaosProxy` dropping 2% of
//!   frames, one clean; 20 µs spin per task, fixed task deadline, ordered
//!   gather, closed loop. Runs in rounds of a fixed task count on fresh
//!   pools, each replaying the same seeded fault schedule, so every round
//!   (and every run) meets the same faults and `net.faults_injected`
//!   shows when the schedule itself has changed.

use crate::loadgen::{sleep_until, Pacer, Schedule, SliceRates};
use crate::outcome::{fd_count, rss_peak_mb, thread_count, Outcome};
use crate::stats::{median, Histogram};
use crate::trace::Tracer;
use crate::Ctx;
use bskel_net::{
    spawn_chaos_local, spawn_local, ChaosPlan, ChaosPolicy, ChaosProxy, Endpoint,
    RemotePoolBuilder, RemoteWorkerPool,
};
use bskel_skel::farm::ShutdownReport;
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;
use crossbeam::channel::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Pool = RemoteWorkerPool<Vec<u8>, Vec<u8>>;

/// Which topology and traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 8-byte echo.
    Echo,
    /// 64 KiB echo.
    Bulk,
    /// Echo with a 20 µs spin behind a 2%-drop proxy.
    Chaos,
}

impl Kind {
    fn payload_bytes(self) -> usize {
        match self {
            Kind::Bulk => 64 * 1024,
            Kind::Echo | Kind::Chaos => 8,
        }
    }

    /// Closed-loop in-flight window.
    fn window(self) -> u64 {
        match self {
            Kind::Echo | Kind::Chaos => 64,
            // Four 64 KiB tasks already saturate the pool; a deeper
            // window only adds buffers to the peak resident set.
            Kind::Bulk => 4,
        }
    }

    /// Open-loop rate, tasks/s: about a tenth of saturation on a 2-vCPU
    /// host, so that a host that lends the VM less CPU for a while does
    /// not push the pool into queueing; `None` for closed-loop-only
    /// workloads.
    fn open_rate(self) -> Option<f64> {
        match self {
            Kind::Echo => Some(20_000.0),
            Kind::Bulk => Some(1_000.0),
            Kind::Chaos => None,
        }
    }
}

/// Seed of the chaos proxy's fault schedule: part of the workload's
/// definition (the CHAOS1 topology), not of its inputs, so runs with
/// different `--seed`s meet the same faults.
const CHAOS_SEED: u64 = 0xC4A05;
const CHAOS_SPIN_US: u64 = 20;
const CHAOS_DEADLINE: Duration = Duration::from_millis(150);
/// Tasks per chaos round.
const CHAOS_ROUND_TASKS: u64 = 1_000;
/// Fresh pools per phase of a fault-free run; each sets up once, so
/// `setup_s` is a median over the rounds.
const ROUNDS: usize = 5;
/// Width of the closed-loop slices whose median rate is
/// `net.saturation_tps`.
const SLICE: Duration = Duration::from_millis(50);
/// Longest wait for one result before the run is declared broken.
const STALL: Duration = Duration::from_secs(10);
/// Footprint sampling stride (tasks), traced runs only.
const SAMPLE_EVERY: u64 = 1_024;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded task payloads: the first 8 bytes carry the task index masked
/// with a seed-derived key; the rest is one of 16 seeded filler blocks.
pub struct Payloads {
    key: u64,
    blocks: Vec<Vec<u8>>,
}

impl Payloads {
    /// Payloads of `bytes` (≥ 8) bytes derived from `seed`.
    pub fn new(seed: u64, bytes: usize) -> Self {
        assert!(bytes >= 8, "payloads carry an 8-byte index");
        let blocks = (0..16u64)
            .map(|b| {
                let mut state = splitmix(seed ^ (b << 56));
                let mut block = Vec::with_capacity(bytes);
                while block.len() < bytes {
                    state = splitmix(state);
                    block.extend_from_slice(&state.to_le_bytes());
                }
                block.truncate(bytes);
                block
            })
            .collect();
        Self {
            key: splitmix(seed),
            blocks,
        }
    }

    fn head(&self, i: u64) -> [u8; 8] {
        (i ^ self.key).to_le_bytes()
    }

    /// Payload of task `i`.
    pub fn make(&self, i: u64) -> Vec<u8> {
        let mut v = self.blocks[(i % 16) as usize].clone();
        v[..8].copy_from_slice(&self.head(i));
        v
    }

    /// Whether `got` is byte-for-byte task `i`'s payload.
    pub fn matches(&self, i: u64, got: &[u8]) -> bool {
        let block = &self.blocks[(i % 16) as usize];
        got.len() == block.len() && got[..8] == self.head(i) && got[8..] == block[8..]
    }
}

/// Delivery bookkeeping of one ordered stream.
#[derive(Default)]
struct Ledger {
    /// Next sequence number the ordered gather must deliver.
    expect: u64,
    delivered: u64,
    out_of_order: u64,
    corrupt: u64,
    last_at: Option<Instant>,
}

impl Ledger {
    fn accept(&mut self, payloads: &Payloads, seq: u64, payload: &[u8], at: Instant) {
        if seq != self.expect {
            self.out_of_order += 1;
        }
        if !payloads.matches(seq, payload) {
            self.corrupt += 1;
        }
        self.expect = seq + 1;
        self.delivered += 1;
        self.last_at = Some(at);
    }

    fn wrong(&self) -> u64 {
        self.out_of_order + self.corrupt
    }
}

/// One live pool and the stream driving it.
struct Live {
    pool: Pool,
    proxy: Option<ChaosProxy>,
    tx: Sender<StreamMsg<Vec<u8>>>,
    rx: Receiver<StreamMsg<Vec<u8>>>,
    payloads: Arc<Payloads>,
    tracer: Arc<Tracer>,
    next_seq: u64,
    ledger: Ledger,
    /// Send time of each in-flight task, indexed by `seq % window`.
    sent_at: Vec<Instant>,
    threads_peak: u64,
    fds_peak: u64,
}

impl Live {
    /// Spawns the daemon(s), builds the pool and submits task 0; returns
    /// the live pool, the set-up time (start to first task admitted) and
    /// the `build()` time.
    fn setup(kind: Kind, ctx: &Ctx, payloads: Arc<Payloads>) -> Result<(Self, f64, f64), String> {
        let t0 = Instant::now();
        let codec = (|v: Vec<u8>| v, |b: &[u8]| b.to_vec());
        let (builder, proxy) = match kind {
            Kind::Echo | Kind::Bulk => {
                let addr = spawn_local("127.0.0.1:0").map_err(|e| format!("daemon: {e}"))?;
                let b = RemotePoolBuilder::new("echo", codec.0, codec.1)
                    .name("pb")
                    .initial_workers(2)
                    .max_workers(2)
                    .gather(GatherPolicy::Ordered)
                    .endpoint(Endpoint::plain(addr.to_string()));
                (b, None)
            }
            Kind::Chaos => {
                let plan = ChaosPlan {
                    seed: CHAOS_SEED,
                    policy: ChaosPolicy {
                        drop_p: 0.02,
                        ..ChaosPolicy::default()
                    },
                };
                let proxy = spawn_chaos_local(plan).map_err(|e| format!("proxy: {e}"))?;
                let clean = spawn_local("127.0.0.1:0").map_err(|e| format!("daemon: {e}"))?;
                let b = RemotePoolBuilder::new(format!("spin:{CHAOS_SPIN_US}"), codec.0, codec.1)
                    .name("pc")
                    .initial_workers(2)
                    .max_workers(4)
                    .gather(GatherPolicy::Ordered)
                    .heartbeat_period(Duration::from_millis(20))
                    .failure_timeout(Duration::from_millis(400))
                    .reconnect_backoff(Duration::from_millis(20), Duration::from_millis(200))
                    .breaker_cooldown(Duration::from_millis(150))
                    .task_deadline(CHAOS_DEADLINE)
                    .resilience_seed(CHAOS_SEED)
                    .endpoint(Endpoint::plain(proxy.addr().to_string()))
                    .endpoint(Endpoint::plain(clean.to_string()));
                (b, Some(proxy))
            }
        };
        let b0 = Instant::now();
        let pool = {
            let _span = ctx.tracer.span("net.build", None);
            builder.build()?
        };
        let build_ms = b0.elapsed().as_secs_f64() * 1e3;
        let mut live = Live {
            tx: pool.input(),
            rx: pool.output(),
            pool,
            proxy,
            payloads,
            tracer: Arc::clone(&ctx.tracer),
            next_seq: 0,
            ledger: Ledger::default(),
            sent_at: vec![t0; kind.window() as usize],
            threads_peak: 0,
            fds_peak: 0,
        };
        live.send();
        Ok((live, t0.elapsed().as_secs_f64(), build_ms))
    }

    /// Submits the next task; returns its send time.
    fn send(&mut self) -> Instant {
        let seq = self.next_seq;
        let payload = self.payloads.make(seq);
        let at = Instant::now();
        {
            let _span = self.tracer.span("net.send", Some(seq));
            self.tx
                .send(StreamMsg::item(seq, payload))
                .expect("pool input open");
        }
        let slot = (seq % self.sent_at.len() as u64) as usize;
        self.sent_at[slot] = at;
        self.next_seq += 1;
        if self.tracer.enabled() && seq.is_multiple_of(SAMPLE_EVERY) {
            self.threads_peak = self.threads_peak.max(thread_count());
            self.fds_peak = self.fds_peak.max(fd_count());
        }
        at
    }

    /// Keeps `window` tasks in flight while `more(next_seq)` holds, then
    /// drains. Records send-to-delivery latency and, as the generator's
    /// lag, how long each send trailed the delivery that freed its slot.
    fn closed_loop(
        &mut self,
        mut more: impl FnMut(u64) -> bool,
        latency: &mut Histogram,
        lag: &mut Histogram,
        slices: &mut SliceRates,
    ) -> Result<(), String> {
        let window = self.sent_at.len() as u64;
        let mut freed_at = Instant::now();
        loop {
            while self.next_seq - self.ledger.expect < window && more(self.next_seq) {
                let at = self.send();
                lag.record(at.saturating_duration_since(freed_at));
            }
            if self.next_seq == self.ledger.expect {
                return Ok(());
            }
            // Block for one result, then take whatever else is ready
            // before refilling the window.
            let mut msg = self.rx.recv_timeout(STALL).map_err(|_| {
                format!(
                    "no result for {STALL:?} (task {} outstanding)",
                    self.ledger.expect
                )
            })?;
            loop {
                let StreamMsg::Item { seq, payload } = msg else {
                    return Err("output ended before the input".into());
                };
                let now = Instant::now();
                let slot = (seq % window) as usize;
                latency.record(now.saturating_duration_since(self.sent_at[slot]));
                self.ledger.accept(&self.payloads, seq, &payload, now);
                slices.record(now);
                freed_at = now;
                match self.rx.try_recv() {
                    Ok(m) => msg = m,
                    Err(_) => break,
                }
            }
        }
    }

    /// Offers `rate` tasks/s for `span`; a drain thread records latency
    /// from each task's due time. Returns the pacer's lag, the latencies
    /// and the delivered rate (tasks over the time from the first due
    /// time to the last delivery).
    fn open_loop(
        &mut self,
        rate: f64,
        span: Duration,
    ) -> Result<(Histogram, Histogram, f64), String> {
        let start = Instant::now();
        let schedule = Schedule::new(start, rate);
        let total = schedule.tasks_within(span);
        let base = self.next_seq;
        let drain = {
            let rx = self.rx.clone();
            let payloads = Arc::clone(&self.payloads);
            let mut ledger = std::mem::take(&mut self.ledger);
            std::thread::spawn(move || {
                let mut latency = Histogram::new();
                while ledger.expect < base + total {
                    match rx.recv_timeout(STALL) {
                        Ok(StreamMsg::Item { seq, payload }) => {
                            let now = Instant::now();
                            // Tasks before `base` (the set-up's task 0)
                            // were not sent on this schedule.
                            if seq >= base {
                                latency.record(schedule.latency(seq - base, now));
                            }
                            ledger.accept(&payloads, seq, &payload, now);
                        }
                        Ok(StreamMsg::End) | Err(_) => break,
                    }
                }
                (ledger, latency)
            })
        };
        let mut pacer = Pacer::new(schedule, 0, total);
        while let Some(next) = pacer.poll(|_| {
            self.send();
        }) {
            sleep_until(next);
        }
        let (ledger, latency) = drain.join().map_err(|_| "drain thread panicked")?;
        self.ledger = ledger;
        if self.ledger.expect != base + total {
            return Err(format!(
                "open loop delivered up to task {} of {}",
                self.ledger.expect,
                base + total
            ));
        }
        let elapsed = self
            .ledger
            .last_at
            .map_or(0.0, |t| (t - start).as_secs_f64());
        Ok((pacer.lag, latency, total as f64 / elapsed))
    }

    /// Ends the stream, checks nothing trails the last result, and shuts
    /// the pool down.
    fn finish(self, out: &mut Outcome) -> (Ledger, ShutdownReport) {
        self.tx.send(StreamMsg::End).expect("pool input open");
        let mut extra = 0u64;
        loop {
            match self.rx.recv_timeout(STALL) {
                Ok(StreamMsg::Item { .. }) => extra += 1,
                Ok(StreamMsg::End) => break,
                Err(_) => {
                    out.check("stream_ends", false);
                    break;
                }
            }
        }
        out.check("no_results_after_stream", extra == 0);
        let sent = self.next_seq;
        let ledger = self.ledger;
        out.attempted += sent;
        out.delivered += ledger.delivered;
        out.failed += (sent - ledger.delivered.min(sent)) + ledger.wrong() + extra;
        out.check("ordered_gather_dense_in_order", ledger.out_of_order == 0);
        out.check("payloads_byte_exact", ledger.corrupt == 0);
        out.check("every_task_delivered_once", ledger.delivered == sent);
        (ledger, self.pool.shutdown())
    }
}

/// Runs `pool_echo` / `pool_bulk`: [`ROUNDS`] fresh pools measured
/// closed-loop, then [`ROUNDS`] measured open-loop, each for an equal
/// share of the time. The end-to-end figures come from the open-loop
/// rounds (medians of their delivered rates and latency p50s) and the
/// set-ups. The closed-loop saturation rate (median of its slice rates)
/// is a per-layer figure: on a 2-vCPU VM it moves 10-20% from run to
/// run with the CPU the host lends and with thread placement, too much
/// to gate on. The peak resident set is read after the closed-loop rounds,
/// whose in-flight window bounds memory: an open-loop round queues
/// whatever arrives during a stall, which measures the host's stalls
/// rather than the pool.
pub fn run_fault_free(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let payloads = Arc::new(Payloads::new(ctx.seed, kind.payload_bytes()));
    let rate = kind
        .open_rate()
        .expect("fault-free pools have an open-loop phase");
    let phase = Duration::from_secs_f64(ctx.seconds / ROUNDS as f64 / 2.0);
    let (mut setups, mut builds, mut saturation) = (Vec::new(), Vec::new(), Vec::new());
    let (mut delivered_rates, mut p50s) = (Vec::new(), Vec::new());
    let (mut latency, mut lag) = (Histogram::new(), Histogram::new());
    let mut closed_latency = Histogram::new();
    let (mut threads_peak, mut fds_peak) = (0u64, 0u64);
    for open in [false, true] {
        if open {
            out.metric("rss_peak_mb", rss_peak_mb(), "MB");
        }
        for _ in 0..ROUNDS {
            let (mut live, setup_s, build_ms) = Live::setup(kind, ctx, Arc::clone(&payloads))?;
            setups.push(setup_s);
            builds.push(build_ms);
            if open {
                let (round_lag, round_latency, delivered_tps) = live.open_loop(rate, phase)?;
                delivered_rates.push(delivered_tps);
                p50s.push(round_latency.quantile_ns(0.5) / 1e6);
                latency.merge(&round_latency);
                lag.merge(&round_lag);
            } else {
                let start = Instant::now();
                let deadline = start + phase;
                let mut slices = SliceRates::new(start, SLICE);
                live.closed_loop(
                    |_| Instant::now() < deadline,
                    &mut closed_latency,
                    &mut Histogram::new(),
                    &mut slices,
                )?;
                saturation.extend(slices.rates);
            }
            threads_peak = threads_peak.max(live.threads_peak);
            fds_peak = fds_peak.max(live.fds_peak);
            let (_, report) = live.finish(&mut out);
            out.check("shutdown_clean", report.is_clean());
        }
    }
    let saturation_tps = median(&saturation);

    out.metric("setup_s", median(&setups), "s");
    out.metric("throughput_tps", median(&delivered_rates), "tasks/s");
    out.metric("latency_p50_ms", median(&p50s), "ms");
    out.metric("loadgen.lag_p99_ms", lag.quantile_ns(0.99) / 1e6, "ms");
    out.metric(
        "loadgen.latency_p99_ms",
        latency.quantile_ns(0.99) / 1e6,
        "ms",
    );
    out.metric("loadgen.samples", latency.count() as f64, "count");
    out.metric("net.build_ms", median(&builds), "ms");
    out.metric("net.send_us", ctx.tracer.p50_self_us("net.send"), "us");
    out.metric("net.threads_peak", threads_peak as f64, "count");
    out.metric("net.fds_peak", fds_peak as f64, "count");
    out.metric("net.saturation_tps", saturation_tps, "tasks/s");
    out.metric(
        "net.bytes_per_s",
        saturation_tps * 2.0 * kind.payload_bytes() as f64,
        "B/s",
    );
    out.note("rounds", ROUNDS);
    out.note("saturation_slices", saturation.len());
    out.note("round_latency_p50s_ms", format!("{p50s:.4?}"));
    out.note("open_loop_rate_tps", rate);
    out.note("closed_loop_window", kind.window());
    out.note(
        "closed_loop_latency_p50_ms",
        closed_latency.quantile_ns(0.5) / 1e6,
    );
    Ok(out)
}

/// Runs `pool_chaos`.
pub fn run_chaos(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let payloads = Arc::new(Payloads::new(ctx.seed, Kind::Chaos.payload_bytes()));
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut faults = Vec::new();
    let (mut delivered, mut stream_s) = (0u64, 0.0f64);
    let (mut retried, mut spec_wins, mut dups, mut hedges) = (0u64, 0u64, 0u64, 0u64);
    let mut latency = Histogram::new();
    let mut lag = Histogram::new();
    let (mut threads_peak, mut fds_peak) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut last_round = Duration::ZERO;
    // At least three rounds, then as many as fit the time budget.
    while setups.len() < 3 || started.elapsed() + last_round <= budget {
        let round = Instant::now();
        let (mut live, setup_s, build_ms) = Live::setup(Kind::Chaos, ctx, Arc::clone(&payloads))?;
        setups.push(setup_s);
        builds.push(build_ms);
        let start = Instant::now();
        live.closed_loop(
            |seq| seq < CHAOS_ROUND_TASKS,
            &mut latency,
            &mut lag,
            &mut SliceRates::new(start, SLICE),
        )?;
        stream_s += live
            .ledger
            .last_at
            .map_or(0.0, |t| t.duration_since(start).as_secs_f64());
        faults.push(live.proxy.as_ref().map_or(0, |p| p.log().len()));
        retried += live.pool.tasks_retried();
        spec_wins += live.pool.speculative_wins();
        dups += live.pool.duplicates_dropped();
        hedges += live.pool.hedges_launched();
        threads_peak = threads_peak.max(live.threads_peak);
        fds_peak = fds_peak.max(live.fds_peak);
        let (ledger, report) = live.finish(&mut out);
        delivered += ledger.delivered;
        out.check(
            "loss_free",
            report.lost_undelivered.is_empty() && report.worker_panics.is_empty(),
        );
        last_round = round.elapsed();
    }
    let throughput = delivered as f64 / stream_s;
    let same_schedule = faults.iter().all(|&f| f == faults[0]);

    out.metric("setup_s", median(&setups), "s");
    out.metric("throughput_tps", throughput, "tasks/s");
    out.metric("latency_p50_ms", latency.quantile_ns(0.5) / 1e6, "ms");
    out.metric("loadgen.lag_p99_ms", lag.quantile_ns(0.99) / 1e6, "ms");
    out.metric(
        "loadgen.latency_p99_ms",
        latency.quantile_ns(0.99) / 1e6,
        "ms",
    );
    out.metric("loadgen.samples", latency.count() as f64, "count");
    out.metric("net.build_ms", median(&builds), "ms");
    out.metric("net.send_us", ctx.tracer.p50_self_us("net.send"), "us");
    out.metric("net.threads_peak", threads_peak as f64, "count");
    out.metric("net.fds_peak", fds_peak as f64, "count");
    out.metric(
        "net.bytes_per_s",
        throughput * 2.0 * Kind::Chaos.payload_bytes() as f64,
        "B/s",
    );
    let delivered = delivered.max(1) as f64;
    out.metric("net.retried_per_task", retried as f64 / delivered, "ratio");
    out.metric(
        "net.spec_win_ratio",
        if retried == 0 {
            0.0
        } else {
            spec_wins as f64 / retried as f64
        },
        "ratio",
    );
    out.metric(
        "net.amplification",
        (delivered + (retried + hedges) as f64) / delivered,
        "ratio",
    );
    out.metric("net.dups_dropped", dups as f64, "count");
    out.metric("net.faults_injected", faults[0] as f64, "count");
    out.note("rounds", faults.len());
    out.note("round_tasks", CHAOS_ROUND_TASKS);
    out.note("faults_injected_per_round", format!("{faults:?}"));
    out.note(
        "fault_schedule",
        if same_schedule {
            "same in every round"
        } else {
            "CHANGED between rounds: the fault count moved, read throughput with care"
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_seeded_and_checked_byte_exact() {
        let p = Payloads::new(42, 64);
        let q = Payloads::new(43, 64);
        assert_eq!(p.make(5), p.make(5));
        assert_ne!(p.make(5), q.make(5));
        assert_ne!(
            p.make(5),
            p.make(21),
            "index differs even on the same filler block"
        );
        assert!(p.matches(5, &p.make(5)));
        let mut bad = p.make(5);
        bad[40] ^= 1;
        assert!(!p.matches(5, &bad));
        assert!(!p.matches(6, &p.make(5)));
        assert!(!p.matches(5, &p.make(5)[..63]));
        assert_eq!(Payloads::new(1, 8).make(3).len(), 8);
    }

    #[test]
    fn ledger_flags_gaps_and_corruption() {
        let p = Payloads::new(1, 8);
        let mut l = Ledger::default();
        let now = Instant::now();
        l.accept(&p, 0, &p.make(0), now);
        l.accept(&p, 2, &p.make(2), now);
        l.accept(&p, 3, &p.make(4), now);
        assert_eq!((l.delivered, l.out_of_order, l.corrupt), (3, 1, 1));
        assert_eq!(l.wrong(), 2);
    }
}
