//! `farm_contract`: the paper's Fig. 3 on the threaded farm.
//!
//! Each task sleeps 1 ms. The farm starts at 1 worker (ceiling 6) under
//! `Contract::min_throughput(2000)` while tasks arrive open-loop at
//! 2200/s. `AM_F` runs the standard farm rules, its `control_cycle`
//! driven every 100 ms by the benchmark's own loop, with a journal
//! attached. The manager reaches the farm through the timing decorators
//! (`TimedAbc` over `FarmAbc` over `TimedControl`), so the traced run
//! splits each cycle into sense, decide and actuate.
//!
//! Reported beside the end-to-end metrics: `core.adapt_s`, the time from
//! stream start until the delivered rate over a trailing 250 ms first
//! meets the contract floor, and `skeletons.worker_s`, the integral of
//! the parallelism degree over the run (the resources spent meeting it).

use crate::loadgen::{sleep_until, Pacer, RateWindow, Schedule};
use crate::outcome::Outcome;
use crate::probes::{TimedAbc, TimedControl};
use crate::stats::{median, Histogram};
use crate::{Ctx, SETUP_GAP};
use bskel_core::{AutonomicManager, Contract, EventLog, ManagerConfig};
use bskel_monitor::{Clock, Journal, RealClock};
use bskel_skel::abc_impl::FarmAbc;
use bskel_skel::farm::{Farm, FarmBuilder, FarmControl, SchedPolicy};
use bskel_skel::stream::StreamMsg;
use crossbeam::channel::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVICE: Duration = Duration::from_millis(1);
/// Offered load. At 2200/s, three workers (the first count whose rate
/// meets the contract) leave enough headroom to drain the backlog of
/// the ramp in about a second, so the median task sees the adapted farm
/// and `latency_p50_ms` measures it rather than the tail of the ramp.
const ARRIVAL_RATE: f64 = 2_200.0;
const CONTRACT_FLOOR: f64 = 2_000.0;
const MAX_WORKERS: u32 = 6;
const CONTROL_PERIOD: Duration = Duration::from_millis(100);
const RATE_WINDOW: Duration = Duration::from_millis(250);
const SETUP_REPS: usize = 25;
const STALL: Duration = Duration::from_secs(10);

struct Live {
    farm: Farm<u64, u64>,
    control: Arc<TimedControl>,
    manager: AutonomicManager,
    journal: Arc<Journal>,
    clock: Arc<RealClock>,
}

/// Builds the farm and its manager and submits task 0; returns the live
/// set-up, its time (start to first task admitted), and the farm and
/// manager build times.
fn setup(ctx: &Ctx) -> (Live, f64, f64, f64) {
    let t0 = Instant::now();
    let clock = Arc::new(RealClock::new());
    let b0 = Instant::now();
    let farm = {
        let _span = ctx.tracer.span("skeletons.build", None);
        FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(SERVICE);
            x
        })
        .name("fc")
        .sched(SchedPolicy::ShortestQueue)
        .initial_workers(1)
        .max_workers(MAX_WORKERS)
        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .rate_window(0.5)
        .build()
    };
    let farm_ms = b0.elapsed().as_secs_f64() * 1e3;
    let m0 = Instant::now();
    let control = Arc::new(TimedControl::new(farm.control(), Arc::clone(&ctx.tracer)));
    let journal = Journal::shared();
    let manager = {
        let _span = ctx.tracer.span("core.manager_build", None);
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        let mut cfg = ManagerConfig::farm("AM_F");
        cfg.control_period = CONTROL_PERIOD.as_secs_f64();
        cfg.max_workers = MAX_WORKERS;
        let abc = FarmAbc::new(Arc::clone(&control) as Arc<dyn FarmControl>);
        let abc = TimedAbc::new(Box::new(abc), Arc::clone(&ctx.tracer));
        let manager = AutonomicManager::new(cfg, Box::new(abc), log);
        manager
            .contract_slot()
            .post(Contract::min_throughput(CONTRACT_FLOOR));
        manager
    };
    let manager_ms = m0.elapsed().as_secs_f64() * 1e3;
    send(&farm.input(), ctx, 0);
    let live = Live {
        farm,
        control,
        manager,
        journal,
        clock,
    };
    (live, t0.elapsed().as_secs_f64(), farm_ms, manager_ms)
}

fn send(tx: &Sender<StreamMsg<u64>>, ctx: &Ctx, seq: u64) {
    let _span = ctx.tracer.span("skeletons.send", Some(seq));
    tx.send(StreamMsg::item(seq, seq)).expect("farm input open");
}

/// What the drain thread saw.
struct Drained {
    delivered: u64,
    wrong: u64,
    duplicates: u64,
    latency: Histogram,
    adapt_at: Option<Instant>,
    last_at: Option<Instant>,
}

/// Receives every result until `End`: exactly-once bookkeeping, latency
/// from the due time, and the first instant the trailing rate met the
/// contract floor.
fn drain(farm: &Farm<u64, u64>, schedule: Schedule) -> std::thread::JoinHandle<Drained> {
    let rx = farm.output();
    std::thread::spawn(move || {
        let mut seen: Vec<u64> = Vec::new();
        let mut meter = RateWindow::new(RATE_WINDOW);
        let mut d = Drained {
            delivered: 0,
            wrong: 0,
            duplicates: 0,
            latency: Histogram::new(),
            adapt_at: None,
            last_at: None,
        };
        while let Ok(StreamMsg::Item { seq, payload }) = rx.recv_timeout(STALL) {
            let now = Instant::now();
            d.latency.record(schedule.latency(seq, now));
            if payload != seq {
                d.wrong += 1;
            }
            let (word, bit) = ((seq / 64) as usize, seq % 64);
            if seen.len() <= word {
                seen.resize(word + 1, 0);
            }
            if seen[word] & (1 << bit) != 0 {
                d.duplicates += 1;
            }
            seen[word] |= 1 << bit;
            d.delivered += 1;
            d.last_at = Some(now);
            if meter.record(now) >= CONTRACT_FLOOR && d.adapt_at.is_none() {
                d.adapt_at = Some(now);
            }
        }
        d
    })
}

/// Runs `farm_contract`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setups, mut farm_builds, mut manager_builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (l, setup_s, farm_ms, manager_ms) = setup(ctx);
        setups.push(setup_s);
        farm_builds.push(farm_ms);
        manager_builds.push(manager_ms);
        if rep + 1 < SETUP_REPS {
            l.farm
                .input()
                .send(StreamMsg::End)
                .expect("farm input open");
            let d = drain(&l.farm, Schedule::new(Instant::now(), 1.0))
                .join()
                .map_err(|_| "drain thread panicked")?;
            out.attempted += 1;
            out.delivered += d.delivered;
            out.check("setup_task_delivered", d.delivered == 1 && d.wrong == 0);
            out.check("setup_shutdown_clean", l.farm.shutdown().is_clean());
            std::thread::sleep(SETUP_GAP);
        } else {
            live = Some(l);
        }
    }
    let Live {
        farm,
        control,
        mut manager,
        journal,
        clock,
    } = live.expect("at least one setup");

    let start = Instant::now();
    let schedule = Schedule::new(start, ARRIVAL_RATE);
    let total = schedule.tasks_within(Duration::from_secs_f64(ctx.seconds));
    let drained = drain(&farm, schedule);
    // Task 0 went in during set-up.
    let mut pacer = Pacer::new(schedule, 1, total);
    let tx = farm.input();
    let mut next_control = start + CONTROL_PERIOD;
    let (mut cycles, mut ops) = (0u64, 0u64);
    let mut worker_s = 0.0;
    let mut last_tick = start;
    loop {
        let next_due = pacer.poll(|seq| send(&tx, ctx, seq));
        let now = Instant::now();
        if now >= next_control {
            worker_s += control.num_workers() as f64 * (now - last_tick).as_secs_f64();
            last_tick = now;
            let _span = ctx.tracer.span("core.cycle", None);
            ops += manager.control_cycle(clock.now()).len() as u64;
            cycles += 1;
            next_control += CONTROL_PERIOD;
        }
        match next_due {
            Some(due) => sleep_until(due.min(next_control)),
            None => break,
        }
    }
    let workers_final = control.num_workers();
    worker_s += workers_final as f64 * last_tick.elapsed().as_secs_f64();
    tx.send(StreamMsg::End).expect("farm input open");
    let d = drained.join().map_err(|_| "drain thread panicked")?;
    let report = farm.shutdown();

    out.attempted += total;
    out.delivered += d.delivered;
    out.failed += total.saturating_sub(d.delivered) + d.wrong + d.duplicates;
    out.check(
        "every_task_delivered_once",
        d.delivered == total && d.duplicates == 0,
    );
    out.check("results_exact", d.wrong == 0);
    out.check("shutdown_clean", report.is_clean());

    let stream_s = d.last_at.map_or(0.0, |t| (t - start).as_secs_f64());
    let adapt_s = d
        .adapt_at
        .map_or(ctx.seconds, |t| (t - start).as_secs_f64());
    out.metric("setup_s", median(&setups), "s");
    out.metric("throughput_tps", d.delivered as f64 / stream_s, "tasks/s");
    out.metric("latency_p50_ms", d.latency.quantile_ns(0.5) / 1e6, "ms");
    out.metric(
        "loadgen.lag_p99_ms",
        pacer.lag.quantile_ns(0.99) / 1e6,
        "ms",
    );
    out.metric(
        "loadgen.latency_p99_ms",
        d.latency.quantile_ns(0.99) / 1e6,
        "ms",
    );
    out.metric("loadgen.samples", d.latency.count() as f64, "count");
    out.metric("skeletons.build_ms", median(&farm_builds), "ms");
    out.metric(
        "skeletons.send_us",
        ctx.tracer.p50_self_us("skeletons.send"),
        "us",
    );
    out.metric(
        "skeletons.sense_us",
        ctx.tracer.p50_self_us("skeletons.sense"),
        "us",
    );
    for (metric, span) in [
        ("skeletons.add_workers_us", "skeletons.add_workers"),
        ("skeletons.remove_workers_us", "skeletons.remove_workers"),
        ("skeletons.rebalance_us", "skeletons.rebalance"),
    ] {
        out.metric(metric, ctx.tracer.p50_self_us(span), "us");
    }
    out.metric(
        "skeletons.rebalance_moved_ratio",
        control.rebalance_moved_ratio(),
        "ratio",
    );
    out.metric(
        "skeletons.workers_max",
        control.workers_max() as f64,
        "count",
    );
    out.metric("skeletons.worker_s", worker_s, "worker_s");
    out.metric("core.cycle_us", mean_us(ctx, "core.cycle", false), "us");
    out.metric("core.sense_us", mean_us(ctx, "core.sense", false), "us");
    out.metric("core.actuate_us", mean_us(ctx, "core.actuate", false), "us");
    out.metric("core.decide_us", mean_us(ctx, "core.cycle", true), "us");
    out.metric(
        "core.ops_per_cycle",
        ops as f64 / cycles.max(1) as f64,
        "ratio",
    );
    out.metric("core.cycles", cycles as f64, "count");
    out.metric("core.manager_build_ms", median(&manager_builds), "ms");
    out.metric("core.adapt_s", adapt_s, "s");
    out.metric(
        "monitor.journal_records",
        journal.recorded() as f64,
        "count",
    );
    out.metric("monitor.journal_dropped", journal.dropped() as f64, "count");
    out.note("contract_met", d.adapt_at.is_some());
    out.note("workers_final", workers_final);
    Ok(out)
}

/// Mean time per cycle spent in spans named `name` (whole spans, or
/// their self time), µs. Per cycle rather than per call: a cycle that
/// actuates nothing spends nothing actuating.
fn mean_us(ctx: &Ctx, name: &str, self_time: bool) -> f64 {
    let cycles = ctx.tracer.aggregate("core.cycle").count.max(1) as f64;
    let agg = ctx.tracer.aggregate(name);
    let ns = if self_time {
        agg.self_ns.mean_ns() * agg.count as f64
    } else {
        agg.total_ns as f64
    };
    ns / cycles / 1e3
}
