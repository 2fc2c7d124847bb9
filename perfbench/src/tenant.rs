//! `tenant_flood`: a victim tenant beside a flooding one on one shared
//! farm, behind `TenantFrontEnd::over_farm`.
//!
//! The farm has a fixed 4 workers of 1 ms sleep tasks. The victim is
//! open-loop at 400/s under a throughput contract; the hot tenant is
//! open-loop at 7.6k/s with `ShedOldest`, far past the pool's capacity.
//! The per-tenant managers and the pool arbiter (`build_managers`) cycle
//! every 250 ms on the benchmark thread. Deficit round robin, admission
//! control and the in-flight caps decide what is delivered and what is
//! shed; sheds are deliberate and show in `delivered_ratio`, never in
//! `failed`.

use crate::loadgen::{sleep_until, Pacer, Schedule};
use crate::outcome::Outcome;
use crate::stats::{median, Histogram};
use crate::{Ctx, SETUP_GAP};
use bskel_core::{Contract, EventLog};
use bskel_monitor::Journal;
use bskel_skel::{FarmBuilder, GatherPolicy};
use bskel_tenancy::{
    build_managers, LossReason, ShedPolicy, TenancyManagers, TenantFrontEnd, TenantHandle,
    TenantMsg, TenantSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Front = TenantFrontEnd<u64, u64>;
type Handle = TenantHandle<u64, u64>;

const SERVICE: Duration = Duration::from_millis(1);
const WORKERS: u32 = 4;
const VICTIM_RATE: f64 = 400.0;
const VICTIM_FLOOR: f64 = 350.0;
const HOT_RATE: f64 = 7_600.0;
const CONTROL_PERIOD: Duration = Duration::from_millis(250);
const SAMPLE_PERIOD: Duration = Duration::from_millis(50);
const SETUP_REPS: usize = 25;
const STALL: Duration = Duration::from_secs(10);

struct Live {
    front: Front,
    victim: Handle,
    hot: Handle,
    managers: TenancyManagers,
    journal: Arc<Journal>,
}

/// Builds the farm, the front-end, both tenants and their managers,
/// then submits the victim's task 0; returns the live set-up, its time,
/// and the farm and manager build times.
fn setup(ctx: &Ctx) -> Result<(Live, f64, f64, f64), String> {
    let t0 = Instant::now();
    let farm = {
        let _span = ctx.tracer.span("skeletons.build", None);
        FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(SERVICE);
            x
        })
        .name("tf")
        .initial_workers(WORKERS)
        .max_workers(WORKERS)
        .gather(GatherPolicy::Unordered)
        .build()
    };
    let farm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let front = TenantFrontEnd::over_farm(farm);
    let victim = front
        .attach(
            TenantSpec::new("victim", Contract::min_throughput(VICTIM_FLOOR))
                .with_weight(1.0)
                .with_queue_capacity(256),
        )
        .map_err(|e| format!("attach victim: {e}"))?;
    let hot = front
        .attach(
            TenantSpec::new("hot", Contract::BestEffort)
                .with_weight(4.0)
                .with_queue_capacity(512)
                .with_shed_policy(ShedPolicy::ShedOldest),
        )
        .map_err(|e| format!("attach hot: {e}"))?;
    let m0 = Instant::now();
    let journal = Journal::shared();
    let managers = {
        let _span = ctx.tracer.span("core.manager_build", None);
        let log = EventLog::new();
        log.attach_journal(Arc::clone(&journal));
        build_managers(&front, &[&victim, &hot], log, WORKERS)
    };
    let manager_ms = m0.elapsed().as_secs_f64() * 1e3;
    submit(ctx, &victim, 0);
    let live = Live {
        front,
        victim,
        hot,
        managers,
        journal,
    };
    Ok((live, t0.elapsed().as_secs_f64(), farm_ms, manager_ms))
}

fn submit(ctx: &Ctx, tenant: &Handle, seq: u64) {
    let _span = ctx.tracer.span("tenancy.submit", Some(seq));
    tenant.submit(seq);
}

/// One tenant's output, as received.
#[derive(Default)]
struct Received {
    completed: u64,
    shed: u64,
    lost: u64,
    wrong: u64,
    ended: bool,
    last_at: Option<Instant>,
}

impl Received {
    /// Books one message; returns the sequence number of a result.
    fn book(&mut self, msg: TenantMsg<u64>) -> Option<u64> {
        match msg {
            TenantMsg::Item { seq, payload } => {
                self.completed += 1;
                if payload != seq {
                    self.wrong += 1;
                }
                self.last_at = Some(Instant::now());
                return Some(seq);
            }
            TenantMsg::Lost {
                reason: LossReason::Shed,
                ..
            } => self.shed += 1,
            TenantMsg::Lost { .. } => self.lost += 1,
            TenantMsg::End => self.ended = true,
        }
        None
    }

    /// Blocks until the tenant's `End` (or a stall).
    fn drain_to_end(&mut self, tenant: &Handle) {
        while !self.ended {
            match tenant.output().recv_timeout(STALL) {
                Ok(msg) => {
                    self.book(msg);
                }
                Err(_) => return,
            }
        }
    }
}

/// Closes both tenants, drains them, shuts down, and books the ledgers.
fn finish(
    live: Live,
    victim: &mut Received,
    hot: &mut Received,
    out: &mut Outcome,
) -> bskel_tenancy::TenancyReport {
    live.victim.close();
    live.hot.close();
    victim.drain_to_end(&live.victim);
    hot.drain_to_end(&live.hot);
    out.check("tenant_streams_end", victim.ended && hot.ended);
    let report = live.front.shutdown();
    for t in &report.tenants {
        out.attempted += t.submitted;
        out.failed += t.lost;
        out.check(format!("{}_ledger_balances", t.name), t.accounted());
    }
    out.check("loss_free", report.is_loss_free());
    out.check(
        "shutdown_clean",
        report.pool.as_ref().is_some_and(|p| p.is_clean()),
    );
    for r in [&*victim, &*hot] {
        out.delivered += r.completed;
        out.failed += r.wrong;
    }
    out.check("results_exact", victim.wrong == 0 && hot.wrong == 0);
    let received = |name: &str, r: &Received| {
        report
            .tenants
            .iter()
            .find(|t| t.name == name)
            .is_some_and(|t| t.completed == r.completed && t.shed == r.shed && t.lost == r.lost)
    };
    out.check(
        "outputs_match_ledgers",
        received("victim", victim) && received("hot", hot),
    );
    report
}

/// Runs `tenant_flood`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setups, mut farm_builds, mut manager_builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (l, setup_s, farm_ms, manager_ms) = setup(ctx)?;
        setups.push(setup_s);
        farm_builds.push(farm_ms);
        manager_builds.push(manager_ms);
        if rep + 1 < SETUP_REPS {
            let (mut v, mut h) = (Received::default(), Received::default());
            finish(l, &mut v, &mut h, &mut out);
            std::thread::sleep(SETUP_GAP);
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one setup");

    let span = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let victim_schedule = Schedule::new(start, VICTIM_RATE);
    let hot_schedule = Schedule::new(start, HOT_RATE);
    // The victim's task 0 went in during set-up.
    let mut victim_pacer = Pacer::new(victim_schedule, 1, victim_schedule.tasks_within(span));
    let mut hot_pacer = Pacer::new(hot_schedule, 0, hot_schedule.tasks_within(span));
    let victim_drain = {
        let victim = live.victim.clone();
        std::thread::spawn(move || {
            let mut r = Received::default();
            let mut latency = Histogram::new();
            while !r.ended {
                match victim.output().recv_timeout(STALL) {
                    Ok(msg) => {
                        if let Some(seq) = r.book(msg) {
                            latency.record(victim_schedule.latency(seq, Instant::now()));
                        }
                    }
                    Err(_) => break,
                }
            }
            (r, latency)
        })
    };
    let mut hot = Received::default();
    let mut next_control = start + CONTROL_PERIOD;
    let mut next_sample = start;
    let (mut cycles, mut samples) = (0u64, 0u64);
    let (mut queue_depth, mut in_flight) = (0u64, 0u64);
    loop {
        let v = victim_pacer.poll(|seq| submit(ctx, &live.victim, seq));
        let h = hot_pacer.poll(|seq| submit(ctx, &live.hot, seq));
        while let Ok(msg) = live.hot.output().try_recv() {
            hot.book(msg);
        }
        let now = Instant::now();
        if now >= next_control {
            let _span = ctx.tracer.span("tenancy.cycle", None);
            live.managers.run_cycle((now - start).as_secs_f64());
            cycles += 1;
            next_control += CONTROL_PERIOD;
        }
        if now >= next_sample {
            for t in [&live.victim, &live.hot] {
                let s = t.stats();
                queue_depth += s.queue_depth;
                in_flight += s.in_flight;
            }
            samples += 1;
            next_sample += SAMPLE_PERIOD;
        }
        let wake = [v, h].into_iter().flatten().min();
        match wake {
            Some(t) => sleep_until(t.min(next_control).min(next_sample)),
            None => break,
        }
    }
    let service_s = live.front.control().sense(0.0).service_time;
    live.victim.close();
    let (mut victim, latency) = victim_drain.join().map_err(|_| "drain thread panicked")?;
    let journal = Arc::clone(&live.journal);
    let report = finish(live, &mut victim, &mut hot, &mut out);

    let last = victim.last_at.max(hot.last_at);
    let stream_s = last.map_or(0.0, |t| (t - start).as_secs_f64());
    let throughput = (victim.completed + hot.completed) as f64 / stream_s;
    let admitted = |name: &str| {
        report
            .tenants
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| {
                (t.submitted - t.shed) as f64 / t.submitted.max(1) as f64
            })
    };
    let mut lag = victim_pacer.lag;
    lag.merge(&hot_pacer.lag);
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
    out.metric("skeletons.build_ms", median(&farm_builds), "ms");
    out.metric("core.cycles", cycles as f64, "count");
    out.metric("core.manager_build_ms", median(&manager_builds), "ms");
    out.metric(
        "monitor.journal_records",
        journal.recorded() as f64,
        "count",
    );
    out.metric("monitor.journal_dropped", journal.dropped() as f64, "count");
    out.metric(
        "tenancy.submit_us",
        ctx.tracer.p50_self_us("tenancy.submit"),
        "us",
    );
    out.metric("tenancy.admitted_ratio_victim", admitted("victim"), "ratio");
    out.metric("tenancy.admitted_ratio_hot", admitted("hot"), "ratio");
    out.metric(
        "tenancy.queue_depth_mean",
        queue_depth as f64 / samples.max(1) as f64,
        "count",
    );
    out.metric(
        "tenancy.in_flight_mean",
        in_flight as f64 / samples.max(1) as f64,
        "count",
    );
    let cycle = ctx.tracer.aggregate("tenancy.cycle");
    out.metric(
        "tenancy.cycle_us",
        cycle.total_ns as f64 / cycle.count.max(1) as f64 / 1e3,
        "us",
    );
    out.metric(
        "tenancy.pool_utilisation",
        throughput * service_s / f64::from(WORKERS),
        "ratio",
    );
    out.note("victim_completed", victim.completed);
    out.note("victim_shed", victim.shed);
    out.note("hot_completed", hot.completed);
    out.note("hot_shed", hot.shed);
    out.note("service_time_ms", service_s * 1e3);
    Ok(out)
}
