//! Hedged-dispatch correctness under a seeded slow-endpoint schedule.
//!
//! Topology: one endpoint behind a [`ChaosProxy`] that *delays* (never
//! drops) every frame, plus one clean endpoint. Delay-only chaos is the
//! point — without hedging every task still completes eventually, so
//! these tests isolate the hedging properties from loss recovery:
//!
//! * **first result wins, exactly once**: the ordered gather's reorder
//!   buffer panics on a duplicate sequence, so a completed soak proves
//!   the speculation-registry dedup holds for hedges too;
//! * **hedges actually launch and win** when the slow tail exceeds the
//!   rolling latency quantile;
//! * **an exhausted retry budget suppresses hedging entirely** (the
//!   always-empty `ratio: 0, min_tokens: 0` bucket) while the stream
//!   still completes via the delayed originals;
//! * **the journal carries the pool's own bucket**: a manager sensing
//!   the pool journals `retryBudgetTokens` exactly as the pool holds it,
//!   a drained bucket included.

use std::sync::Arc;
use std::time::Duration;

use bskel_core::{AutonomicManager, Contract, EventLog, ManagerConfig};
use bskel_monitor::{beans, Clock, Journal, JournalEntry, RealClock};
use bskel_net::{
    spawn_chaos_local, spawn_local, ChaosPlan, ChaosPolicy, Endpoint, RemotePoolBuilder,
    RemoteWorkerPool,
};
use bskel_skel::abc_impl::FarmAbc;
use bskel_skel::stream::StreamMsg;
use bskel_skel::GatherPolicy;

fn enc(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn dec(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// A delay-only chaos plan: a slice of the proxied endpoint's frames
/// wait `lo..=hi` ms, nothing is ever dropped or corrupted. The proxy
/// sleeps inline per delayed frame, so `p` stays well below 1.0 to keep
/// its forwarding threads from falling permanently behind the
/// heartbeat traffic.
fn slow_plan(seed: u64, p: f64, lo: u64, hi: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        policy: ChaosPolicy {
            delay_p: p,
            delay_ms: (lo, hi),
            ..ChaosPolicy::default()
        },
    }
}

/// Builds the two-endpoint pool (slow proxied + clean) with hedging at
/// the given quantile and an optional retry budget.
fn hedging_pool(
    plan: ChaosPlan,
    quantile: f64,
    budget: Option<(f64, f64)>,
) -> RemoteWorkerPool<u64, u64> {
    let seed = plan.seed;
    let proxy = spawn_chaos_local(plan).expect("spawn chaos proxy + daemon");
    let clean = spawn_local("127.0.0.1:0").expect("spawn clean daemon");
    let mut b = RemotePoolBuilder::new("double", enc, dec)
        .name("hedge")
        .initial_workers(2)
        .max_workers(4)
        .gather(GatherPolicy::Ordered)
        .heartbeat_period(Duration::from_millis(100))
        .failure_timeout(Duration::from_secs(5))
        .hedge_quantile(quantile)
        .resilience_seed(seed)
        .endpoint(Endpoint::plain(proxy.addr().to_string()))
        .endpoint(Endpoint::plain(clean.to_string()));
    if let Some((ratio, min_tokens)) = budget {
        b = b.retry_budget(ratio, min_tokens);
    }
    b.build().expect("both endpoints reachable")
}

/// Sends `0..n` and `End`, returns the ordered payloads received.
fn run_stream(pool: &RemoteWorkerPool<u64, u64>, n: u64) -> Vec<u64> {
    let tx = pool.input();
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
    });
    let mut got = Vec::with_capacity(n as usize);
    for msg in pool.output().iter() {
        match msg {
            StreamMsg::Item { payload, .. } => got.push(payload),
            StreamMsg::End => break,
        }
    }
    producer.join().unwrap();
    got
}

#[test]
fn hedges_launch_win_and_never_double_emit() {
    // An aggressive quantile (0.3) sits below the slow endpoint's delay
    // band once the clean endpoint's fast deliveries fill the window, so
    // every slow-slot task in the tail gets hedged onto the clean slot.
    let pool = hedging_pool(slow_plan(0x4ED6E, 0.45, 40, 80), 0.3, None);
    let n = 300;
    let got = run_stream(&pool, n);
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(got, want, "hedging lost, reordered or duplicated a task");
    let hedges = pool.hedges_launched();
    let wins = pool.hedge_wins();
    assert!(hedges > 0, "slow tail above the quantile never hedged");
    assert!(
        wins > 0,
        "a ~200ms-delayed original beat every ~1ms hedge ({hedges} hedges)"
    );
    assert!(wins <= hedges, "{wins} wins from {hedges} hedges");
    // No task deadline is configured: every duplicate must be a hedge.
    assert_eq!(
        pool.tasks_retried(),
        0,
        "speculation fired without a deadline"
    );
    let report = pool.shutdown();
    assert!(
        report.worker_panics.is_empty() && report.lost_undelivered.is_empty(),
        "delay-only chaos must not lose anything: {report:?}"
    );
}

#[test]
fn exhausted_budget_suppresses_hedging() {
    // ratio 0 / min 0 is the always-empty bucket: every discretionary
    // re-dispatch is refused. The stream still completes because delayed
    // frames are merely late, never lost.
    let pool = hedging_pool(slow_plan(0xB4D6E7, 0.4, 30, 60), 0.3, Some((0.0, 0.0)));
    let n = 150;
    let got = run_stream(&pool, n);
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(got, want, "budget gating must not affect delivery");
    assert_eq!(
        pool.hedges_launched(),
        0,
        "hedged despite an exhausted retry budget"
    );
    assert_eq!(pool.hedge_wins(), 0);
    assert_eq!(
        pool.retry_budget_tokens(),
        Some(0.0),
        "the zero budget must stay empty"
    );
    pool.shutdown();
}

/// Streams `n` tasks through a clean two-slot pool with the given retry
/// budget while a `rules` manager senses it through `FarmAbc`, cycling
/// before, after and once more past the stream. Returns the pool and
/// the `retryBudgetTokens` value of every snapshot the manager journaled.
fn journaled_budget(ratio: f64, min_tokens: f64, n: u64) -> (RemoteWorkerPool<u64, u64>, Vec<f64>) {
    let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
    let daemon = spawn_local("127.0.0.1:0").expect("spawn daemon");
    let pool = RemotePoolBuilder::new("double", enc, dec)
        .name("budget-bean")
        .initial_workers(2)
        .max_workers(2)
        .gather(GatherPolicy::Ordered)
        .clock(Arc::clone(&clock))
        .retry_budget(ratio, min_tokens)
        .endpoint(Endpoint::plain(daemon.to_string()))
        .build()
        .expect("daemon reachable");

    let journal = Journal::shared();
    let log = EventLog::new();
    log.attach_journal(Arc::clone(&journal));
    let mut manager = AutonomicManager::new(
        ManagerConfig::farm("AM_BUDGET"),
        Box::new(FarmAbc::new(pool.control())),
        log,
    )
    .with_rules(bskel_rules::stdlib::farm_rules());
    manager.contract_slot().post(Contract::BestEffort);

    manager.control_cycle(clock.now());
    let want: Vec<u64> = (0..n).map(|x| x * 2).collect();
    assert_eq!(run_stream(&pool, n), want);
    manager.control_cycle(clock.now());
    manager.control_cycle(clock.now());

    let tokens = journal
        .entries()
        .into_iter()
        .filter_map(|r| match r.entry {
            JournalEntry::Snapshot {
                source,
                beans: values,
                ..
            } if source == "AM_BUDGET" => values
                .into_iter()
                .find(|(bean, _)| bean == beans::RETRY_BUDGET_TOKENS)
                .map(|(_, v)| v),
            _ => None,
        })
        .collect();
    (pool, tokens)
}

#[test]
fn journal_carries_the_drained_plant_budget() {
    // A drained bucket is published as 0.0, and 0.0 is what the journal
    // must record: nothing on the manager side may stand in for it.
    let (pool, tokens) = journaled_budget(0.0, 0.0, 100);
    assert_eq!(tokens.len(), 3, "one journaled snapshot per cycle");
    assert!(tokens.iter().all(|&t| t == 0.0), "{tokens:?}");
    assert_eq!(pool.retry_budget_tokens(), Some(0.0));
    pool.shutdown();
}

#[test]
fn journal_carries_the_live_plant_budget() {
    // Every delivered result deposits 0.2 tokens onto the floor of 5, so
    // the bucket ends well away from its starting level.
    let (pool, tokens) = journaled_budget(0.2, 5.0, 100);
    assert_eq!(tokens.len(), 3, "one journaled snapshot per cycle");
    let last = *tokens.last().expect("journaled snapshots");
    assert_eq!(Some(last), pool.retry_budget_tokens());
    assert!(last > 5.0, "no deposits journaled: {tokens:?}");
    pool.shutdown();
}
