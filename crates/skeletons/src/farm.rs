//! The reconfigurable task farm.
//!
//! Structure (paper Fig. 2, left): an **emitter** (the S component)
//! dispatches the input stream over per-worker queues; **workers** (W)
//! compute; a **collector** (C) gathers results, optionally restoring
//! stream order. The farm is *reconfigurable while running*: the manager's
//! actuators add workers, retire workers (redistributing their queued
//! tasks) and rebalance queues. Per-worker queues (rather than one shared
//! queue) are deliberate: they make the paper's `queueVariance` bean and
//! `BALANCE_LOAD` action meaningful.
//!
//! The emitter, the collector, dispatch, the actuators and the loss-free
//! reconfiguration protocol are the [`crate::engine`], shared with the
//! distributed pool. This module backs each engine slot with a worker
//! thread and keeps what only threads need: the worker loop, panic
//! capture, the fault-injection kill flag and the joins at shutdown.
//!
//! The steady-state task path takes **no lock per task**: the emitter
//! reads the worker set through an RCU [`crate::rcu`] handle, hand-off is
//! batched ([`crate::queue::WorkerQueue`]; workers pop up to
//! `WORKER_BATCH` tasks per wake-up and return results as one message per
//! batch), and per-worker service times are worker-owned
//! [`bskel_monitor::LocalStats`] published through seqlock
//! [`WelfordCell`]s, merged only at [`FarmControl::sense`] time.

use crate::engine::{panic_message, Engine, EngineConfig, Slot};
use crate::queue::{Task, WorkerQueue};
use crate::stream::StreamMsg;
use bskel_monitor::{
    Clock, Journal, LocalStats, RealClock, SensorSnapshot, Time, Welford, WelfordCell,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Most tasks a worker pops (and results it groups) per wake-up.
const WORKER_BATCH: usize = 32;

/// How the emitter picks a worker for the next task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Cycle through workers (the paper's unicast/round-robin policy).
    #[default]
    RoundRobin,
    /// Send to the worker with the shortest queue (on-demand-like).
    ShortestQueue,
}

/// How the collector orders results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GatherPolicy {
    /// Deliver results in completion order (paper: gather).
    #[default]
    Unordered,
    /// Restore the input stream's order (sequence-number reordering).
    Ordered,
}

/// A worker thread's factory: called once per worker, on the worker's own
/// thread, so per-worker state needs no synchronisation.
pub type WorkerFactory<In, Out> = Arc<dyn Fn() -> Box<dyn FnMut(In) -> Out + Send> + Send + Sync>;

/// What kind of fault the farm recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmEventKind {
    /// A worker panicked while computing a task (the task is poisoned).
    WorkerPanic,
    /// A worker left the pool abruptly (panic or fault injection), its
    /// queued tasks recovered onto survivors.
    WorkerLost,
}

impl FarmEventKind {
    /// Stable event label (mirrors the manager's event vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            FarmEventKind::WorkerPanic => "worker:panic",
            FarmEventKind::WorkerLost => "worker:lost",
        }
    }
}

/// A fault event recorded by the farm substrate (worker panics and
/// losses), exposed through [`FarmControl::events`] and the
/// [`ShutdownReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FarmEvent {
    /// Clock time the fault was recorded.
    pub at: Time,
    /// What happened.
    pub kind: FarmEventKind,
    /// Human-readable cause (panic message or injection note).
    pub detail: String,
}

/// What [`Farm::shutdown`] found when tearing threads down: every panic
/// that was previously discarded by `let _ = handle.join()` is surfaced
/// here (and as [`FarmEvent`]s) instead of being silently dropped.
#[derive(Debug, Default)]
pub struct ShutdownReport {
    /// Panic messages from workers (caught in-flight or at join time).
    pub worker_panics: Vec<String>,
    /// Cumulative workers lost to faults over the farm's lifetime.
    pub workers_lost: u64,
    /// The recorded fault events, in order.
    pub events: Vec<FarmEvent>,
    /// Errors tearing down remote connections (distributed substrates
    /// only; a purely local farm always leaves this empty). Mirrors the
    /// join-error capture: a failed goodbye/socket close is surfaced here
    /// instead of being silently dropped.
    pub disconnects: Vec<String>,
    /// Task sequence numbers whose loss notification could not be
    /// delivered downstream (the collector had already exited). Loss
    /// freedom is auditable — every task is accounted for either in the
    /// output stream, as a delivered hole, or here — instead of assumed.
    pub lost_undelivered: Vec<u64>,
}

impl ShutdownReport {
    /// True when no worker ever panicked or was lost, every connection
    /// closed cleanly, and every loss notification was delivered.
    pub fn is_clean(&self) -> bool {
        self.worker_panics.is_empty()
            && self.workers_lost == 0
            && self.disconnects.is_empty()
            && self.lost_undelivered.is_empty()
    }
}

/// The dispatchable face of one worker thread: what the engine's table
/// holds and what the thread itself works from.
struct WorkerSlot<In> {
    queue: WorkerQueue<In>,
    service: Arc<WelfordCell>,
    /// Fault-injection flag: set by `kill_workers`, observed between
    /// tasks — the thread dies abruptly from the farm's point of view.
    kill: AtomicBool,
    /// The worker thread, taken by the join at teardown. Departed slots
    /// stay in the engine's retired list, so their threads are reaped —
    /// not discarded — too.
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl<In> Slot for WorkerSlot<In> {
    type Item = In;

    fn queue(&self) -> &WorkerQueue<In> {
        &self.queue
    }

    fn load(&self) -> usize {
        self.queue.len()
    }

    fn service(&self) -> Welford {
        self.service.read()
    }
}

impl<In> WorkerSlot<In> {
    /// Joins the worker thread, unless an earlier teardown already did.
    fn join(&self) -> Option<std::thread::Result<()>> {
        self.thread.lock().take().map(JoinHandle::join)
    }
}

type FarmEngine<In, Out> = Engine<WorkerSlot<In>, Out>;

struct Shared<In, Out> {
    engine: Arc<FarmEngine<In, Out>>,
    factory: WorkerFactory<In, Out>,
    reconfig_delay: f64,
}

impl<In: Send + 'static, Out: Send + 'static> Shared<In, Out> {
    fn spawn_worker(&self) -> Arc<WorkerSlot<In>> {
        let slot = Arc::new(WorkerSlot {
            queue: WorkerQueue::new(),
            service: Arc::new(WelfordCell::new()),
            kill: AtomicBool::new(false),
            thread: Mutex::new(None),
        });
        let worker = Arc::clone(&slot);
        let factory = Arc::clone(&self.factory);
        let engine = Arc::clone(&self.engine);
        let thread = std::thread::Builder::new()
            .name(format!("{}-worker", engine.name()))
            .spawn(move || {
                let mut work = factory();
                let mut stats = LocalStats::new(Arc::clone(&worker.service));
                let mut batch: Vec<Task<In>> = Vec::with_capacity(WORKER_BATCH);
                let mut out: Vec<(u64, Out)> = Vec::with_capacity(WORKER_BATCH);
                while worker.queue.pop_batch(WORKER_BATCH, &mut batch) {
                    // Pop from the back of the reversed batch: FIFO order,
                    // with the unprocessed remainder still owned by `batch`
                    // should this thread die mid-batch.
                    batch.reverse();
                    while let Some(task) = batch.pop() {
                        if worker.kill.load(Ordering::SeqCst) {
                            // Injected fault: die abruptly, handing the
                            // current task and the remainder back intact.
                            batch.push(task);
                            batch.reverse();
                            if !out.is_empty() {
                                engine.deliver(std::mem::take(&mut out));
                            }
                            on_worker_death(&engine, &worker, batch, None);
                            return;
                        }
                        let seq = task.seq;
                        let t0 = engine.now();
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            work(task.item)
                        })) {
                            Ok(result) => {
                                stats.update(engine.now() - t0);
                                out.push((seq, result));
                            }
                            Err(payload) => {
                                // The task is poisoned; everything not yet
                                // started is recovered. Flush finished
                                // results first so nothing computed is lost.
                                if !out.is_empty() {
                                    engine.deliver(std::mem::take(&mut out));
                                }
                                engine.report_lost(seq);
                                batch.reverse();
                                let msg = panic_message(payload.as_ref());
                                on_worker_death(&engine, &worker, batch, Some(msg));
                                return;
                            }
                        }
                    }
                    if !out.is_empty() && !engine.deliver(std::mem::take(&mut out)) {
                        break; // collector gone: shutting down
                    }
                }
            })
            .expect("spawn worker thread");
        *slot.thread.lock() = Some(thread);
        slot
    }
}

/// A worker thread is dying (caught panic or observed kill flag):
/// deregister it if it is still a member — the kill path's actuator has
/// already removed it — and recover every unprocessed task it held
/// (in-flight remainder plus queued backlog).
fn on_worker_death<In, Out>(
    engine: &FarmEngine<In, Out>,
    slot: &Arc<WorkerSlot<In>>,
    leftover: Vec<Task<In>>,
    panic_msg: Option<String>,
) {
    if engine.lose(slot, leftover).0 {
        engine.record_loss(
            panic_msg
                .clone()
                .unwrap_or_else(|| "worker died".to_owned()),
        );
    }
    if let Some(msg) = panic_msg {
        engine.record_panic(msg);
    }
}

/// Substrate-side control surface the ABC binds to (object-safe so the ABC
/// is not generic over the farm's item types).
pub trait FarmControl: Send + Sync {
    /// Current sensor snapshot.
    fn sense(&self, now: Time) -> SensorSnapshot;
    /// Adds workers; returns how many were added.
    fn add_workers(&self, n: u32) -> Result<u32, String>;
    /// Removes workers; returns how many were removed.
    fn remove_workers(&self, n: u32) -> Result<u32, String>;
    /// Rebalances queues; true if any task moved.
    fn rebalance(&self) -> bool;
    /// Current parallelism degree.
    fn num_workers(&self) -> usize;
    /// Fault injection: abruptly kills workers (no cooperative
    /// retirement, no blackout). Substrates without failure semantics
    /// keep the default.
    fn kill_workers(&self, _n: u32) -> Result<u32, String> {
        Err("kill_workers unsupported by this substrate".to_owned())
    }
    /// Cumulative workers lost to faults.
    fn workers_lost(&self) -> u64 {
        0
    }
    /// Fault events recorded so far (panics, losses), in order.
    fn events(&self) -> Vec<FarmEvent> {
        Vec::new()
    }
}

impl<In: Send + 'static, Out: Send + 'static> FarmControl for Shared<In, Out> {
    fn sense(&self, now: Time) -> SensorSnapshot {
        self.engine.sense(now)
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        self.engine.add_workers(n, |n| {
            if self.reconfig_delay > 0.0 {
                // Models node recruitment + component deployment latency;
                // the manager observes `reconfiguring` and skips its
                // cycles — the paper's Fig. 4 sensor blackout.
                std::thread::sleep(std::time::Duration::from_secs_f64(self.reconfig_delay));
            }
            Ok((0..n).map(|_| self.spawn_worker()).collect())
        })
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        // Joining may block for up to one in-flight task's service time;
        // the retired slot keeps its thread for the join at shutdown.
        self.engine.remove_workers(n, |_| {})
    }

    fn rebalance(&self) -> bool {
        self.engine.rebalance()
    }

    fn num_workers(&self) -> usize {
        self.engine.num_workers()
    }

    /// Fault injection: abruptly kills `n` workers. Unlike retirement
    /// this models failure: the whole pool may die (tasks park until
    /// workers are added), the loss is counted in the `workersLost` bean,
    /// and no sensor blackout hides it from the manager.
    fn kill_workers(&self, n: u32) -> Result<u32, String> {
        let mut members = self.engine.members.lock();
        if (members.len() as u32) < n {
            return Err(format!("cannot kill {n} of {} workers", members.len()));
        }
        self.engine.detach_last(&mut members, n as usize, |slot| {
            slot.kill.store(true, Ordering::SeqCst);
            self.engine
                .record_loss("worker killed (fault injection)".to_owned());
        });
        Ok(n)
    }

    fn workers_lost(&self) -> u64 {
        self.engine.workers_lost()
    }

    fn events(&self) -> Vec<FarmEvent> {
        self.engine.events()
    }
}

/// Builder for a [`Farm`].
pub struct FarmBuilder<In, Out> {
    name: String,
    factory: WorkerFactory<In, Out>,
    initial_workers: u32,
    sched: SchedPolicy,
    gather: GatherPolicy,
    clock: Arc<dyn Clock>,
    max_workers: u32,
    reconfig_delay: f64,
    rate_window: f64,
    journal: Option<Arc<Journal>>,
}

impl<In: Send + 'static, Out: Send + 'static> FarmBuilder<In, Out> {
    /// Creates a builder over a worker factory.
    pub fn new<F, W>(factory: F) -> Self
    where
        F: Fn() -> W + Send + Sync + 'static,
        W: FnMut(In) -> Out + Send + 'static,
    {
        Self {
            name: "farm".into(),
            factory: Arc::new(move || Box::new(factory()) as Box<dyn FnMut(In) -> Out + Send>),
            initial_workers: 1,
            sched: SchedPolicy::default(),
            gather: GatherPolicy::default(),
            clock: Arc::new(RealClock::new()),
            max_workers: 1024,
            reconfig_delay: 0.0,
            rate_window: 2.0,
            journal: None,
        }
    }

    /// Convenience: a stateless worker function cloned per worker.
    pub fn from_fn<F>(f: F) -> Self
    where
        F: Fn(In) -> Out + Send + Sync + Clone + 'static,
    {
        Self::new(move || {
            let f = f.clone();
            move |x| f(x)
        })
    }

    /// Skeleton name (thread names, diagnostics).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Initial parallelism degree (≥ 1).
    pub fn initial_workers(mut self, n: u32) -> Self {
        self.initial_workers = n.max(1);
        self
    }

    /// Emitter scheduling policy.
    pub fn sched(mut self, p: SchedPolicy) -> Self {
        self.sched = p;
        self
    }

    /// Collector gathering policy.
    pub fn gather(mut self, p: GatherPolicy) -> Self {
        self.gather = p;
        self
    }

    /// Time source for metrics (tests inject a `ManualClock`).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Maximum parallelism degree the substrate will accept.
    pub fn max_workers(mut self, n: u32) -> Self {
        self.max_workers = n.max(1);
        self
    }

    /// Artificial worker-deployment delay in seconds (models recruitment
    /// latency; produces the Fig. 4 sensor blackout).
    pub fn reconfig_delay(mut self, secs: f64) -> Self {
        self.reconfig_delay = secs.max(0.0);
        self
    }

    /// Window length of the rate estimators, seconds.
    pub fn rate_window(mut self, secs: f64) -> Self {
        self.rate_window = secs;
        self
    }

    /// Attaches an ops journal: every substrate fault event is recorded
    /// into it as well as into the in-process event list.
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Builds and starts the farm.
    pub fn build(self) -> Farm<In, Out> {
        let (input_tx, input_rx) = unbounded::<StreamMsg<In>>();
        let (output_tx, output_rx) = unbounded::<StreamMsg<Out>>();
        let (engine, results_rx) = Engine::new(EngineConfig {
            name: self.name,
            clock: self.clock,
            rate_window: self.rate_window,
            max_workers: self.max_workers,
            journal: self.journal,
        });
        let shared = Arc::new(Shared {
            engine,
            factory: self.factory,
            reconfig_delay: self.reconfig_delay,
        });
        let engine = &shared.engine;
        engine.install(
            (0..self.initial_workers)
                .map(|_| shared.spawn_worker())
                .collect(),
        );
        let emitter = engine
            .spawn_emitter(input_rx, self.sched, |item| item, || {})
            .expect("spawn emitter thread");
        let collector = engine
            .spawn_collector(results_rx, output_tx, self.gather)
            .expect("spawn collector thread");
        Farm {
            input: input_tx,
            output: output_rx,
            shared,
            emitter: Some(emitter),
            collector: Some(collector),
        }
    }
}

/// A running task farm.
pub struct Farm<In, Out> {
    input: Sender<StreamMsg<In>>,
    output: Receiver<StreamMsg<Out>>,
    shared: Arc<Shared<In, Out>>,
    emitter: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
}

impl<In: Send + 'static, Out: Send + 'static> Farm<In, Out> {
    /// The input channel: send `StreamMsg::Item`s then `StreamMsg::End`.
    pub fn input(&self) -> Sender<StreamMsg<In>> {
        self.input.clone()
    }

    /// The output channel: items followed by `StreamMsg::End`.
    pub fn output(&self) -> Receiver<StreamMsg<Out>> {
        self.output.clone()
    }

    /// The control surface an ABC binds to.
    pub fn control(&self) -> Arc<dyn FarmControl> {
        Arc::clone(&self.shared) as Arc<dyn FarmControl>
    }

    /// Current parallelism degree.
    pub fn num_workers(&self) -> usize {
        self.shared.engine.num_workers()
    }

    /// Cumulative workers lost to faults.
    pub fn workers_lost(&self) -> u64 {
        self.shared.engine.workers_lost()
    }

    /// Waits for the stream to complete (End observed on the output side
    /// by the collector) and tears all threads down. The report surfaces
    /// every worker panic instead of discarding join errors.
    pub fn shutdown(mut self) -> ShutdownReport {
        let engine = Arc::clone(&self.shared.engine);
        engine.terminate();
        if let Some(e) = self.emitter.take() {
            engine.record_join("emitter", e.join());
        }
        if let Some(c) = self.collector.take() {
            engine.record_join("collector", c.join());
        }
        for slot in engine.close_all() {
            if let Some(res) = slot.join() {
                engine.record_join("worker", res);
            }
        }
        for slot in engine.retired() {
            if let Some(res) = slot.join() {
                engine.record_join("departed worker", res);
            }
        }
        engine.report(Vec::new())
    }
}

impl<In, Out> Drop for Farm<In, Out> {
    fn drop(&mut self) {
        // Best-effort shutdown: close the per-worker queues so workers
        // exit (the emitter, if still running, drops unplaceable tasks).
        // After `shutdown` every thread is already joined.
        let engine = &self.shared.engine;
        engine.terminate();
        for slot in engine.close_all() {
            if let Some(Err(payload)) = slot.join() {
                // Not silently dropped even on the best-effort path.
                eprintln!(
                    "farm {}: worker panicked: {}",
                    engine.name(),
                    panic_message(payload.as_ref())
                );
            }
        }
        for slot in engine.retired() {
            let _ = slot.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<O: Send + 'static>(rx: &Receiver<StreamMsg<O>>) -> Vec<(u64, O)> {
        let mut out = Vec::new();
        for msg in rx.iter() {
            match msg {
                StreamMsg::Item { seq, payload } => out.push((seq, payload)),
                StreamMsg::End => break,
            }
        }
        out
    }

    #[test]
    fn farm_processes_all_tasks() {
        let farm = FarmBuilder::from_fn(|x: u64| x * 2)
            .initial_workers(4)
            .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let mut results = drain(&farm.output());
        results.sort_unstable();
        assert_eq!(results.len(), 100);
        for (i, (seq, val)) in results.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*val, seq * 2);
        }
        farm.shutdown();
    }

    #[test]
    fn ordered_gather_preserves_sequence() {
        // Variable service time scrambles completion order; ordered gather
        // must still deliver 0..n in order.
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_micros((x % 7) * 300));
            x
        })
        .initial_workers(8)
        .gather(GatherPolicy::Ordered)
        .build();
        let tx = farm.input();
        for i in 0..200 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        let vals: Vec<u64> = results.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (0..200).collect::<Vec<_>>());
        farm.shutdown();
    }

    #[test]
    fn add_workers_takes_effect() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(1).build();
        assert_eq!(farm.num_workers(), 1);
        let ctl = farm.control();
        assert_eq!(ctl.add_workers(3), Ok(3));
        assert_eq!(farm.num_workers(), 4);
        // New workers actually process tasks.
        let tx = farm.input();
        for i in 0..50 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 50);
        farm.shutdown();
    }

    #[test]
    fn add_workers_respects_cap() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(2)
            .max_workers(3)
            .build();
        let ctl = farm.control();
        assert!(ctl.add_workers(2).is_err());
        assert_eq!(ctl.add_workers(1), Ok(1));
        assert_eq!(farm.num_workers(), 3);
        let tx = farm.input();
        tx.send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn remove_workers_redistributes_and_completes() {
        // Slow workers with queued work: removing one must not lose tasks.
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        let ctl = farm.control();
        // Give the emitter a moment to spread the queue.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(ctl.remove_workers(2), Ok(2));
        assert_eq!(farm.num_workers(), 2);
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 100, "no task lost");
        farm.shutdown();
    }

    #[test]
    fn cannot_remove_last_worker() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(1).build();
        assert!(farm.control().remove_workers(1).is_err());
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn rebalance_moves_queued_tasks() {
        // Block all workers on a first long task, queue everything on
        // round-robin, then skew by stuffing one queue via shortest-queue
        // impossibility — instead simply verify rebalance reports movement
        // when queues are skewed by construction.
        let farm = FarmBuilder::from_fn(|x: u64| {
            if x == u64::MAX {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            x
        })
        .initial_workers(2)
        .sched(SchedPolicy::RoundRobin)
        .build();
        let tx = farm.input();
        // Two blockers occupy both workers...
        tx.send(StreamMsg::item(0, u64::MAX)).unwrap();
        tx.send(StreamMsg::item(1, u64::MAX)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        // ...then add a third worker and queue more tasks round-robin over
        // all three; the new worker drains its share instantly while the
        // blocked two accumulate — skew guaranteed.
        let ctl = farm.control();
        ctl.add_workers(1).unwrap();
        for i in 2..30 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        let snap = ctl.sense(0.0);
        if snap.queue_variance > 0.0 {
            assert!(ctl.rebalance(), "skewed queues should rebalance");
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 30);
        farm.shutdown();
    }

    #[test]
    fn rebalance_on_balanced_queues_is_noop() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(3).build();
        assert!(!farm.control().rebalance());
        farm.input().send(StreamMsg::End).unwrap();
        farm.shutdown();
    }

    #[test]
    fn sense_reports_structure_and_flags() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(3).build();
        let ctl = farm.control();
        let snap = ctl.sense(0.0);
        assert_eq!(snap.num_workers, 3);
        assert!(!snap.end_of_stream);
        let tx = farm.input();
        tx.send(StreamMsg::End).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let snap = ctl.sense(1.0);
        assert!(snap.end_of_stream);
        farm.shutdown();
    }

    #[test]
    fn throughput_sensing_sees_departures() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(2)
            .rate_window(5.0)
            .build();
        let tx = farm.input();
        for i in 0..200 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results.len(), 200);
        // The farm's RealClock started at build time, so all departures
        // were recorded well inside the 5 s window ending "now" ~= 0+.
        let snap = farm.control().sense(0.1);
        assert!(snap.departure_rate > 0.0, "departures recorded");
        farm.shutdown();
    }

    #[test]
    fn service_time_sensing_merges_worker_cells() {
        // Workers sleep ~2 ms per task; the merged service-time statistic
        // must land in that vicinity and count every task.
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            x
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..40 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 40);
        let snap = farm.control().sense(0.0);
        assert!(
            snap.service_time >= 0.001,
            "merged mean service time reflects the sleep, got {}",
            snap.service_time
        );
        farm.shutdown();
    }

    #[test]
    fn shortest_queue_policy_runs() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(3)
            .sched(SchedPolicy::ShortestQueue)
            .build();
        let tx = farm.input();
        for i in 0..60 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 60);
        farm.shutdown();
    }

    #[test]
    fn stateful_workers_keep_per_worker_state() {
        // Each worker counts its own tasks; totals must equal the stream
        // length (factory state is per worker-thread, no sharing).
        let farm = FarmBuilder::new(|| {
            let mut count = 0u64;
            move |_: u64| {
                count += 1;
                count
            }
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        assert_eq!(results.len(), 100);
        // Max per-worker counter can't exceed the stream length and the
        // sum of the final counters equals 100; spot-check bounds.
        assert!(results.iter().all(|(_, c)| *c >= 1 && *c <= 100));
        farm.shutdown();
    }

    #[test]
    fn empty_stream_completes() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(2).build();
        farm.input().send(StreamMsg::End).unwrap();
        assert!(drain(&farm.output()).is_empty());
        farm.shutdown();
    }

    #[test]
    fn panicking_worker_does_not_hang_the_farm() {
        // The headline bug: one poisoned task used to strand its batch and
        // the End accounting never converged. Every non-poisoned task must
        // still be delivered and the stream must End.
        let farm = FarmBuilder::from_fn(|x: u64| {
            assert!(x != 13, "poisoned task");
            x * 2
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..100 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let mut vals: Vec<u64> = drain(&farm.output()).into_iter().map(|(_, v)| v).collect();
        vals.sort_unstable();
        let want: Vec<u64> = (0..100).filter(|&x| x != 13).map(|x| x * 2).collect();
        assert_eq!(vals, want, "every non-poisoned task delivered");
        // The dying worker deregisters itself on its own thread; give it
        // a moment if End raced ahead of its bookkeeping.
        for _ in 0..500 {
            if farm.workers_lost() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(farm.workers_lost(), 1);
        assert_eq!(farm.num_workers(), 3, "the panicked worker left the pool");
        let report = farm.shutdown();
        assert!(!report.is_clean());
        assert_eq!(report.worker_panics.len(), 1);
        assert!(report.worker_panics[0].contains("poisoned task"));
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == FarmEventKind::WorkerPanic));
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == FarmEventKind::WorkerLost));
    }

    #[test]
    fn panicking_worker_ordered_gather_skips_the_hole() {
        // Ordered gather must step over the poisoned sequence number and
        // keep the output densely renumbered.
        let farm = FarmBuilder::from_fn(|x: u64| {
            assert!(x != 7, "poisoned task");
            x
        })
        .initial_workers(4)
        .gather(GatherPolicy::Ordered)
        .build();
        let tx = farm.input();
        for i in 0..50 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        tx.send(StreamMsg::End).unwrap();
        let results = drain(&farm.output());
        let want_vals: Vec<u64> = (0..50).filter(|&x| x != 7).collect();
        let vals: Vec<u64> = results.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, want_vals, "order preserved around the hole");
        let seqs: Vec<u64> = results.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..49).collect::<Vec<_>>(), "dense renumbering");
        farm.shutdown();
    }

    #[test]
    fn kill_workers_recovers_backlog_and_counts_losses() {
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x
        })
        .initial_workers(4)
        .build();
        let tx = farm.input();
        for i in 0..200 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        // Let queues build up, then kill half the pool abruptly.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let ctl = farm.control();
        assert_eq!(ctl.kill_workers(2), Ok(2));
        assert_eq!(farm.num_workers(), 2);
        assert_eq!(ctl.workers_lost(), 2);
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 200, "no task lost");
        let lost = ctl
            .events()
            .iter()
            .filter(|e| e.kind == FarmEventKind::WorkerLost)
            .count();
        assert_eq!(lost, 2);
        let report = farm.shutdown();
        assert_eq!(report.workers_lost, 2);
        assert!(report.worker_panics.is_empty(), "kills are not panics");
    }

    #[test]
    fn kill_all_workers_parks_tasks_until_pool_restored() {
        let farm = FarmBuilder::from_fn(|x: u64| {
            std::thread::sleep(std::time::Duration::from_micros(500));
            x
        })
        .initial_workers(2)
        .build();
        let tx = farm.input();
        for i in 0..50 {
            tx.send(StreamMsg::item(i, i)).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ctl = farm.control();
        assert_eq!(ctl.kill_workers(2), Ok(2));
        assert_eq!(farm.num_workers(), 0, "whole pool dead");
        // Undispatched tasks park; restoring capacity resumes them.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(ctl.add_workers(2), Ok(2));
        tx.send(StreamMsg::End).unwrap();
        assert_eq!(drain(&farm.output()).len(), 50, "parked tasks resumed");
        assert_eq!(farm.workers_lost(), 2);
        farm.shutdown();
    }

    #[test]
    fn kill_more_than_pool_is_an_error() {
        let farm = FarmBuilder::from_fn(|x: u64| x).initial_workers(2).build();
        assert!(farm.control().kill_workers(3).is_err());
        farm.input().send(StreamMsg::End).unwrap();
        let report = farm.shutdown();
        assert!(report.is_clean());
    }

    #[test]
    fn removal_mid_stream_with_slow_emitter_loses_nothing() {
        // Interleave sends with removals so the emitter's cached table
        // goes stale repeatedly; the bounce-and-redispatch path must keep
        // the stream complete.
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(6)
            .gather(GatherPolicy::Ordered)
            .build();
        let ctl = farm.control();
        let tx = farm.input();
        for i in 0..300 {
            tx.send(StreamMsg::item(i, i)).unwrap();
            if i == 100 {
                ctl.remove_workers(2).unwrap();
            }
            if i == 200 {
                ctl.remove_workers(2).unwrap();
            }
        }
        tx.send(StreamMsg::End).unwrap();
        let vals: Vec<u64> = drain(&farm.output()).into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, (0..300).collect::<Vec<_>>());
        assert_eq!(farm.num_workers(), 2);
        farm.shutdown();
    }
}
