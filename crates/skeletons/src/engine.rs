//! The farm engine: functional replication (paper Fig. 2) independent of
//! where the workers run.
//!
//! An emitter dispatches batched tasks over per-slot [`WorkerQueue`]s
//! read through an RCU-published table ([`crate::rcu`]), a collector
//! gathers results (restoring stream order on request), and the
//! reconfiguration actuators add, retire and rebalance slots under one
//! membership lock. The threaded farm ([`crate::farm`]) backs each slot
//! with a worker thread; the distributed pool (`bskel-net`) backs it with
//! a daemon connection. Both run this code, so the loss-free
//! reconfiguration protocol is stated once:
//!
//! * a departing slot is unpublished *before* its queue closes, and a
//!   closed queue hands pushed batches back ([`crate::queue`]), so an
//!   emitter caught with a stale table observes a newer generation and
//!   re-dispatches onto the survivors;
//! * tasks with nowhere to go park until capacity returns or, once the
//!   engine is poisoned, are reported lost;
//! * the collector ends the output stream once every dispatched task is
//!   accounted for, delivered or lost. Only delivered results count as
//!   departures (the `departureRate` bean).
//!
//! The task path is monomorphised over the [`Slot`] type and takes no
//! lock per task: a batch costs one atomic table read and one queue lock
//! per slot it lands on.

use crate::farm::{FarmEvent, FarmEventKind, GatherPolicy, SchedPolicy, ShutdownReport};
use crate::queue::{Task, WorkerQueue};
use crate::rcu::{Published, ReadHandle};
use crate::stream::{ReorderBuffer, StreamMsg};
use bskel_monitor::{
    queue_variance, AtomicRateEstimator, Clock, Journal, SensorSnapshot, Time, Welford,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Most inputs the emitter drains (and thus dispatches) per wake-up.
const DISPATCH_BATCH: usize = 32;

/// The dispatchable face of one worker, whatever runs it.
pub trait Slot {
    /// What the worker consumes.
    type Item;
    /// The queue the emitter dispatches into.
    fn queue(&self) -> &WorkerQueue<Self::Item>;
    /// Outstanding work: what `ShortestQueue` and `queueVariance` compare.
    fn load(&self) -> usize;
    /// The worker's cumulative service-time statistic.
    fn service(&self) -> Welford;
}

/// What workers hand the collector.
#[derive(Debug)]
pub enum CollectMsg<Out> {
    /// Results of one worker wake-up (or one socket read).
    Batch(Vec<(u64, Out)>),
    /// A poisoned task: no result will ever exist. It is accounted for so
    /// the End accounting still converges.
    Lost(u64),
    /// The emitter saw `End` after dispatching this many tasks.
    Total(u64),
}

/// Settings every substrate's builder passes through.
pub struct EngineConfig {
    /// Name for threads, the journal and diagnostics.
    pub name: String,
    /// Time source of every sensor.
    pub clock: Arc<dyn Clock>,
    /// Window of the rate estimators and of the post-reconfiguration
    /// blackout, seconds.
    pub rate_window: f64,
    /// Most members `add_workers` accepts.
    pub max_workers: u32,
    /// Ops journal fault events mirror into.
    pub journal: Option<Arc<Journal>>,
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_owned()
    }
}

/// The shared emitter/collector/reconfiguration machinery over slots `S`,
/// gathering results of type `Out`.
pub struct Engine<S: Slot, Out> {
    name: String,
    clock: Arc<dyn Clock>,
    arrivals: AtomicRateEstimator,
    /// Shared with the collector thread, which holds no engine reference.
    departures: Arc<AtomicRateEstimator>,
    last_arrival_bits: AtomicU64, // f64 time bits
    end_of_stream: AtomicBool,
    reconfiguring: AtomicBool,
    /// Sensors stay blacked out until this time (f64 bits): after a
    /// reconfiguration the rate estimators hold no full window of fresh
    /// data, and acting on them would make the manager oscillate (add a
    /// worker, read a stale/empty window, add again, …).
    blackout_until_bits: AtomicU64,
    /// Cumulative members lost to faults — the `workersLost` bean.
    workers_lost: AtomicU64,
    /// The dispatch table: reconfigurations replace it wholesale, the
    /// emitter reads it wait-free via a cached handle.
    table: Arc<Published<Vec<Arc<S>>>>,
    /// Membership and the reconfiguration serialisation point. Never
    /// touched by the task path.
    pub(crate) members: Mutex<Vec<Arc<S>>>,
    /// Departed slots: their service samples keep counting toward the
    /// pool-level statistic.
    retired: Mutex<Vec<Arc<S>>>,
    /// Tasks stranded while no member exists; drained by the next
    /// `add_workers`.
    parked: Mutex<Vec<Task<S::Item>>>,
    /// Set at teardown: dispatch stops parking undeliverable tasks.
    terminating: AtomicBool,
    /// Set when capacity can never return: stranded tasks are reported
    /// lost instead of parked forever.
    poisoned: AtomicBool,
    rr_cursor: AtomicUsize,
    results: Sender<CollectMsg<Out>>,
    /// Task seqs whose loss notification could not be delivered (the
    /// collector had already exited).
    lost_undelivered: Mutex<Vec<u64>>,
    events: Mutex<Vec<FarmEvent>>,
    panics: Mutex<Vec<String>>,
    journal: Option<Arc<Journal>>,
    max_workers: u32,
    rate_window: f64,
}

impl<S: Slot, Out> Engine<S, Out> {
    /// An engine with no members, and the receiving end its collector
    /// consumes.
    pub fn new(cfg: EngineConfig) -> (Arc<Self>, Receiver<CollectMsg<Out>>) {
        let (results, results_rx) = unbounded();
        let engine = Arc::new(Self {
            name: cfg.name,
            clock: cfg.clock,
            arrivals: AtomicRateEstimator::new(cfg.rate_window),
            departures: Arc::new(AtomicRateEstimator::new(cfg.rate_window)),
            last_arrival_bits: AtomicU64::new(0),
            end_of_stream: AtomicBool::new(false),
            reconfiguring: AtomicBool::new(false),
            blackout_until_bits: AtomicU64::new(0),
            workers_lost: AtomicU64::new(0),
            table: Arc::new(Published::new(Vec::new())),
            members: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            parked: Mutex::new(Vec::new()),
            terminating: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            rr_cursor: AtomicUsize::new(0),
            results,
            lost_undelivered: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            panics: Mutex::new(Vec::new()),
            journal: cfg.journal,
            max_workers: cfg.max_workers,
            rate_window: cfg.rate_window,
        });
        (engine, results_rx)
    }

    /// The engine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current clock time.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// The currently published slots.
    pub fn table(&self) -> Arc<Vec<Arc<S>>> {
        self.table.load()
    }

    /// Current parallelism degree.
    pub fn num_workers(&self) -> usize {
        self.table.load().len()
    }

    /// Cumulative members lost to faults.
    pub fn workers_lost(&self) -> u64 {
        self.workers_lost.load(Ordering::SeqCst)
    }

    /// Fault events recorded so far, in order.
    pub fn events(&self) -> Vec<FarmEvent> {
        self.events.lock().clone()
    }

    // -- fault log -----------------------------------------------------

    /// Appends a fault event, mirroring it into the ops journal.
    fn record(&self, kind: FarmEventKind, detail: String) {
        let at = self.now();
        if let Some(j) = &self.journal {
            j.farm_event(at, &self.name, kind.label(), &detail);
        }
        self.events.lock().push(FarmEvent { at, kind, detail });
    }

    /// Records a panic: a [`FarmEventKind::WorkerPanic`] event plus an
    /// entry in the shutdown report.
    pub fn record_panic(&self, msg: String) {
        self.record(FarmEventKind::WorkerPanic, msg.clone());
        self.panics.lock().push(msg);
    }

    /// Counts one member lost to a fault and records why.
    pub fn record_loss(&self, detail: String) {
        self.workers_lost.fetch_add(1, Ordering::SeqCst);
        self.record(FarmEventKind::WorkerLost, detail);
    }

    fn journal_note(&self, text: &str) {
        if let Some(j) = &self.journal {
            j.note(self.now(), &self.name, text);
        }
    }

    /// Records a thread's join outcome: an `Err` is an uncaught panic.
    pub fn record_join(&self, who: &str, res: std::thread::Result<()>) {
        if let Err(payload) = res {
            self.record_panic(format!("{who}: {}", panic_message(payload.as_ref())));
        }
    }

    // -- results and loss ----------------------------------------------

    /// Hands a batch of results to the collector; false once it exited.
    pub fn deliver(&self, batch: Vec<(u64, Out)>) -> bool {
        self.results.send(CollectMsg::Batch(batch)).is_ok()
    }

    /// Reports a task as lost downstream. When the collector has already
    /// exited, the seq is kept for the shutdown report (and journaled)
    /// instead of being silently discarded.
    pub fn report_lost(&self, seq: u64) {
        if self.results.send(CollectMsg::Lost(seq)).is_err() {
            self.lost_undelivered.lock().push(seq);
            self.journal_note(&format!(
                "lost notification for task {seq} undeliverable: collector exited"
            ));
        }
    }

    /// Escalates an irrecoverable substrate failure: records `reason` as
    /// a panic and journal note, then reports every parked task — and
    /// every task parked from now on — lost, so the output stream still
    /// terminates.
    pub fn poison(&self, reason: String) {
        self.journal_note(&reason);
        self.panics.lock().push(reason);
        // Flip the flag inside the parked lock `park` serialises on: a
        // concurrent park either lands before the drain (caught here) or
        // observes the flag and reports the loss itself.
        let stranded = {
            let mut parked = self.parked.lock();
            self.poisoned.store(true, Ordering::SeqCst);
            std::mem::take(&mut *parked)
        };
        for t in stranded {
            self.report_lost(t.seq);
        }
    }

    fn park(&self, tasks: &mut Vec<Task<S::Item>>) {
        let mut parked = self.parked.lock();
        if self.poisoned.load(Ordering::SeqCst) {
            drop(parked);
            for t in tasks.drain(..) {
                self.report_lost(t.seq);
            }
        } else {
            parked.append(tasks);
        }
    }

    // -- dispatch --------------------------------------------------------

    /// Dispatches one drained input batch over the current table,
    /// re-reading the table and re-dispatching any batch bounced off a
    /// queue that closed under a stale one.
    fn dispatch(
        &self,
        reader: &mut ReadHandle<Vec<Arc<S>>>,
        sched: SchedPolicy,
        items: &mut Vec<Task<S::Item>>,
    ) {
        while !items.is_empty() {
            let generation = self.table.generation();
            let table = Arc::clone(reader.get());
            if !self.dispatch_round(&table, generation, sched, items) {
                return;
            }
        }
    }

    /// One dispatch attempt over `table`, read at `generation`. Returns
    /// true when `items` holds tasks to re-dispatch over a newer table.
    fn dispatch_round(
        &self,
        table: &[Arc<S>],
        generation: u64,
        sched: SchedPolicy,
        items: &mut Vec<Task<S::Item>>,
    ) -> bool {
        if table.is_empty() {
            if self.terminating.load(Ordering::SeqCst) {
                // Tearing down; parity with dropping a running farm.
                items.clear();
                return false;
            }
            // Every member died: park the batch for the next
            // `add_workers` instead of losing it.
            self.park(items);
            if self.table.generation() == generation {
                return false;
            }
            // A new table appeared while we parked — reclaim so the items
            // are not stranded until a later `add_workers`.
            items.append(&mut self.parked.lock());
            return true;
        }
        let n = table.len();
        let mut per: Vec<Vec<Task<S::Item>>> = (0..n).map(|_| Vec::new()).collect();
        match sched {
            SchedPolicy::RoundRobin => {
                for task in items.drain(..) {
                    let i = self.rr_cursor.fetch_add(1, Ordering::Relaxed) % n;
                    per[i].push(task);
                }
            }
            SchedPolicy::ShortestQueue => {
                // One load snapshot per batch, tracked through the batch's
                // own assignments.
                let mut loads: Vec<usize> = table.iter().map(|s| s.load()).collect();
                for task in items.drain(..) {
                    let i = (0..n).min_by_key(|&i| loads[i]).expect("non-empty");
                    loads[i] += 1;
                    per[i].push(task);
                }
            }
        }
        for (slot, chunk) in table.iter().zip(per.iter_mut()) {
            if !slot.queue().push_batch(chunk) {
                // Closed under us: hand back for re-dispatch.
                items.append(chunk);
            }
        }
        if items.is_empty() {
            return false;
        }
        if self.table.generation() == generation {
            // A queue closed with no newer table published — only
            // shutdown does that. Nobody will collect these.
            items.clear();
            return false;
        }
        true
    }

    // -- membership ------------------------------------------------------

    fn publish(&self, members: &[Arc<S>]) {
        self.table.publish(members.to_vec());
    }

    /// Adds the initial members (no reconfiguration accounting).
    pub fn install(&self, fresh: Vec<Arc<S>>) {
        let mut members = self.members.lock();
        members.extend(fresh);
        self.publish(&members);
    }

    /// Re-dispatches recovered tasks round-robin onto `survivors`, or
    /// parks them when none exists. Caller holds the membership lock.
    fn recover_onto(&self, survivors: &[Arc<S>], mut tasks: Vec<Task<S::Item>>) {
        if tasks.is_empty() {
            return;
        }
        if survivors.is_empty() {
            if !self.terminating.load(Ordering::SeqCst) {
                self.park(&mut tasks);
            }
            return;
        }
        let n = survivors.len();
        let share = tasks.len() / n + 1;
        let mut per: Vec<Vec<Task<S::Item>>> = (0..n).map(|_| Vec::with_capacity(share)).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            per[i % n].push(task);
        }
        for (slot, mut chunk) in survivors.iter().zip(per) {
            let accepted = slot.queue().push_batch(&mut chunk);
            debug_assert!(accepted, "member queues are open under the membership lock");
        }
    }

    /// Re-dispatches tasks round-robin onto the current members, or parks
    /// them when none exists.
    pub fn recover(&self, tasks: Vec<Task<S::Item>>) {
        let members = self.members.lock();
        self.recover_onto(&members, tasks);
    }

    /// Restarts the output-rate window and blacks the sensors out for one
    /// window: stale pre-reconfiguration windows would bias the next
    /// readings.
    fn settle(&self) {
        let now = self.now();
        self.departures.reset(now);
        self.blackout_until_bits
            .store((now + self.rate_window).to_bits(), Ordering::SeqCst);
    }

    /// The ADD_WORKER actuator. `grow` creates up to `n` members (it runs
    /// outside the membership lock, under the `reconfiguring` flag); they
    /// are published, and tasks parked by a total-failure episode resume
    /// on them.
    pub fn add_workers(
        &self,
        n: u32,
        grow: impl FnOnce(u32) -> Result<Vec<Arc<S>>, String>,
    ) -> Result<u32, String> {
        let current = self.members.lock().len() as u32;
        if current.saturating_add(n) > self.max_workers {
            return Err(format!(
                "worker limit reached ({current}+{n} > {})",
                self.max_workers
            ));
        }
        self.reconfiguring.store(true, Ordering::SeqCst);
        let fresh = match grow(n) {
            Ok(fresh) => fresh,
            Err(e) => {
                self.reconfiguring.store(false, Ordering::SeqCst);
                return Err(e);
            }
        };
        let added = fresh.len() as u32;
        let mut members = self.members.lock();
        members.extend(fresh);
        self.publish(&members);
        let parked = std::mem::take(&mut *self.parked.lock());
        self.recover_onto(&members, parked);
        drop(members);
        self.settle();
        self.reconfiguring.store(false, Ordering::SeqCst);
        Ok(added)
    }

    /// The REMOVE_WORKER actuator: retires the `n` newest members (at
    /// least one must remain) and moves their queued backlog to the
    /// survivors. `depart` sees each victim before its queue closes.
    pub fn remove_workers(&self, n: u32, depart: impl FnMut(&S)) -> Result<u32, String> {
        let mut members = self.members.lock();
        if members.len() as u32 <= n {
            return Err(format!(
                "cannot remove {n} of {} workers (at least one must remain)",
                members.len()
            ));
        }
        self.detach_last(&mut members, n as usize, depart);
        drop(members);
        self.settle();
        Ok(n)
    }

    /// Detaches the `n` newest members: publishes the shrunken table
    /// *before* closing any victim queue (an emitter whose push then
    /// bounces is guaranteed to observe a newer generation), hands each
    /// victim to `depart`, retires its slot and recovers its backlog.
    /// Caller holds the membership lock (`members` is its contents).
    pub(crate) fn detach_last(
        &self,
        members: &mut Vec<Arc<S>>,
        n: usize,
        mut depart: impl FnMut(&S),
    ) {
        let victims = members.split_off(members.len() - n);
        self.publish(members);
        let mut backlog = Vec::new();
        for victim in victims {
            depart(&victim);
            backlog.extend(victim.queue().close());
            self.retired.lock().push(victim);
        }
        self.recover_onto(members, backlog);
    }

    /// The failure path: if `slot` is still a member, unpublishes it
    /// before its queue closes and retires it; then `leftover` plus the
    /// slot's staged backlog is recovered onto the survivors. Returns
    /// whether it was still a member (an actuator may have removed it
    /// already) and how many tasks were recovered.
    pub fn lose(&self, slot: &Arc<S>, mut leftover: Vec<Task<S::Item>>) -> (bool, usize) {
        let mut members = self.members.lock();
        let pos = members.iter().position(|m| Arc::ptr_eq(m, slot));
        if let Some(pos) = pos {
            let departed = members.remove(pos);
            self.publish(&members);
            self.retired.lock().push(departed);
        }
        leftover.extend(slot.queue().close());
        let recovered = leftover.len();
        self.recover_onto(&members, leftover);
        (pos.is_some(), recovered)
    }

    /// The BALANCE_LOAD actuator: evens the queue lengths; true if any
    /// task moved. Only queued tasks move (tasks keep their sequence
    /// tags, so ordered gathering is unaffected).
    pub fn rebalance(&self) -> bool {
        let members = self.members.lock();
        let lens = members.iter().map(|m| m.queue().len());
        let (Some(min), Some(max)) = (lens.clone().min(), lens.max()) else {
            return false;
        };
        if max - min <= 1 {
            return false;
        }
        let all: Vec<Task<S::Item>> = members
            .iter()
            .flat_map(|m| m.queue().drain_open())
            .collect();
        let moved = !all.is_empty();
        self.recover_onto(&members, all);
        moved
    }

    /// The sensors both substrates share: rates, structure, queue
    /// variance over the slots' loads, the merged service statistic and
    /// the stream/fault/reconfiguration flags.
    pub fn sense(&self, now: Time) -> SensorSnapshot {
        let table = self.table.load();
        let loads: Vec<u64> = table.iter().map(|s| s.load() as u64).collect();
        let mut snap = SensorSnapshot::empty(now);
        snap.arrival_rate = self.arrivals.rate(now);
        snap.departure_rate = self.departures.rate(now);
        snap.num_workers = loads.len() as u32;
        snap.queue_variance = queue_variance(&loads);
        snap.queued_tasks = loads.iter().sum();
        // The snapshot-time fold of per-slot statistics (plus departed
        // slots') that lets the per-task path stay lock-free.
        let mut service = Welford::new();
        let retired = self.retired.lock();
        for slot in table.iter().chain(retired.iter()) {
            service.merge(&slot.service());
        }
        drop(retired);
        snap.service_time = service.mean();
        snap.end_of_stream = self.end_of_stream.load(Ordering::SeqCst);
        snap.workers_lost = self.workers_lost();
        snap.reconfiguring = self.reconfiguring.load(Ordering::SeqCst)
            || now < f64::from_bits(self.blackout_until_bits.load(Ordering::SeqCst));
        let bits = self.last_arrival_bits.load(Ordering::Relaxed);
        if bits != 0 {
            snap.idle_for = (now - f64::from_bits(bits)).max(0.0);
        }
        snap
    }

    // -- teardown ----------------------------------------------------------

    /// Marks teardown: from now on undeliverable tasks are dropped, not
    /// parked.
    pub fn terminate(&self) {
        self.terminating.store(true, Ordering::SeqCst);
    }

    /// True once [`terminate`](Self::terminate) ran.
    pub fn is_terminating(&self) -> bool {
        self.terminating.load(Ordering::SeqCst)
    }

    /// Takes every member, closes its queue and publishes an empty table.
    pub fn close_all(&self) -> Vec<Arc<S>> {
        let members = std::mem::take(&mut *self.members.lock());
        for m in &members {
            m.queue().close();
        }
        self.table.publish(Vec::new());
        members
    }

    /// Every slot that left the table (retired, killed or lost).
    pub fn retired(&self) -> Vec<Arc<S>> {
        self.retired.lock().clone()
    }

    /// The shutdown report: panics, losses, events and undeliverable loss
    /// notifications, plus the substrate's `disconnects`.
    pub fn report(&self, disconnects: Vec<String>) -> ShutdownReport {
        let mut lost_undelivered = std::mem::take(&mut *self.lost_undelivered.lock());
        lost_undelivered.sort_unstable();
        ShutdownReport {
            worker_panics: std::mem::take(&mut *self.panics.lock()),
            workers_lost: self.workers_lost(),
            events: std::mem::take(&mut *self.events.lock()),
            disconnects,
            lost_undelivered,
        }
    }
}

/// The emitter and collector threads.
impl<S, Out> Engine<S, Out>
where
    S: Slot + Send + Sync + 'static,
    S::Item: Send + 'static,
    Out: Send + 'static,
{
    /// Starts the emitter: drains `input` in batches, maps each item with
    /// `map`, dispatches over the table and then calls `after_dispatch`.
    pub fn spawn_emitter<In: Send + 'static>(
        self: &Arc<Self>,
        input: Receiver<StreamMsg<In>>,
        sched: SchedPolicy,
        mut map: impl FnMut(In) -> S::Item + Send + 'static,
        mut after_dispatch: impl FnMut() + Send + 'static,
    ) -> std::io::Result<JoinHandle<()>> {
        let engine = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("{}-emitter", self.name))
            .spawn(move || {
                let mut reader = ReadHandle::new(Arc::clone(&engine.table));
                let mut dispatched = 0u64;
                let mut batch: Vec<Task<S::Item>> = Vec::with_capacity(DISPATCH_BATCH);
                loop {
                    // Block for the first message, then opportunistically
                    // drain the channel up to the batch bound.
                    let mut end = false;
                    match input.recv() {
                        Ok(StreamMsg::Item { seq, payload }) => batch.push(Task {
                            seq,
                            item: map(payload),
                        }),
                        Ok(StreamMsg::End) => end = true,
                        Err(_) => return, // all senders gone
                    }
                    while !end && batch.len() < DISPATCH_BATCH {
                        match input.try_recv() {
                            Ok(StreamMsg::Item { seq, payload }) => batch.push(Task {
                                seq,
                                item: map(payload),
                            }),
                            Ok(StreamMsg::End) => end = true,
                            Err(_) => break,
                        }
                    }
                    if !batch.is_empty() {
                        let now = engine.now();
                        engine.arrivals.record_n(now, batch.len() as u64);
                        engine
                            .last_arrival_bits
                            .store(now.to_bits(), Ordering::Relaxed);
                        dispatched += batch.len() as u64;
                        engine.dispatch(&mut reader, sched, &mut batch);
                        after_dispatch();
                    }
                    if end {
                        engine.end_of_stream.store(true, Ordering::SeqCst);
                        let _ = engine.results.send(CollectMsg::Total(dispatched));
                        return;
                    }
                }
            })
    }

    /// Starts the collector: gathers result batches into `output` and
    /// ends the stream once every dispatched task is delivered or lost.
    /// Departures are recorded here, for delivered results only.
    pub fn spawn_collector(
        &self,
        results: Receiver<CollectMsg<Out>>,
        output: Sender<StreamMsg<Out>>,
        gather: GatherPolicy,
    ) -> std::io::Result<JoinHandle<()>> {
        let clock = Arc::clone(&self.clock);
        let departures = Arc::clone(&self.departures);
        std::thread::Builder::new()
            .name(format!("{}-collector", self.name))
            .spawn(move || {
                let mut reorder = ReorderBuffer::new();
                let mut done = 0u64;
                // Dense output renumbering under ordered gather: an
                // explicit counter (not `reorder.next_seq()`) so a
                // poisoned task's skipped hole leaves no gap.
                let mut emitted = 0u64;
                let mut expected: Option<u64> = None;
                for msg in results.iter() {
                    match msg {
                        CollectMsg::Batch(batch) => {
                            departures.record_n(clock.now(), batch.len() as u64);
                            done += batch.len() as u64;
                            for (seq, out) in batch {
                                match gather {
                                    GatherPolicy::Unordered => {
                                        let _ = output.send(StreamMsg::item(seq, out));
                                    }
                                    GatherPolicy::Ordered => {
                                        for item in reorder.push(seq, out) {
                                            let _ = output.send(StreamMsg::item(emitted, item));
                                            emitted += 1;
                                        }
                                    }
                                }
                            }
                        }
                        CollectMsg::Lost(seq) => {
                            // Account for the hole so the End check
                            // converges, and step the reorder front over it.
                            done += 1;
                            if gather == GatherPolicy::Ordered {
                                for item in reorder.skip(seq) {
                                    let _ = output.send(StreamMsg::item(emitted, item));
                                    emitted += 1;
                                }
                            }
                        }
                        CollectMsg::Total(n) => expected = Some(n),
                    }
                    if expected == Some(done) {
                        let _ = output.send(StreamMsg::End);
                        break;
                    }
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskel_monitor::ManualClock;

    /// An in-memory slot whose load is set by the test, independently of
    /// its queue length (like a remote slot's backlog).
    struct MemSlot {
        queue: WorkerQueue<u64>,
        load: AtomicUsize,
    }

    impl Slot for MemSlot {
        type Item = u64;
        fn queue(&self) -> &WorkerQueue<u64> {
            &self.queue
        }
        fn load(&self) -> usize {
            self.load.load(Ordering::Relaxed)
        }
        fn service(&self) -> Welford {
            Welford::new()
        }
    }

    type MemEngine = Engine<MemSlot, u64>;

    fn engine() -> (Arc<MemEngine>, Receiver<CollectMsg<u64>>) {
        Engine::new(EngineConfig {
            name: "mem".into(),
            clock: Arc::new(ManualClock::new()),
            rate_window: 1.0,
            max_workers: 8,
            journal: None,
        })
    }

    fn member(load: usize) -> Arc<MemSlot> {
        Arc::new(MemSlot {
            queue: WorkerQueue::new(),
            load: AtomicUsize::new(load),
        })
    }

    fn tasks(range: std::ops::Range<u64>) -> Vec<Task<u64>> {
        range.map(|i| Task { seq: i, item: i }).collect()
    }

    fn queued(slot: &MemSlot) -> Vec<u64> {
        slot.queue.drain_open().iter().map(|t| t.seq).collect()
    }

    fn reader(e: &MemEngine) -> ReadHandle<Vec<Arc<MemSlot>>> {
        ReadHandle::new(Arc::clone(&e.table))
    }

    #[test]
    fn empty_table_parks_and_reclaims_on_concurrent_publish() {
        let (e, _rx) = engine();
        let mut batch = tasks(0..3);
        e.dispatch(&mut reader(&e), SchedPolicy::RoundRobin, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(e.parked.lock().len(), 3, "parked, not lost");
        // A table published between the empty read and the park: the
        // round hands the batch (and everything parked) back for another.
        let stale = e.table();
        let generation = e.table.generation();
        e.install(vec![member(0)]);
        let mut batch = tasks(3..5);
        assert!(e.dispatch_round(&stale, generation, SchedPolicy::RoundRobin, &mut batch));
        assert_eq!(batch.len(), 5, "the batch and the earlier parked tasks");
        assert!(e.parked.lock().is_empty());
        e.dispatch(&mut reader(&e), SchedPolicy::RoundRobin, &mut batch);
        assert_eq!(queued(&e.table()[0]), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn bounced_push_redispatches_after_a_generation_bump_only() {
        let (e, _rx) = engine();
        e.install(vec![member(0), member(0)]);
        let stale = e.table();
        let generation = e.table.generation();
        // remove_workers publishes the shrunken table, then closes.
        e.remove_workers(1, |_| {}).unwrap();
        let mut batch = tasks(0..4);
        assert!(e.dispatch_round(&stale, generation, SchedPolicy::RoundRobin, &mut batch));
        assert_eq!(batch.len(), 2, "the closed slot's share bounced back");
        e.dispatch(&mut reader(&e), SchedPolicy::RoundRobin, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(e.table()[0].queue.len(), 4, "all on the survivor");
        // A queue closed with no newer table (shutdown): nobody will
        // collect, so the bounced share is cleared, not retried.
        let generation = e.table.generation();
        e.table()[0].queue.close();
        let mut batch = tasks(4..6);
        assert!(!e.dispatch_round(&e.table(), generation, SchedPolicy::RoundRobin, &mut batch));
        assert!(batch.is_empty());
    }

    #[test]
    fn shortest_queue_picks_by_load_not_queue_length() {
        let (e, _rx) = engine();
        e.install(vec![member(10), member(0)]);
        let table = e.table();
        let mut head = tasks(0..3);
        assert!(
            table[1].queue.push_batch(&mut head),
            "longer queue, lower load"
        );
        let mut batch = tasks(3..8);
        e.dispatch(&mut reader(&e), SchedPolicy::ShortestQueue, &mut batch);
        assert!(table[0].queue.is_empty());
        assert_eq!(queued(&table[1]), [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn rebalance_evens_queues_unless_within_one() {
        let (e, _rx) = engine();
        e.install(vec![member(0), member(0)]);
        let table = e.table();
        let mut skew = tasks(0..6);
        table[0].queue.push_batch(&mut skew);
        assert!(e.rebalance());
        assert_eq!((table[0].queue.len(), table[1].queue.len()), (3, 3));
        let mut one = tasks(6..7);
        table[0].queue.push_batch(&mut one);
        assert!(!e.rebalance(), "max - min = 1 is balanced");
        assert_eq!((table[0].queue.len(), table[1].queue.len()), (4, 3));
    }

    #[test]
    fn parking_on_a_poisoned_engine_reports_every_task_lost() {
        let (e, rx) = engine();
        let mut early = tasks(0..2);
        e.dispatch(&mut reader(&e), SchedPolicy::RoundRobin, &mut early);
        e.poison("substrate failed".into());
        let mut late = tasks(2..5);
        e.dispatch(&mut reader(&e), SchedPolicy::RoundRobin, &mut late);
        let lost: Vec<u64> = rx
            .try_iter()
            .map(|m| match m {
                CollectMsg::Lost(seq) => seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(lost, [0, 1, 2, 3, 4]);
        assert!(e.parked.lock().is_empty());
        assert_eq!(e.report(Vec::new()).worker_panics, ["substrate failed"]);
    }
}
