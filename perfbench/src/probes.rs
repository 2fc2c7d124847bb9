//! Timing decorators over the two control seams, so the sense / decide /
//! actuate split of a control cycle is measured from outside the
//! library crates.
//!
//! * [`TimedControl`] wraps a farm's [`FarmControl`] (what `FarmAbc`
//!   drives): `skeletons.*` spans per call, plus rebalance and
//!   parallelism-degree counters.
//! * [`TimedAbc`] wraps any [`Abc`] (what the manager drives):
//!   `core.sense` / `core.actuate` spans. Around a `core.cycle` span the
//!   cycle's self time is then the decide step.

use crate::trace::Tracer;
use bskel_core::abc::{Abc, AbcError, ActuationOutcome, ManagerOp};
use bskel_monitor::{SensorSnapshot, Time};
use bskel_rules::analysis::BeanSchema;
use bskel_skel::farm::{FarmControl, FarmEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`FarmControl`] that times every call into the wrapped one.
pub struct TimedControl {
    inner: Arc<dyn FarmControl>,
    tracer: Arc<Tracer>,
    rebalances: AtomicU64,
    rebalances_moved: AtomicU64,
    workers_max: AtomicU64,
}

impl TimedControl {
    /// Wraps `inner`, recording spans into `tracer`.
    pub fn new(inner: Arc<dyn FarmControl>, tracer: Arc<Tracer>) -> Self {
        let workers = inner.num_workers() as u64;
        Self {
            inner,
            tracer,
            rebalances: AtomicU64::new(0),
            rebalances_moved: AtomicU64::new(0),
            workers_max: AtomicU64::new(workers),
        }
    }

    /// Share of `rebalance` calls that moved at least one task (0.0 if
    /// none were made).
    pub fn rebalance_moved_ratio(&self) -> f64 {
        let calls = self.rebalances.load(Ordering::Relaxed);
        if calls == 0 {
            0.0
        } else {
            self.rebalances_moved.load(Ordering::Relaxed) as f64 / calls as f64
        }
    }

    /// Highest parallelism degree seen after an actuation.
    pub fn workers_max(&self) -> u64 {
        self.workers_max.load(Ordering::Relaxed)
    }

    fn note_workers(&self) {
        let n = self.inner.num_workers() as u64;
        self.workers_max.fetch_max(n, Ordering::Relaxed);
    }
}

impl FarmControl for TimedControl {
    fn sense(&self, now: Time) -> SensorSnapshot {
        let _span = self.tracer.span("skeletons.sense", None);
        self.inner.sense(now)
    }

    fn add_workers(&self, n: u32) -> Result<u32, String> {
        let result = {
            let _span = self.tracer.span("skeletons.add_workers", None);
            self.inner.add_workers(n)
        };
        self.note_workers();
        result
    }

    fn remove_workers(&self, n: u32) -> Result<u32, String> {
        let _span = self.tracer.span("skeletons.remove_workers", None);
        self.inner.remove_workers(n)
    }

    fn rebalance(&self) -> bool {
        let moved = {
            let _span = self.tracer.span("skeletons.rebalance", None);
            self.inner.rebalance()
        };
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        if moved {
            self.rebalances_moved.fetch_add(1, Ordering::Relaxed);
        }
        moved
    }

    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn kill_workers(&self, n: u32) -> Result<u32, String> {
        self.inner.kill_workers(n)
    }

    fn workers_lost(&self) -> u64 {
        self.inner.workers_lost()
    }

    fn events(&self) -> Vec<FarmEvent> {
        self.inner.events()
    }
}

/// An [`Abc`] that times the manager's calls into the wrapped one.
pub struct TimedAbc {
    inner: Box<dyn Abc>,
    tracer: Arc<Tracer>,
}

impl TimedAbc {
    /// Wraps `inner`, recording spans into `tracer`.
    pub fn new(inner: Box<dyn Abc>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Abc for TimedAbc {
    fn sense(&mut self, now: Time) -> SensorSnapshot {
        let _span = self.tracer.span("core.sense", None);
        self.inner.sense(now)
    }

    fn actuate(&mut self, op: &ManagerOp, now: Time) -> Result<ActuationOutcome, AbcError> {
        let _span = self.tracer.span("core.actuate", None);
        self.inner.actuate(op, now)
    }

    fn bean_schema(&self) -> BeanSchema {
        self.inner.bean_schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskel_core::abc::NullAbc;
    use bskel_skel::farm::FarmBuilder;
    use bskel_skel::stream::StreamMsg;

    #[test]
    fn timed_control_delegates_and_counts() {
        let farm = FarmBuilder::from_fn(|x: u64| x)
            .initial_workers(1)
            .max_workers(3)
            .build();
        let tracer = Arc::new(Tracer::new(true));
        let ctl = TimedControl::new(farm.control(), Arc::clone(&tracer));
        assert_eq!(ctl.add_workers(2), Ok(2));
        assert_eq!(ctl.num_workers(), 3);
        assert_eq!(ctl.workers_max(), 3);
        assert!(!ctl.rebalance(), "idle queues have nothing to move");
        assert_eq!(ctl.rebalance_moved_ratio(), 0.0);
        assert_eq!(ctl.sense(0.0).num_workers, 3);
        for name in [
            "skeletons.add_workers",
            "skeletons.rebalance",
            "skeletons.sense",
        ] {
            assert_eq!(tracer.aggregate(name).count, 1, "{name}");
        }
        farm.input().send(StreamMsg::End).unwrap();
        assert!(matches!(farm.output().recv(), Ok(StreamMsg::End)));
        assert!(farm.shutdown().is_clean());
    }

    #[test]
    fn timed_abc_splits_sense_and_actuate() {
        let tracer = Arc::new(Tracer::new(true));
        let mut abc = TimedAbc::new(Box::<NullAbc>::default(), Arc::clone(&tracer));
        {
            let _cycle = tracer.span("core.cycle", None);
            abc.sense(1.0);
            abc.actuate(&ManagerOp::BalanceLoad, 1.0).unwrap();
        }
        let cycle = tracer.aggregate("core.cycle");
        let sense = tracer.aggregate("core.sense");
        let actuate = tracer.aggregate("core.actuate");
        assert_eq!((cycle.count, sense.count, actuate.count), (1, 1, 1));
        // The cycle's self time excludes both children.
        assert!(
            cycle.self_ns.mean_ns() + sense.total_ns as f64 + actuate.total_ns as f64
                <= cycle.total_ns as f64 + 1.0
        );
    }
}
