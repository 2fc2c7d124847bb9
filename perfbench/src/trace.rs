//! Span tracing of the calls the benchmark makes into each layer's
//! public functions.
//!
//! A [`Tracer`] records one span per timed call: its name (the layer
//! and function, e.g. `net.send`), start and end, the enclosing span on
//! the same thread and, where there is one, the task id. A span's *self
//! time* is its duration minus the time covered by its child spans, so a
//! control cycle that senses and actuates through the timing decorators
//! leaves its own decide time as self time.
//!
//! Every span feeds a per-name aggregate (count, total, self-time
//! histogram). The raw spans are kept in memory up to [`SPAN_CAP`] and
//! written out when the run ends. A disabled tracer reads no clocks and
//! records nothing.

use crate::stats::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept for the span file; later spans still count in the
/// aggregates.
pub const SPAN_CAP: usize = 100_000;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root span.
    pub parent: u64,
    /// Layer-qualified function name.
    pub name: &'static str,
    /// Task id the call carried, if any.
    pub task: Option<u64>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// A span still open on a thread's stack.
#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    task: Option<u64>,
    start_ns: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Per-name aggregate of finished spans.
#[derive(Default, Clone)]
pub struct Aggregate {
    /// Spans finished.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Self times.
    pub self_ns: Histogram,
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    dropped: u64,
    by_name: BTreeMap<&'static str, Aggregate>,
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    store: Mutex<Store>,
}

/// Closes a span when dropped.
pub struct Guard<'a> {
    tracer: Option<&'a Tracer>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            store: Mutex::new(Store::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`; it closes when the guard drops.
    pub fn span(&self, name: &'static str, task: Option<u64>) -> Guard<'_> {
        if !self.enabled {
            return Guard { tracer: None };
        }
        let open = Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            task,
            start_ns: self.now_ns(),
            child_ns: 0,
        };
        STACK.with(|s| s.borrow_mut().push(open));
        Guard { tracer: Some(self) }
    }

    fn close(&self) {
        let end_ns = self.now_ns();
        let span = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let open = stack.pop().expect("span guard without an open span");
            finish(open, end_ns, stack.last_mut())
        });
        self.record(span);
    }

    /// The span store. A panic elsewhere cannot leave it half-updated
    /// (every update is a push or an increment), so a poisoned lock is
    /// still safe to use; `record` runs inside `Drop`, where a second
    /// panic would abort.
    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, span: Span) {
        let mut store = self.store();
        let agg = store.by_name.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += span.end_ns - span.start_ns;
        agg.self_ns.record_ns(span.self_ns);
        if store.spans.len() < SPAN_CAP {
            store.spans.push(span);
        } else {
            store.dropped += 1;
        }
    }

    /// The aggregate of spans named `name` (empty if none finished).
    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.store().by_name.get(name).cloned().unwrap_or_default()
    }

    /// Median self time of spans named `name`, in µs (0.0 if none).
    pub fn p50_self_us(&self, name: &str) -> f64 {
        self.aggregate(name).self_ns.quantile_ns(0.5) / 1e3
    }

    /// Writes the kept spans as JSON lines, then one summary line with
    /// the per-name aggregates and the count of spans not kept.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let store = self.store();
        for s in &store.spans {
            let task = s.task.map_or("null".to_owned(), |t| t.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"task\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.name, task, s.start_ns, s.end_ns, s.self_ns
            )?;
        }
        let names: Vec<String> = store
            .by_name
            .iter()
            .map(|(name, a)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_p50_ns\":{}}}",
                    a.count,
                    a.total_ns,
                    a.self_ns.quantile_ns(0.5)
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"summary\":{{{}}},\"spans_kept\":{},\"spans_not_kept\":{}}}",
            names.join(","),
            store.spans.len(),
            store.dropped
        )
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.close();
        }
    }
}

/// Closes `open` at `end_ns`: its self time is its duration minus the
/// time its children covered, and its whole duration is charged to the
/// enclosing span as child time.
fn finish(open: Open, end_ns: u64, parent: Option<&mut Open>) -> Span {
    let dur = end_ns.saturating_sub(open.start_ns);
    let parent_id = match parent {
        Some(p) => {
            p.child_ns += dur;
            p.id
        }
        None => 0,
    };
    Span {
        id: open.id,
        parent: parent_id,
        name: open.name,
        task: open.task,
        start_ns: open.start_ns,
        end_ns,
        self_ns: dur.saturating_sub(open.child_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(id: u64, start_ns: u64) -> Open {
        Open {
            id,
            name: "t",
            task: None,
            start_ns,
            child_ns: 0,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        // cycle [0, 100) holds sense [10, 30) and actuate [50, 90).
        let mut cycle = open(1, 0);
        let sense = finish(open(2, 10), 30, Some(&mut cycle));
        let actuate = finish(open(3, 50), 90, Some(&mut cycle));
        let cycle = finish(cycle, 100, None);
        assert_eq!((sense.self_ns, sense.parent), (20, 1));
        assert_eq!((actuate.self_ns, actuate.parent), (40, 1));
        assert_eq!((cycle.self_ns, cycle.parent), (40, 0));
    }

    #[test]
    fn grandchildren_charge_only_their_parent() {
        // a [0, 100) ⊃ b [0, 60) ⊃ c [10, 50): a's self time is 40,
        // not 40 - 40.
        let mut a = open(1, 0);
        let mut b = open(2, 0);
        let c = finish(open(3, 10), 50, Some(&mut b));
        let b = finish(b, 60, Some(&mut a));
        let a = finish(a, 100, None);
        assert_eq!((c.self_ns, b.self_ns, a.self_ns), (40, 20, 40));
    }

    #[test]
    fn guards_nest_and_aggregate() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer", Some(7));
            let _inner = t.span("inner", None);
        }
        let store = t.store();
        assert_eq!(store.spans.len(), 2);
        let (inner, outer) = (&store.spans[0], &store.spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.task, Some(7));
        assert!(outer.self_ns <= outer.end_ns - outer.start_ns);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        drop(store);
        assert_eq!(t.aggregate("outer").count, 1);
        assert_eq!(t.aggregate("missing").count, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("x", None));
        assert_eq!(t.aggregate("x").count, 0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("\"spans_kept\":0"));
    }
}
