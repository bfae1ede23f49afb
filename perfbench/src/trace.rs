//! The traced run's instruments: spans kept in memory, a forwarding counter
//! wrapper that records one span per counter operation, and self time.
//!
//! A span has a name, a start, an end, the span that caused it and the op
//! it belongs to. Spans open and close on one thread; the parent is the
//! innermost open span of that thread, else the thread's op root, else the
//! op root a coordinating thread published with [`Tracer::op`]`(.., true)`
//! (how the Floyd-Warshall worker threads, spawned inside the library,
//! attach their counter spans to the solve that started them).
//!
//! Ops are sampled: only ops whose id is a multiple of the tracer's stride
//! record spans, which bounds memory on workloads with millions of ops.

use mc_counter::{
    CheckError, CheckTimeoutError, Counter, CounterDiagnostics, CounterOverflowError, FailureInfo,
    HealthStatus, MonotonicCounter, StatsSnapshot, Value, WaitingLevel,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The op the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `counter.increment`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const SHARDS: usize = 8;

/// Span store and counter-stats accumulator for one traced phase.
pub struct Tracer {
    epoch: Instant,
    stride: u64,
    next_id: AtomicU64,
    /// Per-thread-ish buffers, so two workload threads rarely share a lock.
    shards: [Mutex<Vec<Span>>; SHARDS],
    /// `op + 1` and root id of the op a coordinating thread published for
    /// threads without an op of their own; `0` when none.
    shared_op: AtomicU64,
    shared_root: AtomicU64,
    stats: Mutex<StatsSnapshot>,
}

#[derive(Default)]
struct Local {
    /// `(op, root span id)` while this thread runs a sampled op.
    op: Option<(u64, u64)>,
    /// Whether this thread's current op is unsampled (records nothing).
    muted: bool,
    stack: Vec<u64>,
    shard: Option<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// The tracer new [`TracedCounter`]s attach to.
static ACTIVE: Mutex<Option<Arc<Tracer>>> = Mutex::new(None);

/// Makes `tracer` the one [`TracedCounter::default`] attaches to (`None`
/// detaches).
pub fn set_active(tracer: Option<Arc<Tracer>>) {
    *ACTIVE.lock().expect("active tracer lock poisoned") = tracer;
}

fn active() -> Option<Arc<Tracer>> {
    ACTIVE.lock().expect("active tracer lock poisoned").clone()
}

impl Tracer {
    /// A tracer that records the spans of every `stride`-th op.
    pub fn new(stride: u64) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            stride: stride.max(1),
            next_id: AtomicU64::new(1),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            shared_op: AtomicU64::new(0),
            shared_root: AtomicU64::new(0),
            stats: Mutex::new(StatsSnapshot::default()),
        })
    }

    /// The op sampling stride.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of op `op` on this thread. With `shared`, the op
    /// is also published to threads that have none (see the module docs).
    /// Unsampled ops return an inert guard and mute this thread's spans.
    pub fn op(&self, name: &'static str, op: u64, shared: bool) -> SpanGuard<'_> {
        let sampled = op.is_multiple_of(self.stride);
        let id = if sampled {
            self.next_id.fetch_add(1, Relaxed)
        } else {
            0
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.op = sampled.then_some((op, id));
            l.muted = !sampled;
        });
        if shared {
            self.shared_root.store(id, Relaxed);
            self.shared_op
                .store(if sampled { op + 1 } else { 0 }, Relaxed);
        }
        SpanGuard {
            tracer: self,
            name,
            id,
            parent: 0,
            op,
            start_ns: if sampled { self.now() } else { 0 },
            root: Some(shared),
        }
    }

    /// Opens a child span of whatever this thread is inside.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let ctx = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let (op, parent) = match (l.op, l.muted) {
                (_, true) => return None,
                (Some((op, root)), _) => (op, l.stack.last().copied().unwrap_or(root)),
                (None, _) => match self.shared_op.load(Relaxed) {
                    0 => return None,
                    op1 => (
                        op1 - 1,
                        l.stack
                            .last()
                            .copied()
                            .unwrap_or(self.shared_root.load(Relaxed)),
                    ),
                },
            };
            let id = self.next_id.fetch_add(1, Relaxed);
            l.stack.push(id);
            Some((id, parent, op))
        });
        let (id, parent, op) = ctx.unwrap_or((0, 0, 0));
        SpanGuard {
            tracer: self,
            name,
            id,
            parent,
            op,
            start_ns: if id != 0 { self.now() } else { 0 },
            root: None,
        }
    }

    fn record(&self, span: Span) {
        let shard = LOCAL.with(|l| {
            *l.borrow_mut()
                .shard
                .get_or_insert_with(|| NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS)
        });
        self.shards[shard]
            .lock()
            .expect("span shard poisoned")
            .push(span);
    }

    /// Folds a counter's statistics into this phase's total.
    pub fn absorb_stats(&self, s: &StatsSnapshot) {
        add_stats(&mut self.stats.lock().expect("stats lock poisoned"), s);
    }

    /// The statistics absorbed so far.
    pub fn stats(&self) -> StatsSnapshot {
        *self.stats.lock().expect("stats lock poisoned")
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("span shard poisoned").clone())
            .collect();
        all.sort_unstable_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    /// 0 for an inert guard.
    id: u64,
    parent: u64,
    op: u64,
    start_ns: u64,
    /// `Some(shared)` for an op root, which clears the op context on close.
    root: Option<bool>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = if self.id != 0 { self.tracer.now() } else { 0 };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if self.root.is_some() {
                l.op = None;
                l.muted = false;
            } else if self.id != 0 {
                l.stack.pop();
            }
        });
        if self.root == Some(true) {
            self.tracer.shared_op.store(0, Relaxed);
        }
        if self.id != 0 {
            self.tracer.record(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Adds `s` into `acc`; high-water marks take the maximum.
pub fn add_stats(acc: &mut StatsSnapshot, s: &StatsSnapshot) {
    acc.increments += s.increments;
    acc.checks += s.checks;
    acc.immediate_checks += s.immediate_checks;
    acc.suspensions += s.suspensions;
    acc.nodes_created += s.nodes_created;
    acc.nodes_freed += s.nodes_freed;
    acc.notifies += s.notifies;
    acc.fast_increments += s.fast_increments;
    acc.fast_checks += s.fast_checks;
    acc.slow_path_entries += s.slow_path_entries;
    acc.io_retries += s.io_retries;
    acc.max_live_nodes = acc.max_live_nodes.max(s.max_live_nodes);
    acc.max_live_waiters = acc.max_live_waiters.max(s.max_live_waiters);
}

/// The operations `after` gained over `before`; high-water marks are
/// `after`'s.
pub fn sub_stats(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        increments: after.increments - before.increments,
        checks: after.checks - before.checks,
        immediate_checks: after.immediate_checks - before.immediate_checks,
        suspensions: after.suspensions - before.suspensions,
        nodes_created: after.nodes_created - before.nodes_created,
        nodes_freed: after.nodes_freed - before.nodes_freed,
        notifies: after.notifies - before.notifies,
        fast_increments: after.fast_increments - before.fast_increments,
        fast_checks: after.fast_checks - before.fast_checks,
        slow_path_entries: after.slow_path_entries - before.slow_path_entries,
        io_retries: after.io_retries - before.io_retries,
        ..*after
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part of the interval
    /// that child spans cover.
    pub self_ns: u64,
}

/// Self time per span name. Children of one parent may overlap (they can
/// run on different threads), so coverage is the union of their
/// intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered;
    }
    out
}

/// Durations (ns) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Writes `spans` to `path` as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.op,
            mc_bench::json::quote(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

/// A forwarding counter that records a span around every operation and,
/// when dropped, folds the wrapped counter's statistics into its tracer.
///
/// A `check` or `wait` is recorded as `counter.check_blocked` when the
/// value was below the level on entry (it takes the slow path and
/// suspends unless an increment lands first), else as
/// `counter.check_fast`.
pub struct TracedCounter<C: MonotonicCounter + CounterDiagnostics = Counter> {
    inner: C,
    tracer: Option<Arc<Tracer>>,
}

impl<C: MonotonicCounter + CounterDiagnostics + Default> Default for TracedCounter<C> {
    fn default() -> Self {
        TracedCounter {
            inner: C::default(),
            tracer: active(),
        }
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> TracedCounter<C> {
    /// The wrapped counter.
    #[cfg(test)]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.tracer.as_deref().map(|t| t.span(name))
    }

    fn wait_span(&self, level: Value) -> Option<SpanGuard<'_>> {
        let t = self.tracer.as_deref()?;
        Some(t.span(if self.inner.debug_value() >= level {
            "counter.check_fast"
        } else {
            "counter.check_blocked"
        }))
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> MonotonicCounter for TracedCounter<C> {
    fn increment(&self, amount: Value) {
        let _s = self.span("counter.increment");
        self.inner.increment(amount);
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        let _s = self.span("counter.increment");
        self.inner.try_increment(amount)
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        let _s = self.wait_span(level);
        self.inner.wait(level)
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        let _s = self.wait_span(level);
        self.inner.wait_timeout(level, timeout)
    }

    fn check(&self, level: Value) {
        let _s = self.wait_span(level);
        self.inner.check(level);
    }

    fn check_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckTimeoutError> {
        let _s = self.wait_span(level);
        self.inner.check_timeout(level, timeout)
    }

    fn poison(&self, info: FailureInfo) {
        self.inner.poison(info);
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.inner.poison_info()
    }

    fn advance_to(&self, target: Value) {
        let _s = self.span("counter.increment");
        self.inner.advance_to(target);
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> CounterDiagnostics for TracedCounter<C> {
    fn debug_value(&self) -> Value {
        self.inner.debug_value()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn impl_name(&self) -> &'static str {
        "traced"
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.inner.waiters()
    }

    fn health(&self) -> HealthStatus {
        self.inner.health()
    }

    fn durable_watermark(&self) -> Option<Value> {
        self.inner.durable_watermark()
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> Drop for TracedCounter<C> {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            t.absorb_stats(&self.inner.stats());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_counter::testkit::{assert_all_forwarded, exercise_all, RecordingCounter};

    #[test]
    fn traced_counter_forwards_every_operation() {
        let c = TracedCounter::<RecordingCounter>::default();
        exercise_all(&c);
        assert_all_forwarded(c.inner());
        assert_eq!(c.debug_value(), 6);
    }

    #[test]
    fn spans_nest_under_the_op_and_self_time_subtracts_children() {
        let t = Tracer::new(1);
        {
            let _op = t.op("op", 0, false);
            {
                let _a = t.span("a");
                let _b = t.span("b");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let spans = t.spans();
        let by = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let (op, a, b) = (by("op"), by("a"), by("b"));
        assert_eq!((op.parent, a.parent, b.parent), (0, op.id, a.id));
        assert!(spans.iter().all(|s| s.op == 0));
        let st = self_times(&spans);
        assert_eq!(st["b"].self_ns, b.dur_ns());
        assert_eq!(st["a"].self_ns, a.dur_ns() - b.dur_ns());
        assert!(st["op"].self_ns < op.dur_ns());
    }

    #[test]
    fn unsampled_ops_record_nothing() {
        let t = Tracer::new(2);
        for op in 0..4 {
            let _op = t.op("op", op, false);
            let _s = t.span("child");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 4, "ops 0 and 2, each with one child");
        assert!(spans.iter().all(|s| s.op % 2 == 0));
    }

    #[test]
    fn shared_op_adopts_other_threads_spans() {
        let t = Tracer::new(1);
        {
            let _op = t.op("solve", 7, true);
            std::thread::scope(|s| {
                s.spawn(|| drop(t.span("worker")));
            });
        }
        let _orphan = t.span("after"); // no op: not recorded
        drop(_orphan);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "solve").unwrap();
        let w = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!((w.parent, w.op), (root.id, 7));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let mk = |id, parent, s, e| Span {
            id,
            parent,
            op: 0,
            name: if parent == 0 { "p" } else { "c" },
            start_ns: s,
            end_ns: e,
        };
        let spans = [mk(1, 0, 0, 100), mk(2, 1, 10, 50), mk(3, 1, 30, 70)];
        let st = self_times(&spans);
        assert_eq!(st["p"].self_ns, 100 - 60);
        assert_eq!(st["c"].total_ns, 80);
    }
}
