//! [`ShardedCounter`]: striped increments for write-heavy contention.
//!
//! Every other packed-word implementation funnels all increments through one
//! CAS word, so under all-writer contention the cache line holding that word
//! ping-pongs between cores and throughput *drops* as threads are added. A
//! `ShardedCounter` splits the increment hot path across per-thread,
//! cache-line-padded cells:
//!
//! ```text
//!   increment(a) ──► cells[thread_slot].fetch_add(a)      (private line)
//!                              │
//!                              ▼   (combiner: eager when waiters exist,
//!                                   lazy at the adaptive flush threshold)
//!   published ◄──── FastWord  (value hint | poison | has-waiters)
//!                              │
//!   check(level) ───► one Acquire load of the published word
//! ```
//!
//! The *published* value lives in the packed word of an inner
//! [`BTreeCounter`], so the read side is completely unchanged: a satisfied
//! `check` is still a single `Acquire` load, and the suspend/wake slow path is
//! that counter's Section 7 waitlist (one node per distinct level, satisfied
//! nodes swept on publication), entered through the same locked value
//! change, suspend and poison steps. Only the write side changes: an
//! increment lands in a striped cell and becomes *visible to checks* when a
//! combiner publishes the accumulated deltas into the word.
//!
//! # Publication rules (the combiner)
//!
//! Increments must not linger in cells while somebody waits — that would turn
//! the paper's "wake exactly when satisfied" semantics into "wake when the
//! flush timer feels like it". Publication is therefore **waiter-aware**:
//!
//! * **Eager** — when the packed word's has-waiters bit is set, every
//!   increment drains all cells and publishes under the lock (exactly the
//!   slow path every other implementation takes when waiters exist), so a
//!   waited-on level is crossed the moment the increment that crosses it
//!   returns.
//! * **Lazy** — with no waiters registered, a cell accumulates until its
//!   pending delta reaches the *adaptive flush threshold*; the flush drains
//!   all cells and publishes with one CAS (lock-free, nobody to wake). The
//!   threshold starts low and doubles on every quiet flush (up to a backlog
//!   of 1,024 units), so sustained write storms publish rarely, while a
//!   counter that just lost its waiters stays fresh.
//!
//! Waits themselves self-serve: a `check` that is not satisfied by the
//! published value first drains and publishes the cells itself (lock-free in
//! the common case) and re-tests before suspending — so a value that has
//! logically been reached never blocks its own observer. If another
//! thread's combine has drained the cells but not yet published, the check
//! yields until that combine lands instead of suspending: the deltas it
//! needs may be in that combine's hands.
//!
//! # Why the waiter/flush race cannot lose a wakeup
//!
//! The hazard: an incrementer parks a delta in its cell and sees "no
//! waiters", while a checker simultaneously drains the cells, sees "level
//! unreached", and goes to sleep — with the parked delta satisfying its
//! level. The handshake mirrors the [`FastWord`] protocol one level up, with
//! `SeqCst` fences standing in for the single-word RMW trick:
//!
//! * The incrementer performs the cell RMW, then a `SeqCst` fence, then
//!   loads the packed word to test the has-waiters bit.
//! * The checker (holding the slow-path mutex) sets the has-waiters bit with
//!   an RMW, then a `SeqCst` fence, then drains the cells with RMW swaps.
//!
//! If the incrementer misses the bit, its cell RMW is ordered before the
//! checker's drain by the fence pair, so the drain collects the delta and the
//! checker's locked re-test sees the published value. If it sees the bit, it
//! takes the locked publish path, which the mutex serializes after the
//! checker's node is enqueued (the condvar releases the lock only once the
//! node is in the list), and the publish sweep signals the node. Either way
//! the wakeup is delivered.
//!
//! # Exactness
//!
//! The cells-only fast tier is restricted to a regime where overflow is
//! impossible: amounts at most 2^30, per-cell backlogs near the 1,024-unit
//! flush bound, and a published hint below 2^61 (half the [`FastWord`] hint
//! range). Everything outside that regime — huge amounts, values near
//! saturation — funnels through the lock, where
//! [`FastWord::locked_add`] keeps exact `u64` arithmetic and exact overflow
//! errors, pending deltas included (they are drained and published before
//! the fallible add).
//!
//! One racy corner remains: the regime gate is a load, so a delta can park
//! concurrently with an `advance_to`/`raise` that jumps the published value
//! near `u64::MAX`. The incrementer re-checks the gate after parking and
//! flushes through the lock immediately if it lost that race; if the delta
//! is nonetheless flushed against a value it no longer fits above,
//! publication saturates at `u64::MAX` (a valid linearization — the parked
//! increment overlapped the jump and is ordered before it) instead of
//! failing.

use crate::builder::{BuildConfig, Buildable, CounterBuilder, MetricsSink};
use crate::error::{CheckError, CounterOverflowError, FailureInfo};
use crate::fastpath::{FastAdvance, FastIncrement, FastWord};
use crate::node::WaitNode;
use crate::stats::{thread_slot, CachePadded, StatsSnapshot};
use crate::traits::{CounterDiagnostics, MonotonicCounter, Resettable, WaitingLevel};
use crate::waitlist::{BTreeCounter, Change, Inner, WaitMap};
use crate::Value;
use mc_metrics::{Event, Histogram};
use std::sync::atomic::{
    fence, AtomicU64, AtomicUsize,
    Ordering::{AcqRel, Relaxed, SeqCst},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest amount the cells-only fast tier accepts; bigger increments take
/// the exact locked path. Keeps any conceivable pending sum far below the
/// regime where `u64` arithmetic could wrap.
const MAX_FAST_AMOUNT: Value = 1 << 30;

/// Published values at or above this route every increment through the lock:
/// pending sums then cannot push the true value anywhere near `u64::MAX`, so
/// overflow checking stays exact without per-increment global arithmetic.
const FAST_REGIME_LIMIT: Value = 1 << 61;

/// Lower bound of the adaptive flush threshold — a fresh counter (or one
/// that recently had waiters) publishes after this many pending units.
const MIN_FLUSH_THRESHOLD: u64 = 8;

/// Upper bound of the adaptive flush threshold (per cell). Far below the
/// headroom between [`FAST_REGIME_LIMIT`] and `u64::MAX`, which the "pending
/// sums cannot overflow" regime argument relies on.
const MAX_BACKLOG: u64 = 1024;

/// Combiner observability, attached when the builder carries a
/// [`MetricsSink`]. Records *why* the combiner published (a waiter forced an
/// eager flush vs. a cell crossed the lazy threshold) and how much backlog
/// each threshold flush carried — the two numbers that tell whether the
/// adaptive threshold is actually batching under a given workload.
#[derive(Debug)]
struct CombinerMetrics {
    /// Publications forced by a registered waiter (the eager path).
    eager_publishes: Arc<Event>,
    /// Publications triggered by a cell reaching the flush threshold.
    threshold_publishes: Arc<Event>,
    /// The triggering cell's pending delta at each threshold flush.
    flush_backlog: Arc<Histogram>,
}

impl CombinerMetrics {
    fn attach(sink: &MetricsSink) -> Self {
        CombinerMetrics {
            eager_publishes: sink.event("combiner.eager_publishes"),
            threshold_publishes: sink.event("combiner.threshold_publishes"),
            flush_backlog: sink.histogram("combiner.flush_backlog"),
        }
    }
}

/// A monotonic counter whose increments are striped across cache-line-padded
/// per-thread cells, for write-heavy contention.
///
/// Semantically interchangeable with [`crate::Counter`]: checks and wake-ups
/// observe a single monotonically published value, waiters suspend on the
/// Section 7 waitlist, and poisoning behaves identically. The difference is
/// purely operational: uncontended *and contended* increments are one
/// `fetch_add` on a private cache line (plus the stats tally, on the
/// thread's own stripe), and the running sum is published into the packed
/// fast word by a waiter-aware combiner (see the module docs).
///
/// Construct via [`ShardedCounter::builder`]; the builder's `shards` knob
/// sets the stripe count (rounded up to a power of two, default derived from
/// [`std::thread::available_parallelism`]).
pub struct ShardedCounter {
    /// The published value, its waitlist and the stats: a counter whose
    /// increments all arrive through the combiner.
    core: BTreeCounter,
    /// Per-thread increment stripes of unpublished deltas, each on its own
    /// cache line so writers on different shards never invalidate each
    /// other.
    cells: Box<[CachePadded<AtomicU64>]>,
    /// `cells.len() - 1`; cell count is always a power of two.
    mask: usize,
    /// Adaptive lazy-flush threshold, in `[MIN_FLUSH_THRESHOLD,
    /// MAX_BACKLOG]`. Doubled on quiet flushes, reset when a waiter
    /// registers.
    flush_threshold: AtomicU64,
    /// Combines that have drained the cells but not yet published.
    combining: AtomicUsize,
    metrics: Option<CombinerMetrics>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCounter")
            .field("published", &self.fast().value_hint())
            .field("pending", &self.pending())
            .field("shards", &self.cells.len())
            .finish()
    }
}

/// Default stripe count: the machine's parallelism rounded up to a power of
/// two, clamped to `[4, 64]` (a floor of 4 keeps striping observable on
/// small hosts; 64 bounds the drain cost and the footprint).
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 64)
}

impl ShardedCounter {
    /// Starts building a sharded counter: set `shards`, `initial`, then
    /// [`build`](CounterBuilder::build).
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// The number of increment stripes (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Sum of the not-yet-published per-cell deltas. Diagnostics only: the
    /// snapshot is not atomic across cells.
    pub fn pending(&self) -> Value {
        self.cells.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// The current adaptive flush threshold (diagnostics/tests).
    pub fn flush_threshold(&self) -> u64 {
        self.flush_threshold.load(Relaxed)
    }

    /// The packed word checks read: the published value.
    fn fast(&self) -> &FastWord {
        &self.core.fast
    }

    fn cell(&self) -> &AtomicU64 {
        &self.cells[thread_slot() & self.mask]
    }

    /// Drains every cell. The caller must publish the returned sum (the
    /// deltas are no longer anywhere else); every call site publishes before
    /// returning to the user.
    fn drain_cells(&self) -> Value {
        self.cells.iter().map(|c| c.swap(0, AcqRel)).sum()
    }

    /// Publishes `pending` into the fast word under the lock and sweeps the
    /// newly satisfied waiters. Returns the new published value and the
    /// swept nodes (signalled, not yet notified — the caller decides whether
    /// to notify under or after the lock). Infallible: pending sums stay far
    /// below overflow while the published value is in the fast regime, and
    /// the one way out of that regime mid-park (a concurrent jump, below)
    /// saturates instead of failing.
    ///
    /// Deliberately does **not** clear the waiters bit on an emptied map:
    /// `register_and_drain` calls this between setting the bit and the
    /// caller's node insertion, where clearing would let increments go lazy
    /// under a live waiter. Call sites where no registration is in flight
    /// clear the bit themselves.
    fn publish_locked(
        &self,
        inner: &mut Inner<WaitMap>,
        pending: Value,
    ) -> (Value, Vec<Arc<WaitNode>>) {
        let fast = self.fast();
        if pending == 0 {
            return (fast.locked_value(inner.wide), Vec::new());
        }
        // Deltas are parked only while the published value is inside the
        // fast regime, but the gate load in `try_increment` races concurrent
        // `advance_to`/`raise` jumps that can land the value near
        // `u64::MAX` before the delta is flushed. Such a delta necessarily
        // overlapped the jump (a non-overlapping increment re-reads the word
        // and takes the exact locked path), so linearizing it *before* the
        // jump — where it fits below the jump target and is subsumed by it —
        // is a valid history: saturate at `u64::MAX`, the counter's terminal
        // value, rather than panic in whichever thread flushes next.
        let new_value = match fast.locked_add(&mut inner.wide, pending) {
            Ok(value) => value,
            Err(_) => fast
                .locked_advance(&mut inner.wide, Value::MAX)
                .unwrap_or(Value::MAX),
        };
        (new_value, self.core.sweep(inner, new_value))
    }

    /// Drains the cells and publishes, taking the lock only when waiters (or
    /// word saturation) force it. Called from the lazy-flush trigger and from
    /// the self-service tier of `wait`. Counted in `combining` from before
    /// the drain until after the publish, so a waiter whose deltas it took
    /// can tell they are on their way.
    fn combine(&self) {
        self.combining.fetch_add(1, SeqCst);
        let pending = self.drain_cells();
        if pending != 0 {
            match self.fast().try_increment(pending) {
                FastIncrement::Done => {}
                // Waiters registered or hint saturated: publish under the
                // lock so the sweep runs (`publish_locked` absorbs the
                // saturation corner, so no error can surface here).
                FastIncrement::Contended | FastIncrement::Overflow(_) => {
                    let publish = |inner: &mut _| self.publish_locked(inner, pending).1;
                    let _ = self.core.change(Change::Publish, publish);
                }
            }
        }
        self.combining.fetch_sub(1, SeqCst);
    }

    /// The eager publication path: the caller observed the has-waiters bit
    /// (or a published value outside the fast regime) after parking a delta,
    /// so drain and publish under the lock, waking whoever the new value
    /// satisfies.
    fn flush_for_waiters(&self) {
        let _ = self.change(Change::Publish);
    }

    /// The core's locked value change, with the cells drained and published
    /// first, so `change` applies to the true value.
    fn change(&self, change: Change) -> Result<(), CounterOverflowError> {
        self.core
            .change(change, |inner| self.publish_pending(inner))
    }

    /// Drains the cells and publishes them under the lock, returning the
    /// swept nodes.
    fn publish_pending(&self, inner: &mut Inner<WaitMap>) -> Vec<Arc<WaitNode>> {
        let pending = self.drain_cells();
        self.publish_locked(inner, pending).1
    }

    /// Grows the adaptive threshold after a flush no waiter was hurt by.
    fn relax_threshold(&self) {
        let cur = self.flush_threshold.load(Relaxed);
        if cur < MAX_BACKLOG {
            // Racy doubling is fine: the threshold is a heuristic, and every
            // transition keeps it within [MIN_FLUSH_THRESHOLD, MAX_BACKLOG].
            self.flush_threshold
                .store((cur * 2).min(MAX_BACKLOG), Relaxed);
        }
    }

    /// Snaps the threshold back to eager when a waiter shows up, so the
    /// published value stays fresh while anybody might be watching.
    fn tighten_threshold(&self) {
        self.flush_threshold.store(MIN_FLUSH_THRESHOLD, Relaxed);
    }

    /// Slow path of `increment`: drain, publish pending, then apply `amount`
    /// with exact overflow checking, sweeping and waking as one atomic step
    /// under the lock.
    fn raise(&self, amount: Value) -> Result<(), CounterOverflowError> {
        self.change(Change::Add(amount))
    }

    /// Registers the waiter bit, drains the cells (the fence pair with the
    /// increment fast path — see the module docs), publishes, and returns
    /// the resulting value. Lock held.
    fn register_and_drain(&self, inner: &mut Inner<WaitMap>) -> Value {
        let registered = self.fast().register_waiter(inner.wide);
        fence(SeqCst);
        let pending = self.drain_cells();
        if pending == 0 {
            return registered;
        }
        let (value, satisfied) = self.publish_locked(inner, pending);
        for node in satisfied {
            // Notifying while holding the lock is safe (waiters re-acquire
            // it inside `Condvar::wait` anyway) and keeps this path simple.
            node.cv.notify_all();
        }
        value
    }

    /// Tiers 1 and 2 of a wait: one load of the published word, then a
    /// self-service combine and a second load, so a logically reached value
    /// never suspends its observer. Lock-free while no waiters are
    /// registered.
    ///
    /// Another thread's combine may have drained this thread's deltas and
    /// not yet published them, leaving this thread's combine nothing to
    /// drain. Draining after it synchronizes with it, so its count in
    /// `combining` is visible here: yield until it has published rather than
    /// suspend.
    fn self_served(&self, level: Value) -> bool {
        let fast = self.fast();
        if !fast.is_satisfied(level) {
            self.combine();
            while !fast.is_satisfied(level) {
                if self.combining.load(SeqCst) == 0 {
                    return false;
                }
                std::thread::yield_now();
            }
        }
        self.core.stats.record_fast_check();
        true
    }

    /// Tier 3 of a wait: the Section 7 waitlist.
    fn suspend(&self, level: Value, deadline: Option<Instant>) -> Result<(), CheckError> {
        self.tighten_threshold();
        let mut inner = self.core.enter();
        let value = self.register_and_drain(&mut inner);
        self.core.suspend(inner, level, value, deadline)
    }
}

impl MonotonicCounter for ShardedCounter {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        // Fast-regime gate: one read-mostly load. Outside it (huge amounts,
        // waiters already known, values near saturation) take the exact
        // locked path directly instead of parking the delta.
        let fast = self.fast();
        if amount > MAX_FAST_AMOUNT || fast.value_hint() >= FAST_REGIME_LIMIT {
            return self.raise(amount);
        }
        let pend = self.cell().fetch_add(amount, AcqRel) + amount;
        self.core.stats.record_fast_increment();
        // Dekker handshake with a registering waiter: cell RMW, fence, then
        // the waiters-bit test (the waiter does bit RMW, fence, cell drain).
        fence(SeqCst);
        if fast.value_hint() >= FAST_REGIME_LIMIT {
            // A concurrent advance/raise jumped the published value past the
            // regime gate while we parked. Flush through the lock right away
            // so the delta is folded in (or saturated, see `publish_locked`)
            // instead of lingering in a cell outside the bounded regime.
            self.flush_for_waiters();
        } else if fast.has_waiters() {
            if let Some(m) = &self.metrics {
                m.eager_publishes.incr();
            }
            self.flush_for_waiters();
        } else if pend >= self.flush_threshold.load(Relaxed) {
            if let Some(m) = &self.metrics {
                m.threshold_publishes.incr();
                m.flush_backlog.record(pend);
            }
            self.combine();
            self.relax_threshold();
        }
        Ok(())
    }

    fn advance_to(&self, target: Value) {
        // Published ≥ target ⇒ the true value is too: nothing to do.
        let fast = self.fast();
        if fast.is_satisfied(target) {
            return;
        }
        // Self-service combine: the logical value may already satisfy the
        // target even though the published word lags.
        self.combine();
        match fast.try_advance(target) {
            FastAdvance::Raised => {
                self.core.stats.record_fast_increment();
                return;
            }
            FastAdvance::NoOp => return,
            FastAdvance::Contended => {}
        }
        let _ = self.change(Change::AdvanceTo(target));
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        if self.self_served(level) {
            return Ok(());
        }
        self.suspend(level, None)
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        if self.self_served(level) {
            return Ok(());
        }
        self.suspend(level, Instant::now().checked_add(timeout))
    }

    fn poison(&self, info: FailureInfo) {
        // Publish pending deltas first: waiters whose levels the true value
        // already satisfies wake successfully (satisfied-first semantics),
        // only genuinely unsatisfiable ones are poisoned.
        self.core
            .poison_with(info, |inner| self.publish_pending(inner));
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.core.poison_info()
    }
}

impl Buildable for ShardedCounter {
    fn from_config(cfg: &BuildConfig) -> Self {
        let shards = cfg
            .shards()
            .unwrap_or_else(default_shards)
            .clamp(1, 1024)
            .next_power_of_two();
        ShardedCounter {
            core: BTreeCounter::from_config(cfg),
            cells: (0..shards).map(|_| CachePadded::default()).collect(),
            mask: shards - 1,
            flush_threshold: AtomicU64::new(MIN_FLUSH_THRESHOLD),
            combining: AtomicUsize::new(0),
            metrics: cfg.metrics().map(CombinerMetrics::attach),
        }
    }
}

impl Resettable for ShardedCounter {
    fn reset(&mut self) {
        self.core.reset();
        for cell in self.cells.iter_mut() {
            *cell.get_mut() = 0;
        }
        *self.flush_threshold.get_mut() = MIN_FLUSH_THRESHOLD;
    }
}

impl CounterDiagnostics for ShardedCounter {
    fn debug_value(&self) -> Value {
        // Published plus unpublished. Racy across cells (diagnostics only),
        // exact whenever the counter is quiescent.
        self.core.debug_value() + self.pending()
    }

    fn stats(&self) -> StatsSnapshot {
        self.core.stats()
    }

    fn impl_name(&self) -> &'static str {
        "sharded"
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.core.waiters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonotonicCounter;
    use std::thread;

    #[test]
    fn increments_park_in_cells_until_the_threshold() {
        let c = ShardedCounter::builder().build();
        c.increment(1);
        assert_eq!(c.pending(), 1, "small increments stay in the cell");
        assert_eq!(c.debug_value(), 1, "debug_value includes pending");
        // Cross the minimum threshold: everything publishes.
        c.increment(MIN_FLUSH_THRESHOLD);
        assert_eq!(c.pending(), 0, "threshold flush drains the cells");
        assert_eq!(c.debug_value(), MIN_FLUSH_THRESHOLD + 1);
    }

    #[test]
    fn satisfied_check_is_fast_even_with_pending() {
        let c = ShardedCounter::builder().build();
        c.increment(20); // crosses the threshold, publishes
        c.check(20);
        let s = c.stats();
        assert_eq!(s.fast_checks, 1);
        assert_eq!(s.slow_path_entries, 0);
    }

    #[test]
    fn check_self_serves_pending_deltas() {
        let c = ShardedCounter::builder().build();
        c.increment(3); // below threshold: parked
                        // The published word says 0, but the check must not suspend.
        c.check(3);
        assert_eq!(c.pending(), 0, "the check published the cells itself");
        let s = c.stats();
        assert_eq!(s.suspensions, 0);
    }

    #[test]
    fn threshold_adapts_up_and_snaps_back() {
        let c = ShardedCounter::builder().build();
        assert_eq!(c.flush_threshold(), MIN_FLUSH_THRESHOLD);
        // Each increment crosses the threshold, so each is a quiet flush:
        // seven doublings take it from 8 to the bound, and the rest must
        // leave it there.
        for _ in 0..100 {
            c.increment(MAX_BACKLOG);
        }
        assert_eq!(
            c.flush_threshold(),
            MAX_BACKLOG,
            "the bound caps the threshold"
        );
        // An (unsatisfied) wait snaps it back to eager.
        let _ = c.wait_timeout(u64::MAX / 2, Duration::from_millis(1));
        assert_eq!(c.flush_threshold(), MIN_FLUSH_THRESHOLD);
    }

    #[test]
    fn waiter_forces_eager_publication() {
        let c = Arc::new(ShardedCounter::builder().build());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(3));
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        // Each increment must publish eagerly now: one single-unit increment
        // at a time, far below any threshold.
        c.increment(1);
        c.increment(1);
        c.increment(1);
        h.join().unwrap();
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn no_lost_increments_across_threads() {
        let c = Arc::new(ShardedCounter::builder().shards(8).build());
        let threads = 8;
        let per_thread = 10_000u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..per_thread {
                    c.increment(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.debug_value(), threads as u64 * per_thread);
        c.check(threads as u64 * per_thread);
    }

    #[test]
    fn writers_race_waiters_without_losing_wakeups() {
        for _ in 0..20 {
            let c = Arc::new(ShardedCounter::builder().shards(4).build());
            let mut handles = Vec::new();
            for level in 1..=8u64 {
                let c = Arc::clone(&c);
                handles.push(thread::spawn(move || {
                    c.check_timeout(level * 4, Duration::from_secs(10))
                }));
            }
            for _ in 0..8 {
                let c = Arc::clone(&c);
                handles.push(thread::spawn(move || {
                    for _ in 0..4 {
                        c.increment(1);
                    }
                    Ok(())
                }));
            }
            for h in handles {
                assert_eq!(h.join().unwrap(), Ok(()));
            }
            assert_eq!(c.debug_value(), 32);
        }
    }

    #[test]
    fn exact_overflow_errors_with_pending_deltas() {
        let c = ShardedCounter::builder().build();
        c.increment(5); // parked
        c.increment(u64::MAX - 6); // huge: locked path, publishes the 5 first
        assert_eq!(c.debug_value(), u64::MAX - 1);
        let err = c.try_increment(2).unwrap_err();
        assert_eq!(err.value, u64::MAX - 1);
        assert_eq!(err.amount, 2);
        c.increment(1);
        assert_eq!(c.debug_value(), u64::MAX);
        c.check(u64::MAX);
    }

    #[test]
    fn advance_to_respects_pending_deltas() {
        let c = ShardedCounter::builder().build();
        c.increment(5); // parked: published word still 0
        c.advance_to(3); // below the true value: must be a no-op
        assert_eq!(c.debug_value(), 5, "advance below the true value raised it");
        c.advance_to(9);
        assert_eq!(c.debug_value(), 9);
    }

    #[test]
    fn poison_publishes_before_sweeping() {
        let c = Arc::new(ShardedCounter::builder().build());
        let sat = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.wait(2))
        };
        let unsat = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.wait(100))
        };
        while c.stats().live_waiters < 2 {
            thread::yield_now();
        }
        // Parked via the eager path (waiters exist), so both are published;
        // then poison. The level-2 waiter must succeed, the level-100 one
        // must fail.
        c.increment(2);
        c.poison(FailureInfo::new("writer died"));
        assert_eq!(sat.join().unwrap(), Ok(()));
        assert!(matches!(
            unsat.join().unwrap(),
            Err(CheckError::Poisoned(_))
        ));
    }

    /// Regression: an overflowing `raise` used to early-return after the
    /// pending publication had already signalled-and-removed waiters,
    /// skipping their `notify_all` — the waiter below would hang forever.
    #[test]
    fn overflowing_raise_still_wakes_swept_waiters() {
        let c = Arc::new(ShardedCounter::builder().build());
        let waiter = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.wait(1))
        };
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        // Park a delta directly in a cell, bypassing the eager flush — the
        // in-flight window between an increment's fetch_add and its
        // waiters-bit test.
        c.cells[0].fetch_add(1, AcqRel);
        // The huge increment drains and publishes the delta (satisfying the
        // waiter) and then overflows in the same critical section.
        let err = c.try_increment(u64::MAX).unwrap_err();
        assert_eq!(err.value, 1);
        assert_eq!(err.amount, u64::MAX);
        assert_eq!(waiter.join().unwrap(), Ok(()));
    }

    /// Regression: a delta parked behind a stale fast-regime gate used to
    /// panic the next flusher when a concurrent jump pushed the published
    /// value to `u64::MAX`; publication now saturates.
    #[test]
    fn flush_after_value_jump_saturates_instead_of_panicking() {
        let c = ShardedCounter::builder().build();
        c.advance_to(u64::MAX);
        // Simulate the racy incrementer whose gate load predated the jump.
        c.cells[0].fetch_add(5, AcqRel);
        c.combine();
        assert_eq!(c.debug_value(), u64::MAX);
        c.check(u64::MAX);
        // Exact overflow errors continue at the terminal value.
        let err = c.try_increment(1).unwrap_err();
        assert_eq!(err.value, u64::MAX);
        assert_eq!(err.amount, 1);
    }

    #[test]
    fn shard_count_is_power_of_two_and_clamped() {
        assert_eq!(ShardedCounter::builder().shards(3).build().shard_count(), 4);
        assert_eq!(ShardedCounter::builder().shards(1).build().shard_count(), 1);
        let d = ShardedCounter::builder().build().shard_count();
        assert!(d.is_power_of_two() && (4..=64).contains(&d));
    }

    #[test]
    fn combiner_metrics_distinguish_eager_from_threshold() {
        let registry = Arc::new(mc_metrics::Registry::new());
        let c = Arc::new(
            ShardedCounter::builder()
                .metrics(&registry, "sc")
                .shards(1)
                .build(),
        );
        // Lazy regime: crossing the threshold publishes and records backlog.
        c.increment(MIN_FLUSH_THRESHOLD);
        assert_eq!(registry.event("sc.combiner.threshold_publishes").get(), 1);
        let backlog = registry.histogram("sc.combiner.flush_backlog").snapshot();
        assert_eq!(backlog.count(), 1);
        assert!(backlog.max >= MIN_FLUSH_THRESHOLD);
        // Eager regime: a registered waiter forces per-increment publication.
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(MIN_FLUSH_THRESHOLD + 2));
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        c.increment(1);
        c.increment(1);
        h.join().unwrap();
        assert!(registry.event("sc.combiner.eager_publishes").get() >= 1);
    }

    #[test]
    fn reset_clears_cells_and_threshold() {
        let mut c = ShardedCounter::builder().build();
        c.increment(3);
        for _ in 0..50 {
            c.increment(MIN_FLUSH_THRESHOLD);
        }
        c.reset();
        assert_eq!(c.debug_value(), 0);
        assert_eq!(c.pending(), 0);
        assert_eq!(c.flush_threshold(), MIN_FLUSH_THRESHOLD);
        c.increment(1);
        c.check(1);
    }
}
