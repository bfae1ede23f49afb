//! [`Counter`]: the paper's Section 7 implementation, with the packed-word
//! fast path layered on top.
//!
//! One mutex protects (wide value, ordered waiting list); each distinct
//! waited level owns one node with a condition variable; `increment` detaches
//! the satisfied prefix of the list, signals it, and broadcasts; woken
//! threads drain their node and the last one releases it. The two-tier fast
//! path (see [`crate::fastpath`]) lets an already-satisfied `check` return
//! after one atomic load and a waiter-free `increment` complete with one CAS,
//! so the mutex is only ever taken when a thread actually suspends or must be
//! woken.

use crate::builder::{BuildConfig, Buildable, CounterBuilder};
use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::fastpath::{FastAdvance, FastIncrement, FastWord, FAST_CAP};
use crate::list::SortedList;
use crate::node::WaitNode;
use crate::stats::{Stats, StatsSnapshot};
use crate::trace::{snapshot_of, TraceLog};
use crate::traits::{
    CounterDiagnostics, MonotonicCounter, Resettable, ResumableCounter, WaitingLevel,
};
use crate::Value;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub(crate) struct Inner {
    /// The exact value once the packed hint has saturated at
    /// [`FAST_CAP`]; stale (and unused) below that. See the `fastpath`
    /// module docs.
    pub(crate) wide: Value,
    /// Nodes for levels still unsatisfied. Never contains a level <= value.
    pub(crate) waiting: SortedList,
    /// Nodes whose level has been satisfied but whose waiters have not all
    /// resumed yet — these are the "set" nodes still drawn in the waiting
    /// structure of Figure 2 (e) and (f). The last waiter to resume removes
    /// its node from here. Poisoned nodes drain through here too.
    pub(crate) draining: Vec<Arc<WaitNode>>,
    /// The first poisoning cause, if any. Set at most once.
    pub(crate) poisoned: Option<FailureInfo>,
}

/// The reference monotonic counter: a packed-word fast path over one lock
/// plus a sorted singly-linked list of condition-variable nodes, the
/// structure of the paper's Section 7 and Figure 2.
///
/// * `check` with a satisfied level returns after a single atomic load.
/// * `increment` with no registered waiters is a single CAS.
/// * `check` with an unsatisfied level finds-or-inserts the node for that
///   level and suspends on its condition variable; all threads waiting on the
///   same level share one node.
/// * `increment` while waiters exist takes the lock, bumps the value and
///   removes every node whose level the new value satisfies from the list,
///   sets its signal flag, and broadcasts.
///
/// Storage and operation time on the slow path are proportional to the number
/// of **distinct levels currently waited on**, not to the number of waiting
/// threads. The fast paths add no per-level storage; the only fixed cost is
/// the stats tier's 1 KiB of per-thread tally stripes (none with
/// `.stats(false)`).
///
/// # Example
///
/// ```
/// use mc_counter::{Counter, MonotonicCounter};
/// let c = Counter::builder().build();
/// c.increment(5);
/// c.check(5); // already satisfied: returns immediately
/// ```
pub struct Counter {
    fast: FastWord,
    /// `false` disables the lock-free tier so every operation takes the
    /// mutex — the ablation baseline for experiment E8 and the mode used
    /// while tracing (every transition must be recorded under the lock).
    fast_enabled: bool,
    inner: Mutex<Inner>,
    stats: Stats,
    /// `false` turns `poison` into a no-op ([`PoisonPolicy::Ignore`]).
    ///
    /// [`PoisonPolicy::Ignore`]: crate::PoisonPolicy::Ignore
    poison_enabled: bool,
    /// When present (via [`crate::TracingCounter`]), a structure snapshot is
    /// appended at every transition, under the lock.
    trace: Option<Arc<TraceLog>>,
}

impl Default for Counter {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Buildable for Counter {
    fn from_config(cfg: &BuildConfig) -> Self {
        Counter {
            fast: FastWord::new(cfg.initial()),
            fast_enabled: true,
            inner: Mutex::new(Inner {
                wide: cfg.initial(),
                waiting: SortedList::new(),
                draining: Vec::new(),
                poisoned: None,
            }),
            stats: Stats::with_enabled(cfg.stats_enabled()),
            poison_enabled: cfg.poison_propagates(),
            trace: None,
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Counter")
            .field("value", &self.fast.locked_value(inner.wide))
            .field("waiting_levels", &inner.waiting.levels())
            .field("draining", &inner.draining.len())
            .finish()
    }
}

impl Counter {
    /// Starts building a counter: set the knobs, then
    /// [`build`](CounterBuilder::build).
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// Creates a counter with value zero and no waiting threads.
    #[deprecated(note = "use CounterBuilder: `Counter::builder().build()`")]
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Creates a counter starting at `value` (phase-reuse and resume
    /// scenarios; equivalent to building at 0 followed by
    /// `advance_to(value)`).
    #[deprecated(note = "use CounterBuilder: `Counter::builder().initial(value).build()`")]
    pub fn with_value(value: Value) -> Self {
        Self::builder().initial(value).build()
    }

    /// Creates a counter with the fast path disabled: every operation takes
    /// the mutex, exactly the seed Section 7 implementation. This is the
    /// ablation baseline the E8 experiment compares the fast path against.
    pub fn mutex_only() -> Self {
        Counter {
            fast_enabled: false,
            ..Self::builder().build()
        }
    }

    /// Creates a counter that records structure snapshots into the returned
    /// log (used by [`crate::TracingCounter`]). Tracing needs every value
    /// transition to appear in the log, so the fast path (which bypasses the
    /// lock, and therefore the log) is disabled.
    pub(crate) fn new_traced(cfg: &BuildConfig) -> (Self, Arc<TraceLog>) {
        let log = Arc::new(TraceLog::default());
        let counter = Counter {
            trace: Some(Arc::clone(&log)),
            fast_enabled: false,
            ..Self::from_config(cfg)
        };
        counter.record(&counter.lock());
        (counter, log)
    }

    /// Appends the current structure to the trace log, if tracing.
    fn record(&self, inner: &Inner) {
        if let Some(log) = &self.trace {
            log.push(snapshot_of(inner, self.fast.locked_value(inner.wide)));
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Lock poisoning can only arise from a panic inside these short
        // critical sections, which would indicate a bug in this crate, not in
        // user code; propagating the panic is the correct response.
        self.inner.lock().expect("counter lock poisoned")
    }

    /// Core of the slow-path `increment`/`try_increment`: returns the
    /// satisfied nodes to notify after the lock is released.
    fn raise(&self, amount: Value) -> Result<Vec<Arc<WaitNode>>, CounterOverflowError> {
        let mut inner = self.lock();
        self.stats.record_slow_entry();
        let new_value = self.fast.locked_add(&mut inner.wide, amount)?;
        self.stats.record_increment();
        let satisfied = inner.waiting.remove_satisfied(new_value);
        for node in &satisfied {
            node.signal();
            inner.draining.push(Arc::clone(node));
            self.stats.record_notify();
        }
        if inner.waiting.is_empty() {
            self.fast.clear_waiters();
        }
        self.record(&inner);
        Ok(satisfied)
    }

    /// Called by a resuming waiter (lock held): deregister from `node`, and if
    /// it was the last waiter, remove the node from the draining list.
    fn resume_from(&self, inner: &mut Inner, node: &Arc<WaitNode>) {
        self.stats.record_waiter_resumed();
        if node.remove_waiter() {
            inner.draining.retain(|n| !Arc::ptr_eq(n, node));
            self.stats.record_node_freed();
        }
        self.record(inner);
    }

    /// Levels currently waited on, in ascending order (diagnostics/tests).
    pub fn waiting_levels(&self) -> Vec<Value> {
        self.lock().waiting.levels()
    }

    /// Number of live wait nodes: unsatisfied levels plus satisfied levels
    /// still draining (diagnostics/tests, Section 7 storage measurements).
    pub fn live_nodes(&self) -> usize {
        let inner = self.lock();
        inner.waiting.len() + inner.draining.len()
    }

    /// Whether the packed word currently advertises waiters
    /// (diagnostics/tests for the fast-path protocol).
    #[cfg(test)]
    pub(crate) fn advertises_waiters(&self) -> bool {
        self.fast.has_waiters()
    }

    pub(crate) fn with_inner<R>(&self, f: impl FnOnce(&Inner, Value) -> R) -> R {
        let inner = self.lock();
        let value = self.fast.locked_value(inner.wide);
        f(&inner, value)
    }
}

impl MonotonicCounter for Counter {
    fn increment(&self, amount: Value) {
        if self.fast_enabled {
            match self.fast.try_increment(amount) {
                FastIncrement::Done => {
                    self.stats.record_fast_increment();
                    return;
                }
                FastIncrement::Overflow(e) => panic!("monotonic counter overflow: {e}"),
                FastIncrement::Contended => {}
            }
        }
        let satisfied = self
            .raise(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
        // Broadcast outside the lock: the flag is already set under the lock,
        // so a waiter that re-checks before our notify arrives simply exits
        // its wait loop; nobody can miss the wakeup.
        for node in satisfied {
            node.cv.notify_all();
        }
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        if self.fast_enabled {
            match self.fast.try_increment(amount) {
                FastIncrement::Done => {
                    self.stats.record_fast_increment();
                    return Ok(());
                }
                FastIncrement::Overflow(e) => return Err(e),
                FastIncrement::Contended => {}
            }
        }
        let satisfied = self.raise(amount)?;
        for node in satisfied {
            node.cv.notify_all();
        }
        Ok(())
    }

    fn advance_to(&self, target: Value) {
        if self.fast_enabled {
            match self.fast.try_advance(target) {
                FastAdvance::Raised => {
                    self.stats.record_fast_increment();
                    return;
                }
                FastAdvance::NoOp => return,
                FastAdvance::Contended => {}
            }
        }
        let satisfied = {
            let mut inner = self.lock();
            self.stats.record_slow_entry();
            let Some(new_value) = self.fast.locked_advance(&mut inner.wide, target) else {
                return;
            };
            self.stats.record_increment();
            let satisfied = inner.waiting.remove_satisfied(new_value);
            for node in &satisfied {
                node.signal();
                inner.draining.push(Arc::clone(node));
                self.stats.record_notify();
            }
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            self.record(&inner);
            satisfied
        };
        for node in satisfied {
            node.cv.notify_all();
        }
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        if self.fast_enabled && self.fast.is_satisfied(level) {
            self.stats.record_fast_check();
            return Ok(());
        }
        let mut inner = self.lock();
        self.stats.record_slow_entry();
        // Announce intent to wait *before* re-reading the value: the
        // register RMW and fast-path increment CASes hit the same word, so
        // whichever is ordered later sees the other (no missed wakeup; see
        // the fastpath module docs).
        let value = self.fast.register_waiter(inner.wide);
        if value >= level {
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            self.stats.record_check_immediate();
            return Ok(());
        }
        // A wait that would suspend on a poisoned counter fails immediately:
        // the increments it depends on are owed by a thread that is gone.
        if let Some(info) = &inner.poisoned {
            let info = info.clone();
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            return Err(CheckError::Poisoned(info));
        }
        let (node, inserted) = inner.waiting.find_or_insert(level);
        if inserted {
            self.stats.record_node_created();
        }
        node.add_waiter();
        self.stats.record_check_suspended();
        self.record(&inner);
        while !node.is_set() && !node.is_poisoned() {
            inner = node
                .cv
                .wait(inner)
                .expect("counter lock poisoned while waiting");
        }
        let poisoned = node.is_poisoned();
        self.resume_from(&mut inner, &node);
        if poisoned {
            let info = inner
                .poisoned
                .clone()
                .expect("poisoned wait node without a recorded cause");
            return Err(CheckError::Poisoned(info));
        }
        Ok(())
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        if self.fast_enabled && self.fast.is_satisfied(level) {
            self.stats.record_fast_check();
            return Ok(());
        }
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        self.stats.record_slow_entry();
        let value = self.fast.register_waiter(inner.wide);
        if value >= level {
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            self.stats.record_check_immediate();
            return Ok(());
        }
        if let Some(info) = &inner.poisoned {
            let info = info.clone();
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            return Err(CheckError::Poisoned(info));
        }
        let (node, inserted) = inner.waiting.find_or_insert(level);
        if inserted {
            self.stats.record_node_created();
        }
        node.add_waiter();
        self.stats.record_check_suspended();
        self.record(&inner);
        loop {
            // Check order matters: satisfied first (a satisfied level owes
            // nothing, even when poisoning raced in), then poisoned (the
            // node already left the waiting list at poison time, so the
            // timeout-removal branch below must not run for it), then the
            // deadline.
            if node.is_set() {
                self.resume_from(&mut inner, &node);
                return Ok(());
            }
            if node.is_poisoned() {
                self.resume_from(&mut inner, &node);
                let info = inner
                    .poisoned
                    .clone()
                    .expect("poisoned wait node without a recorded cause");
                return Err(CheckError::Poisoned(info));
            }
            let now = Instant::now();
            if now >= deadline {
                // Abandon the wait. If we are the last waiter at this level
                // and the level was never satisfied, the node must leave the
                // waiting list, or a future increment would signal a dead
                // node (harmless) while the list length misreports storage.
                self.stats.record_waiter_resumed();
                if node.remove_waiter() {
                    inner.waiting.remove_level(level);
                    self.stats.record_node_freed();
                    if inner.waiting.is_empty() {
                        self.fast.clear_waiters();
                    }
                }
                self.record(&inner);
                return Err(CheckError::Timeout(CheckTimeoutError { level }));
            }
            let (guard, _timed_out) = node
                .cv
                .wait_timeout(inner, deadline - now)
                .expect("counter lock poisoned while waiting");
            inner = guard;
        }
    }

    fn poison(&self, info: FailureInfo) {
        if !self.poison_enabled {
            return;
        }
        let swept = {
            let mut inner = self.lock();
            if inner.poisoned.is_some() {
                return; // the first failure is the cause; later ones are noise
            }
            self.fast.set_poison();
            inner.poisoned = Some(info);
            // Sweep *every* waiting node (u64::MAX satisfies all levels):
            // each is marked poisoned instead of set and drains through the
            // same last-waiter-frees protocol as a satisfied node.
            let swept = inner.waiting.remove_satisfied(Value::MAX);
            for node in &swept {
                node.poison();
                inner.draining.push(Arc::clone(node));
                self.stats.record_notify();
            }
            self.fast.clear_waiters();
            self.record(&inner);
            swept
        };
        // Broadcast outside the lock, exactly as `increment` does.
        for node in swept {
            node.cv.notify_all();
        }
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        // The packed word's poison bit is set under the same lock that
        // publishes the cause, so a clear bit means "not poisoned" without
        // taking the lock.
        if !self.fast.is_poisoned() {
            return None;
        }
        self.lock().poisoned.clone()
    }
}

impl ResumableCounter for Counter {
    fn resume_from(value: Value) -> Self {
        Self::builder().initial(value).build()
    }
}

impl Resettable for Counter {
    fn reset(&mut self) {
        let inner = self.inner.get_mut().expect("counter lock poisoned");
        debug_assert!(
            inner.waiting.is_empty() && inner.draining.is_empty(),
            "reset called while threads wait on the counter"
        );
        inner.wide = 0;
        inner.poisoned = None;
        self.fast.reset(0);
    }
}

impl CounterDiagnostics for Counter {
    fn debug_value(&self) -> Value {
        // Below FAST_CAP the hint is exact, so no lock is needed; above it
        // the exact value lives in `wide` under the lock.
        let hint = self.fast.value_hint();
        if hint < FAST_CAP {
            hint
        } else {
            self.lock().wide
        }
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn impl_name(&self) -> &'static str {
        if self.fast_enabled {
            "waitlist"
        } else {
            "waitlist-mutex-only"
        }
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.lock()
            .waiting
            .nodes()
            .iter()
            .map(|n| WaitingLevel {
                level: n.level,
                threads: n.waiter_count(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    const SHORT: Duration = Duration::from_millis(50);
    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn new_counter_is_zero() {
        let c = Counter::default();
        assert_eq!(c.debug_value(), 0);
        assert_eq!(c.live_nodes(), 0);
    }

    #[test]
    fn with_value_starts_nonzero() {
        let c = Counter::builder().initial(17).build();
        assert_eq!(c.debug_value(), 17);
        c.check(17); // immediately satisfied
        c.increment(3);
        assert_eq!(c.debug_value(), 20);
    }

    #[test]
    fn check_zero_never_suspends() {
        let c = Counter::default();
        c.check(0);
        assert_eq!(c.stats().immediate_checks, 1);
    }

    #[test]
    fn increment_accumulates() {
        let c = Counter::default();
        c.increment(3);
        c.increment(0);
        c.increment(4);
        assert_eq!(c.debug_value(), 7);
        assert_eq!(c.stats().increments, 3);
    }

    #[test]
    fn check_satisfied_level_is_immediate() {
        let c = Counter::default();
        c.increment(10);
        c.check(10);
        c.check(1);
        let s = c.stats();
        assert_eq!(s.immediate_checks, 2);
        assert_eq!(s.suspensions, 0);
        assert_eq!(s.nodes_created, 0);
    }

    #[test]
    fn waiter_free_workload_never_takes_the_lock() {
        let c = Counter::default();
        for i in 0..100u64 {
            c.increment(1);
            c.check(i / 2);
        }
        c.advance_to(500);
        let s = c.stats();
        assert_eq!(s.slow_path_entries, 0, "no waiter ever existed");
        assert_eq!(s.fast_increments, 101);
        assert_eq!(s.fast_checks, 100);
        assert_eq!(s.increments, 101);
        assert_eq!(s.checks, 100);
    }

    #[test]
    fn mutex_only_counter_reports_slow_entries() {
        let c = Counter::mutex_only();
        c.increment(2);
        c.check(1);
        let s = c.stats();
        assert_eq!(s.fast_increments, 0);
        assert_eq!(s.fast_checks, 0);
        assert_eq!(s.slow_path_entries, 2);
        assert_eq!(c.debug_value(), 2);
        assert_eq!(c.impl_name(), "waitlist-mutex-only");
    }

    #[test]
    fn single_waiter_wakes_at_exact_level() {
        let c = Arc::new(Counter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(5));
        // Raise to just below the level: waiter must stay suspended.
        c.increment(4);
        thread::sleep(SHORT);
        assert!(!h.is_finished(), "waiter woke below its level");
        c.increment(1);
        h.join().unwrap();
        assert_eq!(c.live_nodes(), 0);
    }

    #[test]
    fn one_increment_wakes_multiple_levels() {
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for level in [2u64, 4, 6] {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || c.check(level)));
        }
        // Wait until all three nodes exist.
        while c.live_nodes() < 3 {
            thread::yield_now();
        }
        assert_eq!(c.waiting_levels(), vec![2, 4, 6]);
        c.increment(6); // satisfies all three distinct levels at once
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.live_nodes(), 0);
        assert_eq!(c.stats().nodes_created, 3);
        assert_eq!(c.stats().nodes_freed, 3);
    }

    #[test]
    fn threads_on_same_level_share_one_node() {
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || c.check(3)));
        }
        while c.stats().live_waiters < 8 {
            thread::yield_now();
        }
        // Eight waiters, one distinct level => exactly one node.
        assert_eq!(c.live_nodes(), 1);
        assert_eq!(c.stats().nodes_created, 1);
        c.increment(3);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.live_nodes(), 0);
        assert_eq!(
            c.stats().notifies,
            1,
            "one broadcast wakes all same-level waiters"
        );
    }

    #[test]
    fn partial_increment_wakes_only_satisfied_levels() {
        let c = Arc::new(Counter::default());
        let low = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.check(2))
        };
        let high = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.check(100))
        };
        while c.live_nodes() < 2 {
            thread::yield_now();
        }
        c.increment(50);
        low.join().unwrap();
        thread::sleep(SHORT);
        assert!(!high.is_finished(), "level-100 waiter woke at value 50");
        assert_eq!(c.waiting_levels(), vec![100]);
        c.increment(50);
        high.join().unwrap();
    }

    #[test]
    fn waiters_bit_clears_after_sweep() {
        let c = Arc::new(Counter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(5));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        assert!(c.advertises_waiters(), "registered waiter must set the bit");
        c.increment(5);
        h.join().unwrap();
        assert!(
            !c.advertises_waiters(),
            "bit must clear when the wait list empties"
        );
        // And increments take the fast path again.
        let fast_before = c.stats().fast_increments;
        c.increment(1);
        assert_eq!(c.stats().fast_increments, fast_before + 1);
    }

    #[test]
    fn waiters_bit_clears_when_last_timed_waiter_abandons() {
        let c = Counter::default();
        assert!(c.check_timeout(9, SHORT).is_err());
        assert!(!c.advertises_waiters(), "abandoned waiter left the bit set");
        let fast_before = c.stats().fast_increments;
        c.increment(1);
        assert_eq!(c.stats().fast_increments, fast_before + 1);
    }

    #[test]
    fn check_timeout_ok_when_already_satisfied() {
        let c = Counter::default();
        c.increment(1);
        assert_eq!(c.check_timeout(1, SHORT), Ok(()));
    }

    #[test]
    fn check_timeout_expires_and_cleans_up_node() {
        let c = Counter::default();
        let err = c.check_timeout(5, SHORT).unwrap_err();
        assert_eq!(err.level, 5);
        assert_eq!(c.live_nodes(), 0, "abandoned node must be removed");
        assert_eq!(c.waiting_levels(), Vec::<u64>::new());
    }

    #[test]
    fn check_timeout_succeeds_when_increment_arrives_in_time() {
        let c = Arc::new(Counter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check_timeout(3, LONG));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        c.increment(3);
        assert_eq!(h.join().unwrap(), Ok(()));
    }

    #[test]
    fn timed_out_waiter_does_not_strand_others_at_same_level() {
        let c = Arc::new(Counter::default());
        let c1 = Arc::clone(&c);
        let patient = thread::spawn(move || c1.check(4));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        // A second waiter at the same level times out and abandons.
        assert!(c.check_timeout(4, SHORT).is_err());
        assert_eq!(
            c.live_nodes(),
            1,
            "node must survive while a waiter remains"
        );
        assert!(
            c.advertises_waiters(),
            "bit must survive while a waiter remains"
        );
        c.increment(4);
        patient.join().unwrap();
        assert_eq!(c.live_nodes(), 0);
    }

    #[test]
    fn try_increment_overflow_leaves_counter_usable() {
        let c = Counter::default();
        c.increment(u64::MAX - 1);
        let err = c.try_increment(2).unwrap_err();
        assert_eq!(err.value, u64::MAX - 1);
        assert_eq!(err.amount, 2);
        assert_eq!(c.debug_value(), u64::MAX - 1);
        // Still usable to the limit.
        c.try_increment(1).unwrap();
        assert_eq!(c.debug_value(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn increment_overflow_panics() {
        let c = Counter::default();
        c.increment(u64::MAX);
        c.increment(1);
    }

    #[test]
    fn check_at_u64_max_level_is_satisfiable() {
        let c = Arc::new(Counter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(u64::MAX));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        c.increment(u64::MAX);
        h.join().unwrap();
    }

    #[test]
    fn values_beyond_the_hint_cap_stay_exact() {
        // Crossing FAST_CAP moves the exact value under the lock; arithmetic
        // and checks must remain exact u64 semantics throughout.
        let c = Counter::default();
        c.increment(FAST_CAP - 1);
        assert_eq!(c.debug_value(), FAST_CAP - 1);
        c.increment(2); // crosses the cap
        assert_eq!(c.debug_value(), FAST_CAP + 1);
        c.increment(1);
        assert_eq!(c.debug_value(), FAST_CAP + 2);
        c.check(FAST_CAP + 2);
        c.advance_to(u64::MAX);
        assert_eq!(c.debug_value(), u64::MAX);
        assert!(c.try_increment(1).is_err());
    }

    #[test]
    fn reset_restores_zero() {
        let mut c = Counter::default();
        c.increment(9);
        c.reset();
        assert_eq!(c.debug_value(), 0);
        // Reusable after reset, as in the paper's phase-reuse motivation.
        c.increment(2);
        c.check(2);
    }

    #[test]
    fn waker_order_is_fifo_per_level_completion() {
        // All waiters at distinct ascending levels; a sequence of unit
        // increments must release them in level order.
        let c = Arc::new(Counter::default());
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for level in 1..=6u64 {
            let c = Arc::clone(&c);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                c.check(level);
                // The level can only be recorded after being satisfied;
                // recording under a lock gives a consistent order of the
                // *minimum* satisfied level at each point.
                order.lock().unwrap().push(level);
            }));
        }
        while c.live_nodes() < 6 {
            thread::yield_now();
        }
        for _ in 0..6 {
            c.increment(1);
        }
        for h in handles {
            h.join().unwrap();
        }
        let recorded = order.lock().unwrap().clone();
        let mut sorted = recorded.clone();
        sorted.sort_unstable();
        assert_eq!(recorded.len(), 6);
        assert_eq!(sorted, (1..=6).collect::<Vec<_>>());
    }

    #[test]
    fn stress_many_threads_many_levels() {
        let c = Arc::new(Counter::default());
        let resumed = Arc::new(AtomicUsize::new(0));
        let threads = 32;
        let mut handles = Vec::new();
        for i in 0..threads {
            let c = Arc::clone(&c);
            let resumed = Arc::clone(&resumed);
            handles.push(thread::spawn(move || {
                c.check((i % 8 + 1) as u64 * 10);
                resumed.fetch_add(1, Ordering::Relaxed);
            }));
        }
        while c.stats().live_waiters < threads as u64 {
            thread::yield_now();
        }
        // 8 distinct levels for 32 threads: Section 7 storage property.
        assert_eq!(c.live_nodes(), 8);
        for _ in 0..80 {
            c.increment(1);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(resumed.load(Ordering::Relaxed), threads);
        assert_eq!(c.live_nodes(), 0);
        let s = c.stats();
        assert_eq!(s.nodes_created, 8);
        assert_eq!(s.nodes_freed, 8);
        assert_eq!(s.max_live_waiters, threads as u64);
        assert_eq!(s.max_live_nodes, 8);
    }

    #[test]
    fn debug_format_shows_structure() {
        let c = Counter::default();
        c.increment(3);
        let s = format!("{c:?}");
        assert!(s.contains("value: 3"), "got {s}");
    }

    #[test]
    fn poison_wakes_blocked_waiters_with_the_cause() {
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for level in [5u64, 9] {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || c.wait(level)));
        }
        while c.live_nodes() < 2 {
            thread::yield_now();
        }
        c.poison(FailureInfo::new("producer died"));
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert_eq!(err.failure().unwrap().message(), "producer died");
        }
        assert_eq!(c.live_nodes(), 0, "poisoned nodes must drain and free");
        let s = c.stats();
        assert_eq!(s.nodes_created, s.nodes_freed);
    }

    #[test]
    fn wait_on_poisoned_counter_fails_without_suspending() {
        let c = Counter::default();
        c.poison(FailureInfo::new("boom"));
        let err = c.wait(1).unwrap_err();
        assert!(matches!(err, CheckError::Poisoned(_)));
        let err = c.wait_timeout(1, LONG).unwrap_err();
        assert!(
            matches!(err, CheckError::Poisoned(_)),
            "poison must win over timeout"
        );
        assert_eq!(c.live_nodes(), 0);
    }

    #[test]
    fn satisfied_levels_succeed_even_when_poisoned() {
        let c = Counter::default();
        c.increment(5);
        c.poison(FailureInfo::new("boom"));
        assert!(c.wait(5).is_ok());
        assert!(c.wait_timeout(3, SHORT).is_ok());
        c.check(0); // must not panic: level 0 owes nothing
    }

    #[test]
    fn increments_still_apply_after_poison() {
        let c = Counter::default();
        c.poison(FailureInfo::new("boom"));
        c.increment(4);
        assert_eq!(c.debug_value(), 4);
        assert!(c.wait(4).is_ok(), "newly satisfied level succeeds");
        assert!(c.wait(5).is_err(), "would-block wait still fails");
    }

    #[test]
    fn first_poison_wins() {
        let c = Counter::default();
        c.poison(FailureInfo::new("first"));
        c.poison(FailureInfo::new("second"));
        assert_eq!(c.poison_info().unwrap().message(), "first");
    }

    #[test]
    fn poison_info_is_none_until_poisoned() {
        let c = Counter::default();
        assert!(c.poison_info().is_none());
        c.poison(FailureInfo::new("x").with_level(3));
        let info = c.poison_info().unwrap();
        assert_eq!(info.level(), Some(3));
    }

    #[test]
    #[should_panic(expected = "monotonic counter poisoned")]
    fn check_panics_on_poisoned_counter() {
        let c = Counter::default();
        c.poison(FailureInfo::new("dead increment owner"));
        c.check(1);
    }

    #[test]
    fn poisoned_timed_waiter_reports_poison_not_timeout() {
        let c = Arc::new(Counter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait_timeout(7, LONG));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        c.poison(FailureInfo::new("late failure"));
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, CheckError::Poisoned(_)));
        assert_eq!(c.live_nodes(), 0);
    }

    #[test]
    fn poison_clears_waiters_bit_so_fast_increments_resume() {
        let c = Arc::new(Counter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait(5));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        assert!(c.advertises_waiters());
        c.poison(FailureInfo::new("x"));
        h.join().unwrap().unwrap_err();
        assert!(!c.advertises_waiters());
        let fast_before = c.stats().fast_increments;
        c.increment(1);
        assert_eq!(
            c.stats().fast_increments,
            fast_before + 1,
            "increments with only the poison bit set stay on the fast path"
        );
    }

    #[test]
    fn reset_clears_poison() {
        let mut c = Counter::default();
        c.poison(FailureInfo::new("old phase"));
        c.reset();
        assert!(c.poison_info().is_none());
        c.increment(1);
        // A would-block wait now times out (the fresh phase is merely
        // unsatisfied), instead of reporting the stale poisoning.
        assert!(matches!(
            c.wait_timeout(2, SHORT),
            Err(CheckError::Timeout(_))
        ));
    }

    #[test]
    fn waiters_reports_levels_and_thread_counts() {
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for level in [3u64, 3, 8] {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || c.check(level)));
        }
        while c.stats().live_waiters < 3 {
            thread::yield_now();
        }
        let w = c.waiters();
        assert_eq!(w.len(), 2);
        assert_eq!(
            w[0],
            WaitingLevel {
                level: 3,
                threads: 2
            }
        );
        assert_eq!(
            w[1],
            WaitingLevel {
                level: 8,
                threads: 1
            }
        );
        c.increment(8);
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.waiters().is_empty());
    }
}
