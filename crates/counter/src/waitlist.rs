//! [`WaitlistCounter`]: the paper's Section 7 implementation, with the
//! packed-word fast path layered on top, written once over a choice of
//! [`WaitQueue`].
//!
//! One mutex protects (wide value, ordered waiting queue); each distinct
//! waited level owns one node with a condition variable; `increment` detaches
//! the satisfied prefix of the queue, signals it, and broadcasts; woken
//! threads drain their node and the last one releases it. The two-tier fast
//! path (see [`crate::fastpath`]) lets an already-satisfied `check` return
//! after one atomic load and a waiter-free `increment` complete with one CAS,
//! so the mutex is only ever taken when a thread actually suspends or must be
//! woken. A counter built with
//! [`spin_before_suspend`](CounterBuilder::spin_before_suspend) also lets a
//! waiter that is next in line poll the word for up to [`SPIN_BUDGET`]
//! before it takes the mutex, so a quick hand-off skips the slow path on
//! both sides.
//!
//! The queue is the only part that varies, and experiment E7 ablates it:
//! [`Counter`] keeps the paper's sorted linked list ([`SortedList`]),
//! [`BTreeCounter`] a `BTreeMap` with O(log L) level lookup,
//! [`NaiveCounter`] one node that every change sweeps ([`OneLevel`]), and
//! [`SpinCounter`] no node at all ([`Polling`]); [`Traced`] is the sorted
//! list of [`TracingCounter`](crate::TracingCounter), which logs Figure 2.
//! Each queue fixes how its waiters wait ([`Wait`](queue::Wait)); poison,
//! timeouts, statistics, the trace and diagnostics are this one type's, and
//! the slow path records them under the lock that orders every change to
//! the wait structure. The slow-path steps here (the locked value change,
//! suspend, poison) also serve [`crate::ShardedCounter`], whose combiner
//! publishes into a [`BTreeCounter`]'s word and waitlist.

use crate::builder::{BuildConfig, Buildable, CounterBuilder};
use crate::error::{
    CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo, POISONED_PANIC_PREFIX,
};
use crate::fastpath::{FastAdvance, FastIncrement, FastWord, Poll, FAST_CAP};
use crate::list::SortedList;
use crate::node::WaitNode;
use crate::stats::{Stats, StatsSnapshot, Tallies};
use crate::trace::{snapshot_of, CounterSnapshot, Traced};
use crate::traits::{CounterDiagnostics, MonotonicCounter, Resettable, WaitingLevel};
use crate::Value;
use queue::{Queue, Wait};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a waiter that is next in line polls before it suspends, on a
/// counter built with
/// [`spin_before_suspend`](CounterBuilder::spin_before_suspend). About three
/// futex wake-to-run hand-offs on a 2-vCPU host (6.4–7.5 µs each at the
/// median), so a waiter whose increment is slower loses little by having
/// polled.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// The build-time spin decision: spinning was requested and there is a
/// second CPU to run the incrementer while the waiter polls. `cpus` is
/// called only when spinning is requested, since counting CPUs costs tens
/// of microseconds.
fn spin_enabled(requested: bool, cpus: impl FnOnce() -> usize) -> bool {
    requested && cpus() > 1
}

/// The `BTreeMap` queue strategy.
pub(crate) type WaitMap = BTreeMap<Value, Arc<WaitNode>>;

/// The paper's Section 7 counter: the sorted-list instantiation of
/// [`WaitlistCounter`].
///
/// # Example
///
/// ```
/// use mc_counter::{Counter, MonotonicCounter};
/// let c = Counter::builder().build();
/// c.increment(5);
/// c.check(5); // already satisfied: returns immediately
/// ```
pub type Counter = WaitlistCounter<SortedList>;

/// The Section 7 algorithm with the ordered waiting queue stored in a
/// `BTreeMap` instead of the paper's linked list: level lookup on the slow
/// path is O(log L) rather than O(L). Semantically interchangeable with
/// [`Counter`].
pub type BTreeCounter = WaitlistCounter<WaitMap>;

/// The strawman the paper's Section 7 improves on: one suspension queue,
/// and every change wakes every waiter, which re-tests its own level and
/// usually sleeps again. Wakeup work is O(waiting threads) per increment
/// instead of O(satisfied levels), and every operation takes the lock.
/// A counter written as a Section 8 predicate monitor (one lock, one
/// condition variable, `notify_all` on each change) behaves exactly so.
/// Semantically interchangeable with [`Counter`]; the [`OneLevel`]
/// instantiation of [`WaitlistCounter`].
pub type NaiveCounter = WaitlistCounter<OneLevel>;

/// A counter whose waiters never suspend: they poll the value, yielding
/// the CPU every 64 polls, so no suspension queue exists at all, the
/// opposite end of the design space from Section 7. Competitive when waits
/// are very short and CPUs plentiful; wasteful otherwise. Semantically
/// interchangeable with [`Counter`]; the [`Polling`] instantiation of
/// [`WaitlistCounter`].
pub type SpinCounter = WaitlistCounter<Polling>;

pub(crate) mod queue {
    use crate::node::WaitNode;
    use crate::Value;
    use std::sync::Arc;

    /// How a waiter on a queue waits: with the storage, the one thing the
    /// queues of experiment E7 vary.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Wait {
        /// Sleeps on the node for its own level until that level is
        /// satisfied: the paper's Section 7.
        OwnLevel,
        /// Sleeps on the node one above the value it saw, so every change
        /// wakes it, then re-tests its own level. The fast tier is off, so
        /// every change takes the lock and sweeps that node.
        NextValue,
        /// Never registers: polls the packed word until satisfied, poisoned
        /// or past the deadline, yielding every 64 polls.
        Poll,
    }

    impl Wait {
        /// The level a waiter for `level` registers at after seeing `value`.
        pub fn register_at(self, level: Value, value: Value) -> Value {
            match self {
                Wait::NextValue => level.min(value.saturating_add(1)),
                Wait::OwnLevel | Wait::Poll => level,
            }
        }
    }

    /// The operations a [`WaitlistCounter`](super::WaitlistCounter) needs
    /// from its waiting queue. Kept in a crate-private module so
    /// [`WaitQueue`](super::WaitQueue) stays sealed.
    ///
    /// Invariants (the paper's): nodes are ordered by ascending level, each
    /// level appears at most once (all threads waiting on one level share
    /// one node), and the queue never holds a level the counter value
    /// satisfies.
    pub trait Queue: Default + Send + 'static {
        /// `impl_name` of the counter on this queue: fast path on, off.
        const NAMES: [&'static str; 2];

        /// How the counter's waiters wait.
        const WAIT: Wait = Wait::OwnLevel;

        /// Whether the counter logs its structure at every transition
        /// (Figure 2). Its fast tier is then off, because the fast path
        /// bypasses the lock the log is kept under.
        const TRACED: bool = false;

        /// Number of nodes (distinct levels).
        fn len(&self) -> usize;

        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The node for `level`, inserted if absent: `(node, inserted)`.
        fn find_or_insert(&mut self, level: Value) -> (Arc<WaitNode>, bool);

        /// Removes and returns every node with level <= `value`, ascending.
        fn remove_satisfied(&mut self, value: Value) -> Vec<Arc<WaitNode>>;

        /// Removes the node at exactly `level`, if present (the last waiter
        /// of an unsatisfied level timed out).
        fn remove_level(&mut self, level: Value) -> Option<Arc<WaitNode>>;

        /// Every node, in ascending level order (diagnostics).
        fn nodes(&self) -> Vec<Arc<WaitNode>>;
    }
}

/// The waiting structure a [`WaitlistCounter`] suspends threads on: one wait
/// node per distinct waited level, in ascending level order.
///
/// Sealed. It is implemented by five queue strategies. Experiment E7
/// ablates four: [`SortedList`], the paper's sorted linked list (Figure 2);
/// `BTreeMap`; [`OneLevel`], the naive single queue; and [`Polling`], which
/// holds nothing because its waiters poll. The fifth, [`Traced`], is the
/// sorted list of a counter that logs its structure to reproduce Figure 2.
/// Each strategy also fixes how its waiters wait, so
/// [`CounterBuilder::spin_before_suspend`] only applies to the first two.
pub trait WaitQueue: Queue {}

impl WaitQueue for SortedList {}
impl WaitQueue for WaitMap {}
impl WaitQueue for OneLevel {}
impl WaitQueue for Polling {}
impl WaitQueue for Traced {}

/// The queue of [`NaiveCounter`]: at most one node, one above the counter
/// value. Every waiter registers there, so the next change wakes them all
/// and each re-tests its own level.
#[derive(Default)]
pub struct OneLevel(Option<Arc<WaitNode>>);

impl Queue for OneLevel {
    const NAMES: [&'static str; 2] = ["naive-broadcast"; 2];
    const WAIT: Wait = Wait::NextValue;

    fn len(&self) -> usize {
        usize::from(self.0.is_some())
    }

    /// A present node is at `level`: every waiter registers one above the
    /// value, and every change takes the lock and sweeps that node.
    fn find_or_insert(&mut self, level: Value) -> (Arc<WaitNode>, bool) {
        if let Some(node) = &self.0 {
            return (Arc::clone(node), false);
        }
        let node = Arc::new(WaitNode::new(level));
        self.0 = Some(Arc::clone(&node));
        (node, true)
    }

    fn remove_satisfied(&mut self, value: Value) -> Vec<Arc<WaitNode>> {
        self.0.take_if(|n| n.level <= value).into_iter().collect()
    }

    fn remove_level(&mut self, level: Value) -> Option<Arc<WaitNode>> {
        self.0.take_if(|n| n.level == level)
    }

    fn nodes(&self) -> Vec<Arc<WaitNode>> {
        self.0.iter().cloned().collect()
    }
}

/// The queue of [`SpinCounter`]: always empty, because its waiters poll the
/// packed word instead of registering.
#[derive(Default)]
pub struct Polling;

impl Queue for Polling {
    const NAMES: [&'static str; 2] = ["spin", "spin-mutex-only"];
    const WAIT: Wait = Wait::Poll;

    fn len(&self) -> usize {
        0
    }

    /// Never called: a polling waiter never suspends, so no node is kept.
    fn find_or_insert(&mut self, level: Value) -> (Arc<WaitNode>, bool) {
        (Arc::new(WaitNode::new(level)), true)
    }

    fn remove_satisfied(&mut self, _value: Value) -> Vec<Arc<WaitNode>> {
        Vec::new()
    }

    fn remove_level(&mut self, _level: Value) -> Option<Arc<WaitNode>> {
        None
    }

    fn nodes(&self) -> Vec<Arc<WaitNode>> {
        Vec::new()
    }
}

impl Queue for WaitMap {
    const NAMES: [&'static str; 2] = ["btree", "btree-mutex-only"];

    fn len(&self) -> usize {
        BTreeMap::len(self)
    }

    fn find_or_insert(&mut self, level: Value) -> (Arc<WaitNode>, bool) {
        let mut inserted = false;
        let node = self.entry(level).or_insert_with(|| {
            inserted = true;
            Arc::new(WaitNode::new(level))
        });
        (Arc::clone(node), inserted)
    }

    fn remove_satisfied(&mut self, value: Value) -> Vec<Arc<WaitNode>> {
        match value.checked_add(1) {
            Some(next) => {
                let rest = self.split_off(&next);
                std::mem::replace(self, rest).into_values().collect()
            }
            // value == u64::MAX satisfies every possible level.
            None => std::mem::take(self).into_values().collect(),
        }
    }

    fn remove_level(&mut self, level: Value) -> Option<Arc<WaitNode>> {
        self.remove(&level)
    }

    fn nodes(&self) -> Vec<Arc<WaitNode>> {
        self.values().cloned().collect()
    }
}

/// What a [locked value change](WaitlistCounter::change) does after its
/// publish hook.
pub(crate) enum Change {
    /// Adds the amount; the one change that can fail (overflow).
    Add(Value),
    /// Raises the value to the target, if it is below it.
    AdvanceTo(Value),
    /// Nothing: the hook's publication is the whole change.
    Publish,
}

pub(crate) struct Inner<Q> {
    /// The exact value once the packed hint has saturated at
    /// [`FAST_CAP`]; stale (and unused) below that. See the `fastpath`
    /// module docs.
    pub(crate) wide: Value,
    /// Nodes for levels still unsatisfied. Never contains a level <= value.
    pub(crate) waiting: Q,
    /// Nodes whose level has been satisfied but whose waiters have not all
    /// resumed yet — these are the "set" nodes still drawn in the waiting
    /// structure of Figure 2 (e) and (f). The last waiter to resume removes
    /// its node from here. Poisoned nodes drain through here too.
    pub(crate) draining: Vec<Arc<WaitNode>>,
    /// The first poisoning cause, if any. Set at most once.
    pub(crate) poisoned: Option<FailureInfo>,
    /// What the slow path records, bumped under this lock.
    pub(crate) stats: Tallies,
    /// The structure after every transition, oldest first, on a
    /// [`Traced`] queue; always empty on the others.
    pub(crate) trace: Vec<CounterSnapshot>,
}

/// A monotonic counter: a packed-word fast path over one lock plus an
/// ordered queue `Q` of condition-variable nodes, the structure of the
/// paper's Section 7 and Figure 2. Use it as [`Counter`] or
/// [`BTreeCounter`]; [`NaiveCounter`] and [`SpinCounter`] are the E7
/// baselines on the same type, whose queues change how waiters wait, and
/// [`TracingCounter`](crate::TracingCounter) logs its structure.
///
/// * `check` with a satisfied level returns after a single atomic load.
/// * `increment` with no registered waiters is a single CAS.
/// * `check` with an unsatisfied level finds-or-inserts the node for that
///   level and suspends on its condition variable; all threads waiting on the
///   same level share one node. With
///   [`spin_before_suspend`](CounterBuilder::spin_before_suspend), a waiter
///   whose level is at most one above the value first polls the word for up
///   to 20 µs.
/// * `increment` while waiters exist takes the lock, bumps the value and
///   removes every node whose level the new value satisfies from the queue,
///   sets its signal flag, and broadcasts.
///
/// Storage and operation time on the slow path are proportional to the number
/// of **distinct levels currently waited on**, not to the number of waiting
/// threads. The fast paths add no per-level storage; the only fixed cost is
/// the stats tier's 1 KiB of per-thread tally stripes.
pub struct WaitlistCounter<Q: WaitQueue> {
    pub(crate) fast: FastWord,
    /// `false` disables the lock-free tier so every operation takes the
    /// mutex — the ablation baseline for experiment E8 and the mode used
    /// while tracing (every transition must be recorded under the lock).
    fast_enabled: bool,
    inner: Mutex<Inner<Q>>,
    /// The lock-free tiers' tallies; the slow path's are in `inner`.
    pub(crate) stats: Stats,
    /// Spinning was requested and the building thread saw more than one
    /// CPU ([`spin_enabled`]). Read only by the cold
    /// [`wait_until`](Self::wait_until).
    spin: bool,
}

impl<Q: WaitQueue> Default for WaitlistCounter<Q> {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl<Q: WaitQueue> Buildable for WaitlistCounter<Q> {
    fn from_config(cfg: &BuildConfig) -> Self {
        WaitlistCounter {
            fast: FastWord::new(cfg.initial()),
            // A naive waiter sleeps one above the value, so every change
            // must take the lock to wake it; a traced counter logs every
            // change under the lock.
            fast_enabled: Q::WAIT != Wait::NextValue && !Q::TRACED,
            inner: Mutex::new(Inner {
                wide: cfg.initial(),
                waiting: Q::default(),
                draining: Vec::new(),
                poisoned: None,
                stats: Tallies::default(),
                // The log opens with the construction state, Figure 2 (a).
                trace: if Q::TRACED {
                    vec![CounterSnapshot::of(cfg.initial(), &[])]
                } else {
                    Vec::new()
                },
            }),
            stats: Stats::default(),
            // Decided here, on the building thread: a waiter pinned to one
            // CPU would count one and never spin.
            spin: spin_enabled(cfg.spin_before_suspend(), || {
                std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
            }),
        }
    }
}

impl<Q: WaitQueue> std::fmt::Debug for WaitlistCounter<Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("WaitlistCounter")
            .field("value", &self.fast.locked_value(inner.wide))
            .field("waiting_levels", &levels(&inner.waiting))
            .field("draining", &inner.draining.len())
            .finish()
    }
}

fn levels(queue: &impl Queue) -> Vec<Value> {
    queue.nodes().iter().map(|n| n.level).collect()
}

/// The failure of a wait that saw the counter poisoned: a poisoned node or
/// the poison bit, each set under the lock that records the cause.
fn poisoned<Q>(inner: &Inner<Q>) -> CheckError {
    CheckError::Poisoned(
        inner
            .poisoned
            .clone()
            .expect("poisoned wait without a recorded cause"),
    )
}

impl<Q: WaitQueue> WaitlistCounter<Q> {
    /// Starts building a counter: set the knobs, then
    /// [`build`](CounterBuilder::build).
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// Creates a counter with the fast path disabled: every operation takes
    /// the mutex, exactly the seed Section 7 implementation. This is the
    /// ablation baseline the E8 experiment compares the fast path against.
    pub fn mutex_only() -> Self {
        WaitlistCounter {
            fast_enabled: false,
            ..Self::builder().build()
        }
    }

    /// Appends the current structure to the trace log, on a [`Traced`]
    /// queue.
    fn record(&self, inner: &mut Inner<Q>) {
        if Q::TRACED {
            let snapshot = snapshot_of(inner, self.fast.locked_value(inner.wide));
            inner.trace.push(snapshot);
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner<Q>> {
        // Lock poisoning can only arise from a panic inside these short
        // critical sections, which would indicate a bug in this crate, not in
        // user code; propagating the panic is the correct response.
        self.inner.lock().expect("counter lock poisoned")
    }

    /// Takes the lock for a slow-path step and counts the entry.
    pub(crate) fn enter(&self) -> MutexGuard<'_, Inner<Q>> {
        let mut inner = self.lock();
        inner.stats.slow_path_entries += 1;
        inner
    }

    /// Detaches every waiting node `value` satisfies, signals it, and moves
    /// it to the draining list. Returns the nodes for [`release`] to wake.
    /// Leaves the waiters bit alone: the caller may be registering a waiter.
    ///
    /// [`release`]: Self::release
    pub(crate) fn sweep(&self, inner: &mut Inner<Q>, value: Value) -> Vec<Arc<WaitNode>> {
        let satisfied = inner.waiting.remove_satisfied(value);
        for node in &satisfied {
            node.signal();
            inner.draining.push(Arc::clone(node));
            inner.stats.notifies += 1;
        }
        satisfied
    }

    /// Ends a slow-path step that changed the value or poisoned: clears the
    /// waiters bit if no level is left waiting, records the trace, unlocks,
    /// and only then broadcasts to the swept nodes. Their flag is already
    /// set under the lock, so a waiter that re-checks before the notify
    /// arrives simply leaves its wait loop; nobody can miss the wakeup.
    pub(crate) fn release(&self, mut inner: MutexGuard<'_, Inner<Q>>, woken: Vec<Arc<WaitNode>>) {
        if inner.waiting.is_empty() {
            self.fast.clear_waiters();
        }
        self.record(&mut inner);
        drop(inner);
        for node in woken {
            node.cv.notify_all();
        }
    }

    /// Every increment: the fast CAS when the tier is enabled, with
    /// `record_fast` tallying a hit, else [`raise`](Self::raise).
    #[inline]
    fn add(&self, amount: Value, record_fast: impl FnOnce()) -> Result<(), CounterOverflowError> {
        if self.fast_enabled {
            match self.fast.try_increment(amount) {
                FastIncrement::Done => {
                    record_fast();
                    return Ok(());
                }
                FastIncrement::Overflow(e) => return Err(e),
                FastIncrement::Contended => {}
            }
        }
        self.raise(amount)
    }

    /// Core of the slow-path `increment`/`try_increment`. Cold, like
    /// [`wait_until`](Self::wait_until), so the fast path stays small where
    /// it is inlined.
    #[cold]
    fn raise(&self, amount: Value) -> Result<(), CounterOverflowError> {
        self.change(Change::Add(amount), |_| Vec::new())
    }

    /// The one locked value change, under [`enter`](Self::enter): `publish`
    /// runs first, as in [`poison_with`](Self::poison_with), then `change`;
    /// a moved value tallies one increment and is swept. Swept nodes are
    /// woken even if the add overflows; a step that swept nothing and moved
    /// nothing only unlocks.
    pub(crate) fn change(
        &self,
        change: Change,
        publish: impl FnOnce(&mut Inner<Q>) -> Vec<Arc<WaitNode>>,
    ) -> Result<(), CounterOverflowError> {
        let mut inner = self.enter();
        let mut woken = publish(&mut inner);
        let moved = match change {
            Change::Add(amount) => self.fast.locked_add(&mut inner.wide, amount).map(Some),
            Change::AdvanceTo(target) => Ok(self.fast.locked_advance(&mut inner.wide, target)),
            Change::Publish => Ok(None),
        };
        if let Ok(Some(value)) = moved {
            inner.stats.increments += 1;
            // Keeps the sweep's vector: no allocation when the hook swept
            // nothing.
            let published = std::mem::replace(&mut woken, self.sweep(&mut inner, value));
            woken.extend(published);
        }
        if matches!(moved, Ok(Some(_))) || !woken.is_empty() {
            self.release(inner, woken);
        }
        moved.map(drop)
    }

    /// The one suspension path. Called with the lock held and the waiters
    /// bit registered; `value` is the counter value the registration
    /// observed. Returns at once if `value` reaches `level` and fails if the
    /// counter is poisoned; otherwise joins the node for `level` and sleeps
    /// on its condition variable until the level is satisfied, the counter
    /// is poisoned, or `deadline` passes. A `None` deadline never reads the
    /// clock.
    pub(crate) fn suspend(
        &self,
        mut inner: MutexGuard<'_, Inner<Q>>,
        level: Value,
        value: Value,
        deadline: Option<Instant>,
    ) -> Result<(), CheckError> {
        if value >= level {
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            inner.stats.check_immediate();
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
            inner.stats.node_created();
        }
        node.add_waiter();
        inner.stats.check_suspended();
        self.record(&mut inner);
        // Satisfied and poisoned exclude each other (both sweeps take the
        // node off the waiting queue), and either one ends the wait before
        // the deadline is consulted: a poisoned node already left the queue,
        // so the timeout removal below must not run for it.
        while !node.is_set() && !node.is_poisoned() {
            inner = match deadline {
                None => node
                    .cv
                    .wait(inner)
                    .expect("counter lock poisoned while waiting"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        // Abandon the wait. If we are the last waiter at
                        // this level and the level was never satisfied, the
                        // node must leave the waiting queue, or a future
                        // increment would signal a dead node (harmless)
                        // while the queue length misreports storage.
                        inner.stats.live_waiters -= 1;
                        inner.stats.timeouts += 1;
                        if node.remove_waiter() {
                            inner.waiting.remove_level(level);
                            inner.stats.nodes_freed += 1;
                            if inner.waiting.is_empty() {
                                self.fast.clear_waiters();
                            }
                        }
                        self.record(&mut inner);
                        return Err(CheckError::Timeout(CheckTimeoutError { level }));
                    }
                    node.cv
                        .wait_timeout(inner, deadline - now)
                        .expect("counter lock poisoned while waiting")
                        .0
                }
            };
        }
        // Deregister; the last waiter removes the node from the draining
        // list.
        inner.stats.live_waiters -= 1;
        if node.remove_waiter() {
            inner.draining.retain(|n| !Arc::ptr_eq(n, &node));
            inner.stats.nodes_freed += 1;
        }
        self.record(&mut inner);
        if node.is_poisoned() {
            return Err(poisoned(&inner));
        }
        Ok(())
    }

    /// The slow-path wait: on a polling queue, [`poll_wait`]; on a
    /// spinning counter, first [`spin_until`]; then register as a waiter
    /// and [`suspend`] at the level the queue's [`Wait`] policy names,
    /// again after each wake until that level is `level` (at once for
    /// [`Wait::OwnLevel`]).
    ///
    /// [`poll_wait`]: Self::poll_wait
    /// [`spin_until`]: Self::spin_until
    /// [`suspend`]: Self::suspend
    #[cold]
    fn wait_until(&self, level: Value, deadline: Option<Instant>) -> Result<(), CheckError> {
        if Q::WAIT == Wait::Poll {
            return self.poll_wait(level, deadline);
        }
        if self.spin && self.fast_enabled {
            let hint = self.fast.value_hint();
            if hint >= level {
                // An increment landed after the caller's fast check missed:
                // this read is a satisfied fast check, not a spin.
                self.stats.record_fast_check();
                return Ok(());
            }
            if self.spin_until(hint, level, deadline) {
                self.stats.record_spin_check();
                return Ok(());
            }
        }
        loop {
            let inner = self.enter();
            // Announce intent to wait *before* re-reading the value: the
            // register RMW and fast-path increment CASes hit the same word,
            // so whichever is ordered later sees the other (no missed
            // wakeup; see the fastpath module docs).
            let value = self.fast.register_waiter(inner.wide);
            let target = Q::WAIT.register_at(level, value);
            match self.suspend(inner, target, value, deadline) {
                Ok(()) if target < level => {}
                // The caller's level timed out, not the one slept on.
                Err(CheckError::Timeout(_)) => {
                    return Err(CheckError::Timeout(CheckTimeoutError { level }))
                }
                done => return done,
            }
        }
    }

    /// Polls the packed word while the waiter is next in line (`level` one
    /// above `hint`, the gate's unsatisfied read of the word), for at most
    /// [`SPIN_BUDGET`] and never past `deadline`. True when the level was
    /// seen satisfied. False at once for a waiter further behind, and as
    /// soon as the poison bit is set, leaving the verdict to the slow path.
    ///
    /// The poll only reads the word, before the waiter registers, so the
    /// missed-wakeup argument of the `fastpath` module is untouched: a level
    /// the poll saw satisfied stays satisfied, and a waiter that stops
    /// polling registers exactly as it would have without polling.
    fn spin_until(&self, hint: Value, level: Value, deadline: Option<Instant>) -> bool {
        // A saturated hint never moves again, so only exact values are
        // worth polling.
        if hint >= FAST_CAP || hint + 1 < level {
            return false;
        }
        let budget_end = Instant::now() + SPIN_BUDGET;
        let end = deadline.map_or(budget_end, |d| d.min(budget_end));
        self.poll_until(level, Some(end), false) == Poll::Satisfied
    }

    /// The [`Polling`] queue's wait: [`poll_until`](Self::poll_until) the
    /// level is satisfied, the counter poisoned or `deadline` past, without
    /// registering, so incrementers stay on their CAS. The poller counts as
    /// a live waiter meanwhile: it takes the lock to tally its start and
    /// its end, not as a slow-path entry.
    fn poll_wait(&self, level: Value, deadline: Option<Instant>) -> Result<(), CheckError> {
        self.lock().stats.check_suspended();
        let poll = self.poll_until(level, deadline, true);
        let mut inner = self.lock();
        inner.stats.live_waiters -= 1;
        match poll {
            Poll::Satisfied => Ok(()),
            Poll::Poisoned => Err(poisoned(&inner)),
            Poll::Pending => {
                inner.stats.timeouts += 1;
                Err(CheckError::Timeout(CheckTimeoutError { level }))
            }
        }
    }

    /// Polls `level` until it is satisfied or the counter is poisoned, or
    /// returns [`Poll::Pending`] once `end` passes. A `patient` poller
    /// yields its CPU every 64 polls, so an incrementer sharing it can run.
    fn poll_until(&self, level: Value, end: Option<Instant>, patient: bool) -> Poll {
        let mut polls = 0u32;
        loop {
            match self.poll(level) {
                Poll::Pending if end.is_some_and(|end| Instant::now() >= end) => {
                    return Poll::Pending
                }
                Poll::Pending => {
                    polls = polls.wrapping_add(1);
                    if patient && polls.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                done => return done,
            }
        }
    }

    /// One poll of `level`: the packed word, or beyond [`FAST_CAP`], where
    /// the word's hint stops moving, the exact value under the lock.
    fn poll(&self, level: Value) -> Poll {
        if level <= FAST_CAP {
            return self.fast.poll(level);
        }
        let inner = self.lock();
        if self.fast.locked_value(inner.wide) >= level {
            Poll::Satisfied
        } else if inner.poisoned.is_some() {
            Poll::Poisoned
        } else {
            Poll::Pending
        }
    }

    /// Poisons the counter unless already poisoned. `publish` runs first
    /// under the lock and returns nodes it has already swept, so a caller
    /// holding unpublished increments can let the levels they satisfy
    /// succeed before the rest fail.
    pub(crate) fn poison_with(
        &self,
        info: FailureInfo,
        publish: impl FnOnce(&mut Inner<Q>) -> Vec<Arc<WaitNode>>,
    ) {
        let mut inner = self.lock();
        if inner.poisoned.is_some() {
            return; // the first failure is the cause; later ones are noise
        }
        inner.stats.poisons += 1;
        let mut swept = publish(&mut inner);
        self.fast.set_poison();
        inner.poisoned = Some(info);
        // Sweep *every* waiting node (u64::MAX satisfies all levels): each
        // is marked poisoned instead of set and drains through the same
        // last-waiter-frees protocol as a satisfied node.
        for node in inner.waiting.remove_satisfied(Value::MAX) {
            node.poison();
            inner.draining.push(Arc::clone(&node));
            inner.stats.notifies += 1;
            swept.push(node);
        }
        self.release(inner, swept);
    }

    /// Levels currently waited on, in ascending order (diagnostics/tests).
    pub fn waiting_levels(&self) -> Vec<Value> {
        levels(&self.lock().waiting)
    }

    /// Number of live wait nodes: unsatisfied levels plus satisfied levels
    /// still draining (diagnostics/tests, Section 7 storage measurements).
    pub fn live_nodes(&self) -> usize {
        let inner = self.lock();
        inner.waiting.len() + inner.draining.len()
    }

    /// One thread's [`Cursor`] on this counter: its checks at or below the
    /// highest value it has observed cost no atomic operation, and its
    /// lock-free tallies reach [`stats`](CounterDiagnostics::stats) when it
    /// drops.
    pub fn cursor(&self) -> Cursor<'_, Q> {
        Cursor {
            counter: self,
            bound: 0,
            fast_checks: 0,
            fast_increments: 0,
        }
    }
}

/// One thread's handle on a [`WaitlistCounter`] that remembers the highest
/// value its checks have observed, so a check at or below it returns with
/// no atomic operation. Made by [`WaitlistCounter::cursor`].
///
/// A lower bound observed on a monotonic value never goes stale, so a
/// skipped check is as correct as the check that observed the bound, and
/// carries its happens-before edge (see `docs/IMPLEMENTATION.md`,
/// "Cursors"). A check above the bound runs the counter's own fast check,
/// whose value becomes the new bound, and falls back to the counter's wait;
/// `increment` runs the counter's fast CAS and falls back to its slow path.
/// On a counter with the fast tier disabled (`mutex_only`, traced) every
/// operation takes the slow path, as it does through the counter.
///
/// The cursor has no getter for its bound: like the counter, it answers
/// only whether a level is reached, so the paper's no-probe rule holds.
///
/// Its fast checks (skipped ones included) and fast increments are kept in
/// plain fields and added to the counter's statistics when it drops, so
/// [`StatsSnapshot`] omits them while the cursor lives and is exact once it
/// is gone.
///
/// # Example
///
/// ```
/// use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter};
/// let c = Counter::builder().build();
/// c.increment(10);
/// let mut cursor = c.cursor();
/// cursor.check(4); // one load observes 10
/// cursor.check(10); // at the bound: no atomic operation
/// drop(cursor);
/// assert_eq!(c.stats().fast_checks, 2);
/// ```
pub struct Cursor<'a, Q: WaitQueue> {
    counter: &'a WaitlistCounter<Q>,
    /// The highest value observed: every level up to it is satisfied.
    bound: Value,
    fast_checks: u64,
    fast_increments: u64,
}

impl<Q: WaitQueue> Cursor<'_, Q> {
    /// [`MonotonicCounter::check`] through the cursor.
    ///
    /// # Panics
    ///
    /// Panics with the recorded cause if the counter is poisoned before
    /// `level` is reached.
    #[inline]
    pub fn check(&mut self, level: Value) {
        if let Err(CheckError::Poisoned(info)) = self.wait(level) {
            panic!("{POISONED_PANIC_PREFIX}: {info}");
        }
    }

    /// [`MonotonicCounter::wait`] through the cursor: a level at or below
    /// the bound succeeds at once, even on a poisoned counter.
    #[inline]
    pub fn wait(&mut self, level: Value) -> Result<(), CheckError> {
        let counter = self.counter;
        if counter.fast_enabled {
            if level > self.bound {
                self.bound = self.bound.max(counter.fast.value_hint());
            }
            if level <= self.bound {
                self.fast_checks += 1;
                return Ok(());
            }
        }
        counter.wait_until(level, None)?;
        self.bound = self.bound.max(level);
        Ok(())
    }

    /// [`MonotonicCounter::increment`] through the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the counter would overflow.
    #[inline]
    pub fn increment(&mut self, amount: Value) {
        let counter = self.counter;
        counter
            .add(amount, || self.fast_increments += 1)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }
}

impl<Q: WaitQueue> Drop for Cursor<'_, Q> {
    fn drop(&mut self) {
        self.counter
            .stats
            .record_cursor(self.fast_increments, self.fast_checks);
    }
}

impl<Q: WaitQueue> MonotonicCounter for WaitlistCounter<Q> {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        self.add(amount, || self.stats.record_fast_increment())
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
        let _ = self.change(Change::AdvanceTo(target), |_| Vec::new());
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        if self.fast_enabled && self.fast.is_satisfied(level) {
            self.stats.record_fast_check();
            return Ok(());
        }
        self.wait_until(level, None)
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        if self.fast_enabled && self.fast.is_satisfied(level) {
            self.stats.record_fast_check();
            return Ok(());
        }
        // A timeout too long to represent is no deadline at all.
        self.wait_until(level, Instant::now().checked_add(timeout))
    }

    fn poison(&self, info: FailureInfo) {
        self.poison_with(info, |_| Vec::new());
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

impl<Q: WaitQueue> Resettable for WaitlistCounter<Q> {
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

impl<Q: WaitQueue> CounterDiagnostics for WaitlistCounter<Q> {
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

    /// One lock for the slow path's tallies, so the snapshot agrees with
    /// itself; the stripes are summed after it is released.
    fn stats(&self) -> StatsSnapshot {
        let slow = self.lock().stats;
        self.stats.snapshot(&slow)
    }

    fn impl_name(&self) -> &'static str {
        Q::NAMES[usize::from(!self.fast_enabled)]
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    // The `WaitQueue` battery: each strategy must keep the paper's
    // invariants on its own, before any counter uses it.

    fn queue_of<Q: WaitQueue>(levels: &[Value]) -> Q {
        let mut q = Q::default();
        for &level in levels {
            assert!(q.find_or_insert(level).1, "level {level} inserted twice");
        }
        q
    }

    fn levels_of(nodes: &[Arc<WaitNode>]) -> Vec<Value> {
        nodes.iter().map(|n| n.level).collect()
    }

    fn queue_same_level_shares_one_node<Q: WaitQueue>() {
        let mut q = Q::default();
        let (a, inserted_a) = q.find_or_insert(5);
        let (b, inserted_b) = q.find_or_insert(5);
        assert!(inserted_a);
        assert!(!inserted_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(q.len(), 1);
    }

    fn queue_iterates_in_ascending_level_order<Q: WaitQueue>() {
        // Insertions land at the head, the middle and the tail.
        let q: Q = queue_of(&[5, 9, 2, 7, 3, 1, 11]);
        assert_eq!(levels_of(&q.nodes()), vec![1, 2, 3, 5, 7, 9, 11]);
        assert_eq!(q.len(), 7);
        assert!(Q::default().nodes().is_empty());
    }

    fn queue_remove_satisfied_is_inclusive_at_the_boundary<Q: WaitQueue>() {
        let mut q: Q = queue_of(&[1, 5, 6, 7, 9]);
        assert!(q.remove_satisfied(0).is_empty(), "below every level");
        assert_eq!(levels_of(&q.remove_satisfied(6)), vec![1, 5, 6]);
        assert_eq!(levels_of(&q.nodes()), vec![7, 9]);
        assert_eq!(levels_of(&q.remove_satisfied(7)), vec![7]);
        assert_eq!(q.len(), 1);
    }

    fn queue_remove_satisfied_at_u64_max_removes_everything<Q: WaitQueue>() {
        let mut q: Q = queue_of(&[3, 8, u64::MAX]);
        assert_eq!(
            levels_of(&q.remove_satisfied(u64::MAX)),
            vec![3, 8, u64::MAX]
        );
        assert!(q.is_empty());
        assert!(q.remove_satisfied(u64::MAX).is_empty(), "empty queue");
    }

    fn queue_remove_level_at_head_middle_tail_and_missing<Q: WaitQueue>() {
        let mut q: Q = queue_of(&[1, 3, 5, 7]);
        assert_eq!(q.remove_level(1).map(|n| n.level), Some(1)); // head
        assert_eq!(q.remove_level(5).map(|n| n.level), Some(5)); // middle
        assert_eq!(q.remove_level(7).map(|n| n.level), Some(7)); // tail
        assert!(q.remove_level(42).is_none()); // missing
        assert_eq!(levels_of(&q.nodes()), vec![3]);
        assert_eq!(q.len(), 1);
    }

    fn queue_long_queue_drops_without_stack_overflow<Q: WaitQueue>() {
        let mut q = Q::default();
        // Descending levels: each insert lands at the head of a list in
        // O(1), so this builds a 200k-link chain quickly.
        for level in (1..=200_000u64).rev() {
            q.find_or_insert(level);
        }
        assert_eq!(q.len(), 200_000);
        drop(q); // must not overflow the stack
    }

    // The counter battery.

    const SHORT: Duration = Duration::from_millis(50);
    const LONG: Duration = Duration::from_secs(10);

    fn new_counter_is_zero<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        assert_eq!(c.debug_value(), 0);
        assert_eq!(c.live_nodes(), 0);
    }

    fn with_value_starts_nonzero<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::builder().initial(17).build();
        assert_eq!(c.debug_value(), 17);
        c.check(17); // immediately satisfied
        c.increment(3);
        assert_eq!(c.debug_value(), 20);
    }

    fn check_zero_never_suspends<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.check(0);
        assert_eq!(c.stats().immediate_checks, 1);
    }

    fn increment_accumulates<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.increment(3);
        c.increment(0);
        c.increment(4);
        assert_eq!(c.debug_value(), 7);
        assert_eq!(c.stats().increments, 3);
    }

    fn check_satisfied_level_is_immediate<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.increment(10);
        c.check(10);
        c.check(1);
        let s = c.stats();
        assert_eq!(s.immediate_checks, 2);
        assert_eq!(s.suspensions, 0);
        assert_eq!(s.nodes_created, 0);
    }

    fn waiter_free_workload_never_takes_the_lock<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
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

    fn mutex_only_counter_reports_slow_entries<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::mutex_only();
        c.increment(2);
        c.check(1);
        let s = c.stats();
        assert_eq!(s.fast_increments, 0);
        assert_eq!(s.fast_checks, 0);
        assert_eq!(s.slow_path_entries, 2);
        assert_eq!(c.debug_value(), 2);
        assert!(c.impl_name().ends_with("-mutex-only"));
    }

    fn single_waiter_wakes_at_exact_level<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn one_increment_wakes_multiple_levels<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn threads_on_same_level_share_one_node<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn partial_increment_wakes_only_satisfied_levels<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn waiters_bit_clears_after_sweep<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(5));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        assert!(c.fast.has_waiters(), "registered waiter must set the bit");
        c.increment(5);
        h.join().unwrap();
        assert!(
            !c.fast.has_waiters(),
            "bit must clear when the wait list empties"
        );
        // And increments take the fast path again.
        let fast_before = c.stats().fast_increments;
        c.increment(1);
        assert_eq!(c.stats().fast_increments, fast_before + 1);
    }

    fn waiters_bit_clears_when_last_timed_waiter_abandons<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        assert!(c.check_timeout(9, SHORT).is_err());
        assert!(!c.fast.has_waiters(), "abandoned waiter left the bit set");
        let fast_before = c.stats().fast_increments;
        c.increment(1);
        assert_eq!(c.stats().fast_increments, fast_before + 1);
    }

    fn check_timeout_ok_when_already_satisfied<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.increment(1);
        assert_eq!(c.check_timeout(1, SHORT), Ok(()));
    }

    fn check_timeout_expires_and_cleans_up_node<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        let err = c.check_timeout(5, SHORT).unwrap_err();
        assert_eq!(err.level, 5);
        assert_eq!(c.live_nodes(), 0, "abandoned node must be removed");
        assert_eq!(c.waiting_levels(), Vec::<u64>::new());
    }

    fn check_timeout_succeeds_when_increment_arrives_in_time<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check_timeout(3, LONG));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        c.increment(3);
        assert_eq!(h.join().unwrap(), Ok(()));
    }

    fn timed_out_waiter_does_not_strand_others_at_same_level<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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
            c.fast.has_waiters(),
            "bit must survive while a waiter remains"
        );
        c.increment(4);
        patient.join().unwrap();
        assert_eq!(c.live_nodes(), 0);
    }

    fn try_increment_overflow_leaves_counter_usable<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.increment(u64::MAX - 1);
        let err = c.try_increment(2).unwrap_err();
        assert_eq!(err.value, u64::MAX - 1);
        assert_eq!(err.amount, 2);
        assert_eq!(c.debug_value(), u64::MAX - 1);
        // Still usable to the limit.
        c.try_increment(1).unwrap();
        assert_eq!(c.debug_value(), u64::MAX);
    }

    fn increment_overflow_panics<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.increment(u64::MAX);
        c.increment(1);
    }

    fn check_at_u64_max_level_is_satisfiable<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(u64::MAX));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        c.increment(u64::MAX);
        h.join().unwrap();
    }

    fn values_beyond_the_hint_cap_stay_exact<Q: WaitQueue>() {
        // Crossing FAST_CAP moves the exact value under the lock; arithmetic
        // and checks must remain exact u64 semantics throughout.
        let c = WaitlistCounter::<Q>::default();
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

    fn reset_restores_zero<Q: WaitQueue>() {
        let mut c = WaitlistCounter::<Q>::default();
        c.increment(9);
        c.reset();
        assert_eq!(c.debug_value(), 0);
        // Reusable after reset, as in the paper's phase-reuse motivation.
        c.increment(2);
        c.check(2);
    }

    fn waker_order_is_fifo_per_level_completion<Q: WaitQueue>() {
        // All waiters at distinct ascending levels; a sequence of unit
        // increments must release them in level order.
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn stress_many_threads_many_levels<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn debug_format_shows_structure<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.increment(3);
        let s = format!("{c:?}");
        assert!(s.contains("value: 3"), "got {s}");
    }

    fn poison_wakes_blocked_waiters_with_the_cause<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn wait_on_poisoned_counter_fails_without_suspending<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
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

    fn satisfied_levels_succeed_even_when_poisoned<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.increment(5);
        c.poison(FailureInfo::new("boom"));
        assert!(c.wait(5).is_ok());
        assert!(c.wait_timeout(3, SHORT).is_ok());
        c.check(0); // must not panic: level 0 owes nothing
    }

    fn increments_still_apply_after_poison<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.poison(FailureInfo::new("boom"));
        c.increment(4);
        assert_eq!(c.debug_value(), 4);
        assert!(c.wait(4).is_ok(), "newly satisfied level succeeds");
        assert!(c.wait(5).is_err(), "would-block wait still fails");
    }

    fn first_poison_wins<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.poison(FailureInfo::new("first"));
        c.poison(FailureInfo::new("second"));
        assert_eq!(c.poison_info().unwrap().message(), "first");
    }

    fn poison_info_is_none_until_poisoned<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        assert!(c.poison_info().is_none());
        c.poison(FailureInfo::new("x").with_level(3));
        let info = c.poison_info().unwrap();
        assert_eq!(info.level(), Some(3));
    }

    fn check_panics_on_poisoned_counter<Q: WaitQueue>() {
        let c = WaitlistCounter::<Q>::default();
        c.poison(FailureInfo::new("dead increment owner"));
        c.check(1);
    }

    fn poisoned_timed_waiter_reports_poison_not_timeout<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    fn poison_clears_waiters_bit_so_fast_increments_resume<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait(5));
        while c.live_nodes() == 0 {
            thread::yield_now();
        }
        assert!(c.fast.has_waiters());
        c.poison(FailureInfo::new("x"));
        h.join().unwrap().unwrap_err();
        assert!(!c.fast.has_waiters());
        let fast_before = c.stats().fast_increments;
        c.increment(1);
        assert_eq!(
            c.stats().fast_increments,
            fast_before + 1,
            "increments with only the poison bit set stay on the fast path"
        );
    }

    fn reset_clears_poison<Q: WaitQueue>() {
        let mut c = WaitlistCounter::<Q>::default();
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

    fn waiters_reports_levels_and_thread_counts<Q: WaitQueue>() {
        let c = Arc::new(WaitlistCounter::<Q>::default());
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

    // The spin-before-suspend battery.

    /// A counter built to spin, or `None`, with a note, on a host whose
    /// building thread sees one CPU: spinning is then off by design and
    /// the spin cases have nothing to test.
    fn spinning<Q: WaitQueue>() -> Option<WaitlistCounter<Q>> {
        let c = WaitlistCounter::<Q>::builder()
            .spin_before_suspend(true)
            .build();
        if c.spin {
            return Some(c);
        }
        let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(cpus, 1, "spinning requested with {cpus} CPUs but off");
        eprintln!("skipped: one CPU available, so the counter does not spin");
        None
    }

    /// Lead time from the waiter's announcement to the waker's action:
    /// long enough for the waiter to miss the fast check, short against
    /// [`SPIN_BUDGET`].
    const LEAD: Duration = Duration::from_micros(5);

    /// One race: a waiter announces itself and waits on `level`; `LEAD`
    /// later this thread runs `wake`. Returns the wait's result.
    fn race<Q: WaitQueue>(
        c: &WaitlistCounter<Q>,
        level: Value,
        wake: impl FnOnce(&WaitlistCounter<Q>),
    ) -> Result<(), CheckError> {
        let announced = AtomicBool::new(false);
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                announced.store(true, Ordering::Release);
                c.wait(level)
            });
            while !announced.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let t0 = Instant::now();
            while t0.elapsed() < LEAD {
                std::hint::spin_loop();
            }
            wake(c);
            waiter.join().unwrap()
        })
    }

    /// How long a case that needs the waiter caught spinning keeps racing:
    /// a waiter or waker that loses its CPU to another test misses the
    /// budget, and that round proves nothing.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Rounds of [`race`] for a case whose outcome must hold every time.
    const ROUNDS: usize = 200;

    fn spin_satisfied_check_skips_the_slow_path<Q: WaitQueue>() {
        let t0 = Instant::now();
        while t0.elapsed() < PATIENCE {
            let Some(c) = spinning::<Q>() else { return };
            race(&c, 1, |c| c.increment(1)).unwrap();
            let s = c.stats();
            if s.spin_checks == 0 {
                continue; // the waiter missed the budget or the race
            }
            assert_eq!(s.spin_checks, 1, "{s}");
            assert_eq!((s.checks, s.immediate_checks), (1, 1), "{s}");
            assert_eq!(s.fast_checks, 0, "{s}");
            assert_eq!(s.suspensions, 0, "{s}");
            assert_eq!(s.nodes_created, 0, "{s}");
            assert_eq!(s.slow_path_entries, 0, "no lock on either side: {s}");
            assert_eq!(s.fast_increments, 1, "{s}");
            return;
        }
        panic!("no waiter saw its level satisfied while spinning in {PATIENCE:?}");
    }

    fn late_increment_finds_the_waiter_suspended<Q: WaitQueue>() {
        let Some(c) = spinning::<Q>() else { return };
        let c = Arc::new(c);
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(1));
        thread::sleep(SHORT);
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        c.increment(1);
        h.join().unwrap();
        let s = c.stats();
        assert_eq!(s.suspensions, 1, "{s}");
        assert_eq!(s.spin_checks, 0, "{s}");
        assert_eq!(c.live_nodes(), 0);
    }

    fn poison_during_the_spin_fails_the_wait<Q: WaitQueue>() {
        let t0 = Instant::now();
        while t0.elapsed() < PATIENCE {
            let Some(c) = spinning::<Q>() else { return };
            let r = race(&c, 1, |c| c.poison(FailureInfo::new("gone")));
            assert!(matches!(r, Err(CheckError::Poisoned(_))), "{r:?}");
            let s = c.stats();
            assert_eq!(s.spin_checks, 0, "{s}");
            assert_eq!(c.live_nodes(), 0);
            if s.suspensions == 0 {
                return; // the poison bit ended the poll before suspending
            }
        }
        panic!("every waiter suspended before the poison in {PATIENCE:?}");
    }

    fn timeout_shorter_than_the_budget_is_honoured<Q: WaitQueue>() {
        let Some(c) = spinning::<Q>() else { return };
        let timeout = SPIN_BUDGET / 4;
        let t0 = Instant::now();
        let r = c.wait_timeout(1, timeout);
        let elapsed = t0.elapsed();
        assert!(matches!(r, Err(CheckError::Timeout(_))), "{r:?}");
        assert!(
            elapsed >= timeout,
            "timed out after {elapsed:?} < {timeout:?}"
        );
        assert_eq!(c.stats().spin_checks, 0);
        assert_eq!(c.live_nodes(), 0);
    }

    fn level_satisfied_at_the_spin_gate_is_not_a_spin<Q: WaitQueue>() {
        let Some(c) = spinning::<Q>() else { return };
        c.increment(2);
        // The increment lands between a missed fast check and the gate.
        c.wait_until(2, None).unwrap();
        let s = c.stats();
        assert_eq!(s.spin_checks, 0, "{s}");
        assert_eq!((s.fast_checks, s.slow_path_entries), (1, 0), "{s}");
    }

    fn waiter_two_levels_ahead_does_not_spin<Q: WaitQueue>() {
        for _ in 0..ROUNDS {
            let Some(c) = spinning::<Q>() else { return };
            race(&c, 2, |c| c.increment(2)).unwrap();
            assert_eq!(c.stats().spin_checks, 0, "{}", c.stats());
        }
    }

    fn counter_without_the_option_never_spins<Q: WaitQueue>() {
        for _ in 0..ROUNDS {
            let c = WaitlistCounter::<Q>::default();
            assert!(!c.spin);
            race(&c, 1, |c| c.increment(1)).unwrap();
            assert_eq!(c.stats().spin_checks, 0, "{}", c.stats());
        }
    }

    fn spin_needs_a_second_cpu_at_build_time<Q: WaitQueue>() {
        assert!(!spin_enabled(true, || 1));
        assert!(spin_enabled(true, || 2));
        assert!(!spin_enabled(false, || unreachable!("CPUs counted")));
        let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let c = WaitlistCounter::<Q>::builder()
            .spin_before_suspend(true)
            .build();
        assert_eq!(c.spin, cpus > 1);
        assert!(!WaitlistCounter::<Q>::mutex_only().spin);
    }

    // The naive and spin queues: how their waiters wait.

    #[test]
    fn naive_waiters_share_one_node_and_sleep_again_after_each_change() {
        let c = Arc::new(NaiveCounter::default());
        let waiters = |level, threads| vec![WaitingLevel { level, threads }];
        let handles: Vec<_> = [2u64, 3, 4]
            .into_iter()
            .map(|level| {
                let c = Arc::clone(&c);
                thread::spawn(move || c.check(level))
            })
            .collect();
        while c.stats().live_waiters < 3 {
            thread::yield_now();
        }
        assert_eq!(c.waiters(), waiters(1, 3), "one node, one above the value");
        assert_eq!(c.stats().suspensions, 3);
        c.increment(1);
        while c.waiters() != waiters(2, 3) {
            thread::yield_now();
        }
        let s = c.stats();
        assert_eq!((s.notifies, s.suspensions), (1, 6), "{s}");
        c.increment(3);
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.nodes_created, s.nodes_freed, "{s}");

        c.increment(u64::MAX - 5);
        let c2 = Arc::clone(&c);
        let top = thread::spawn(move || c2.check(u64::MAX));
        while c.waiters() != waiters(u64::MAX, 1) {
            thread::yield_now();
        }
        let before = c.stats().notifies;
        assert!(c.try_increment(2).is_err());
        assert_eq!(c.debug_value(), u64::MAX - 1);
        assert_eq!(c.stats().notifies, before, "failed update must not signal");
        c.increment(1);
        top.join().unwrap();
        assert_eq!(c.live_nodes(), 0);

        let c = NaiveCounter::default();
        let err = c.check_timeout(9, SHORT).unwrap_err();
        assert_eq!(err.level, 9, "the caller's level, not the one slept on");
        assert_eq!(c.live_nodes(), 0);
    }

    #[test]
    fn spin_waiters_poll_without_nodes_or_broadcasts() {
        let c = Arc::new(SpinCounter::default());
        let wait_on = |level| {
            let c2 = Arc::clone(&c);
            let h = thread::spawn(move || c2.wait(level));
            while c.stats().live_waiters == 0 {
                thread::yield_now();
            }
            h
        };
        let satisfied = wait_on(1);
        c.increment(1);
        assert_eq!(satisfied.join().unwrap(), Ok(()));
        assert!(matches!(
            c.wait_timeout(2, SHORT),
            Err(CheckError::Timeout(_))
        ));
        let poisoned = wait_on(2);
        c.poison(FailureInfo::new("gone"));
        assert!(matches!(
            poisoned.join().unwrap(),
            Err(CheckError::Poisoned(_))
        ));
        let s = c.stats();
        assert_eq!((s.nodes_created, s.notifies), (0, 0), "{s}");
        assert_eq!((s.suspensions, s.live_waiters), (3, 0), "{s}");
        assert!(c.waiters().is_empty());

        // Beyond the packed hint's range the poll reads the exact value.
        let c = Arc::new(SpinCounter::builder().initial(FAST_CAP).build());
        let above_cap = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.check(FAST_CAP + 2))
        };
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        c.increment(2);
        above_cap.join().unwrap();
        assert_eq!(c.stats().nodes_created, 0);
    }

    /// Instantiates each generic test once per queue strategy, so every
    /// case runs against both the sorted list and the `BTreeMap`.
    macro_rules! for_each_queue {
        ($($(#[$attr:meta])* $name:ident,)*) => {
            mod list {
                $( #[test] $(#[$attr])* fn $name() { super::$name::<super::SortedList>() } )*
            }
            mod btree {
                $( #[test] $(#[$attr])* fn $name() { super::$name::<super::WaitMap>() } )*
            }
        };
    }

    for_each_queue! {
        queue_same_level_shares_one_node,
        queue_iterates_in_ascending_level_order,
        queue_remove_satisfied_is_inclusive_at_the_boundary,
        queue_remove_satisfied_at_u64_max_removes_everything,
        queue_remove_level_at_head_middle_tail_and_missing,
        queue_long_queue_drops_without_stack_overflow,
        new_counter_is_zero,
        with_value_starts_nonzero,
        check_zero_never_suspends,
        increment_accumulates,
        check_satisfied_level_is_immediate,
        waiter_free_workload_never_takes_the_lock,
        mutex_only_counter_reports_slow_entries,
        single_waiter_wakes_at_exact_level,
        one_increment_wakes_multiple_levels,
        threads_on_same_level_share_one_node,
        partial_increment_wakes_only_satisfied_levels,
        waiters_bit_clears_after_sweep,
        waiters_bit_clears_when_last_timed_waiter_abandons,
        check_timeout_ok_when_already_satisfied,
        check_timeout_expires_and_cleans_up_node,
        check_timeout_succeeds_when_increment_arrives_in_time,
        timed_out_waiter_does_not_strand_others_at_same_level,
        try_increment_overflow_leaves_counter_usable,
        #[should_panic(expected = "overflow")] increment_overflow_panics,
        check_at_u64_max_level_is_satisfiable,
        values_beyond_the_hint_cap_stay_exact,
        reset_restores_zero,
        waker_order_is_fifo_per_level_completion,
        stress_many_threads_many_levels,
        debug_format_shows_structure,
        poison_wakes_blocked_waiters_with_the_cause,
        wait_on_poisoned_counter_fails_without_suspending,
        satisfied_levels_succeed_even_when_poisoned,
        increments_still_apply_after_poison,
        first_poison_wins,
        poison_info_is_none_until_poisoned,
        #[should_panic(expected = "monotonic counter poisoned")] check_panics_on_poisoned_counter,
        poisoned_timed_waiter_reports_poison_not_timeout,
        poison_clears_waiters_bit_so_fast_increments_resume,
        reset_clears_poison,
        waiters_reports_levels_and_thread_counts,
        spin_satisfied_check_skips_the_slow_path,
        late_increment_finds_the_waiter_suspended,
        poison_during_the_spin_fails_the_wait,
        timeout_shorter_than_the_budget_is_honoured,
        level_satisfied_at_the_spin_gate_is_not_a_spin,
        waiter_two_levels_ahead_does_not_spin,
        counter_without_the_option_never_spins,
        spin_needs_a_second_cpu_at_build_time,
    }
}
