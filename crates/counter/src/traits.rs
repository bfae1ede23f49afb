//! The core counter traits.
//!
//! [`MonotonicCounter`] is exactly the paper's Section 2 programming surface
//! (plus the timeout/advance extensions discussed there): the operations a
//! *program* may use without breaking the determinacy results. Everything
//! that exists for other reasons lives in separate traits:
//!
//! * [`Resettable`] — phase-reuse (`Reset` in the paper's Section 2), which
//!   must not race with other operations and therefore wants `&mut self`;
//! * [`CounterDiagnostics`] — observation hooks for tests and the experiment
//!   harness, deliberately fenced off from the synchronization API so that
//!   code written against `dyn MonotonicCounter` *cannot* branch on the
//!   instantaneous value (the paper's "no probe" rule, now enforced by the
//!   type system rather than by documentation).

use crate::builder::{Buildable, CounterBuilder};
use crate::error::{
    CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo, POISONED_PANIC_PREFIX,
};
use crate::stats::StatsSnapshot;
use crate::Value;
use std::time::Duration;

/// A monotonic counter: a nonnegative, monotonically increasing value with
/// atomic [`increment`](Self::increment) and suspending
/// [`check`](Self::check) operations.
///
/// The interface intentionally mirrors the paper's Section 2 `Counter` class:
///
/// * the value starts at zero and **only increases** — there is no decrement;
/// * there is **no non-blocking probe**: a thread cannot branch on the
///   instantaneous value, so no decision in a counter-synchronized program can
///   depend on thread timing (this is what enables the determinacy results of
///   Section 6);
/// * `check(level)` returns only when `value >= level`, and because the value
///   is monotonic the condition can never be un-satisfied afterwards.
///
/// Reuse (`reset`) and observation (`debug_value`, `stats`, `impl_name`) are
/// deliberately **not** part of this trait — see [`Resettable`] and
/// [`CounterDiagnostics`].
///
/// The trait is object-safe, so heterogeneous collections of counters
/// (`Box<dyn MonotonicCounter>`) work.
pub trait MonotonicCounter: Send + Sync {
    /// Atomically increases the counter value by `amount`, waking every thread
    /// suspended in a [`check`](Self::check) whose level the new value
    /// satisfies.
    ///
    /// `amount` may be zero, in which case no state changes and no thread is
    /// woken (the paper's semantics: the value "increases by a specified
    /// amount", and zero is a valid amount used by the blocked broadcast
    /// pattern of Section 5.3 for the final partial block).
    ///
    /// # Panics
    ///
    /// Panics if the addition overflows [`Value`]. Use
    /// [`try_increment`](Self::try_increment) for a fallible variant.
    fn increment(&self, amount: Value);

    /// Like [`increment`](Self::increment), but returns an error instead of
    /// panicking when the addition would overflow. On error the counter is
    /// unchanged and no thread is woken.
    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError>;

    /// Suspends the calling thread until the counter value is greater than or
    /// equal to `level`, or until the counter is poisoned.
    ///
    /// This is the fallible core of [`check`](Self::check). Returns `Ok(())`
    /// immediately when the value already satisfies `level` — **even if the
    /// counter has been poisoned**, because satisfied levels owe nothing to
    /// the failed thread (and this keeps the satisfied fast path a single
    /// atomic load). A wait that would block on a poisoned counter instead
    /// returns [`CheckError::Poisoned`] with the captured cause, since the
    /// increments it depends on will never arrive.
    fn wait(&self, level: Value) -> Result<(), CheckError>;

    /// Like [`wait`](Self::wait), but additionally gives up with
    /// [`CheckError::Timeout`] after `timeout`.
    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError>;

    /// Marks the counter as failed, waking **every** currently suspended
    /// waiter with [`CheckError::Poisoned`] and failing every future wait
    /// that would block. The first poisoning wins; later calls are no-ops.
    ///
    /// Poisoning does not change the value, and increments continue to apply
    /// afterwards — a poisoned counter still satisfies levels its value
    /// reaches, it just refuses to *suspend* anyone on promises a dead thread
    /// can no longer keep.
    fn poison(&self, info: FailureInfo);

    /// The cause of the poisoning, if the counter has been poisoned.
    fn poison_info(&self) -> Option<FailureInfo>;

    /// Suspends the calling thread until the counter value is greater than or
    /// equal to `level`.
    ///
    /// Returns immediately when the value already satisfies `level` — in
    /// particular `check(0)` never suspends. Threads waiting on the same level
    /// share one suspension queue; threads waiting on distinct levels occupy
    /// distinct queues (the "dynamically varying number of thread suspension
    /// queues" of the paper's Sections 1 and 7).
    ///
    /// # Panics
    ///
    /// Panics with the propagated [`FailureInfo`] cause if the counter is
    /// poisoned while this level is unsatisfied: the failure of the thread
    /// that owed the increments resurfaces in every thread that depended on
    /// them, instead of a silent hang. Use [`wait`](Self::wait) to handle
    /// poisoning as a value.
    fn check(&self, level: Value) {
        if let Err(CheckError::Poisoned(info)) = self.wait(level) {
            panic!("{POISONED_PANIC_PREFIX}: {info}");
        }
    }

    /// Like [`check`](Self::check), but gives up after `timeout`.
    ///
    /// This is an extension for testability (deadlock detection in test
    /// harnesses); the paper's programming model never needs it because
    /// counter programs whose sequential executions terminate cannot deadlock.
    ///
    /// # Panics
    ///
    /// Panics like [`check`](Self::check) when the counter is poisoned.
    fn check_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckTimeoutError> {
        match self.wait_timeout(level, timeout) {
            Ok(()) => Ok(()),
            Err(CheckError::Timeout(e)) => Err(e),
            Err(CheckError::Poisoned(info)) => {
                panic!("{POISONED_PANIC_PREFIX}: {info}");
            }
        }
    }

    /// Raises the value to `target` if it is currently lower; no-op
    /// otherwise. Waiters at levels `<= target` wake exactly as for
    /// [`increment`](Self::increment).
    ///
    /// An extension beyond the paper, in the spirit of its single-assignment
    /// lineage (Section 8): `advance_to` keeps the value monotonic — and
    /// therefore keeps every determinacy property — while being idempotent
    /// and commutative, so several threads can publish the same milestone
    /// without coordinating amounts (e.g. "phase 3 reached" from whichever
    /// worker gets there first).
    fn advance_to(&self, target: Value);
}

/// Phase-reuse for counters: reset the value to zero between algorithm
/// phases.
///
/// Per the paper's Section 2, `Reset` exists only "as a means of efficiently
/// reusing counters between different phases of an algorithm" and **must not
/// race with other operations**; taking `&mut self` makes that rule a
/// compile-time guarantee in Rust. Split from [`MonotonicCounter`] so that
/// shared-counter code (which only ever holds `&C` or `Arc<C>`) cannot even
/// name the operation.
pub trait Resettable {
    /// Resets the value to zero.
    fn reset(&mut self);
}

/// Construction from a recovered value: the hook the durability layer
/// (`mc-durable`) uses to rebuild an arbitrary counter implementation from
/// persisted state.
///
/// This is **not** a synchronization operation — it constructs a *new*
/// counter whose value starts at `value`, exactly as if that many increments
/// had already been delivered. Because counters are monotonic, resuming from
/// any durably recorded value is always safe: no waiter decision that was
/// enabled before the crash can become disabled after recovery.
///
/// Every [`Buildable`] counter implements it as
/// `builder().initial(value).build()`.
pub trait ResumableCounter: MonotonicCounter + Sized {
    /// Creates a counter whose value starts at `value`.
    fn resume_from(value: Value) -> Self;
}

impl<C: Buildable + MonotonicCounter> ResumableCounter for C {
    fn resume_from(value: Value) -> Self {
        CounterBuilder::new().initial(value).build()
    }
}

/// The availability of a counter's backing resources, as reported by
/// [`CounterDiagnostics::health`].
///
/// Purely in-memory counters are always [`Healthy`](HealthStatus::Healthy).
/// Wrappers backed by fallible external resources (the durability layer's
/// WAL) report [`Degraded`](HealthStatus::Degraded) while serving from
/// memory during a resource outage, and [`Poisoned`](HealthStatus::Poisoned)
/// once the counter has terminally failed. Poisoned always wins over
/// degraded: a poisoned counter's degradation details no longer matter to a
/// supervisor deciding what to do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Every acknowledged operation is fully backed (for durable counters:
    /// fsync-durable on disk).
    Healthy,
    /// The backing resource is unavailable; operations are served from
    /// memory and queued for replay. Self-healing: the owner is probing the
    /// resource and returns to [`Healthy`](HealthStatus::Healthy) when it
    /// recovers.
    Degraded {
        /// When the counter entered degraded mode.
        since: std::time::Instant,
        /// Unsynced records queued for replay (collapsed: pending monotone
        /// advances count as one record, plus the cause, while it is not
        /// yet logged).
        queued: u64,
    },
    /// The counter is poisoned: waits fail with the captured cause.
    Poisoned,
}

impl HealthStatus {
    /// Whether this is [`HealthStatus::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, HealthStatus::Healthy)
    }

    /// Whether this is [`HealthStatus::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, HealthStatus::Degraded { .. })
    }

    /// Whether this is [`HealthStatus::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        matches!(self, HealthStatus::Poisoned)
    }

    /// A stable machine-readable label for this status, independent of the
    /// variant's payload: `"healthy"`, `"degraded"`, or `"poisoned"`. Used as
    /// a metric-name component by the observability layer, so it must never
    /// change shape between releases.
    pub fn as_label(&self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded { .. } => "degraded",
            HealthStatus::Poisoned => "poisoned",
        }
    }
}

impl std::fmt::Display for HealthStatus {
    /// A stable one-line rendering: the [`as_label`](Self::as_label) word,
    /// with degraded carrying `(<elapsed>ms elapsed, <n> queued)`. Consumed
    /// by log scrapers and the metrics exporter — durations are canonical
    /// integer milliseconds, never `Debug` output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthStatus::Healthy => write!(f, "healthy"),
            HealthStatus::Degraded { since, queued } => write!(
                f,
                "degraded ({}ms elapsed, {queued} queued)",
                since.elapsed().as_millis()
            ),
            HealthStatus::Poisoned => write!(f, "poisoned"),
        }
    }
}

/// One occupied suspension queue, as reported by
/// [`CounterDiagnostics::waiters`]: a level and how many threads are
/// suspended waiting for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingLevel {
    /// The level the threads are waiting for.
    pub level: Value,
    /// How many threads are suspended at this level.
    pub threads: usize,
}

/// Observation hooks for tests, benchmarks, and the experiment harness.
///
/// None of these are synchronization operations — the paper excludes `Probe`
/// so that no program decision can depend on the instantaneous,
/// timing-dependent value. Keeping them in their own trait means a function
/// generic over [`MonotonicCounter`] alone provably cannot break that rule.
pub trait CounterDiagnostics {
    /// Returns the current value, for diagnostics and tests **only**. Do not
    /// branch on this in production code.
    fn debug_value(&self) -> Value;

    /// Returns a snapshot of this counter's internal statistics
    /// (suspension-queue counts, wakeups, fast/slow-path hits, ...), used by
    /// the Section 7 experiments. Implementations with no meaningful queue
    /// structure may return partial data.
    fn stats(&self) -> StatsSnapshot;

    /// A short human-readable name for the implementation, used in benchmark
    /// tables.
    fn impl_name(&self) -> &'static str;

    /// The currently occupied suspension queues, in ascending level order,
    /// for stall diagnostics (the supervisor's wait-graph reports).
    ///
    /// Implementations without introspectable queue structure (spin loops,
    /// plain monitors) return an empty list — the supervisor then reports
    /// value and obligations only.
    fn waiters(&self) -> Vec<WaitingLevel> {
        Vec::new()
    }

    /// The availability of this counter's backing resources. The default —
    /// always [`HealthStatus::Healthy`] — is correct for every in-memory
    /// implementation; wrappers over fallible resources (the durability
    /// layer) override it. Note the poison state is reported separately via
    /// [`MonotonicCounter::poison_info`](crate::MonotonicCounter::poison_info);
    /// the supervisor combines both, with poisoned taking precedence.
    fn health(&self) -> HealthStatus {
        HealthStatus::Healthy
    }

    /// The highest value known to have reached stable storage, for counters
    /// backed by a durable medium (`mc-durable`'s `DurableCounter`). The
    /// default — `None` — is correct for every in-memory implementation.
    /// Supervision trees propagate this into a restarted worker's resume
    /// context, so a replacement can distinguish "applied in memory" from
    /// "acknowledged durable" when deciding where to pick up.
    fn durable_watermark(&self) -> Option<Value> {
        None
    }
}

/// Convenience extensions over any [`MonotonicCounter`].
pub trait CounterExt: MonotonicCounter {
    /// Increment by one: the most common broadcast step
    /// (`kCount.Increment(1)` in the paper's examples).
    fn bump(&self) {
        self.increment(1);
    }

    /// Executes `f` as the `index`-th sequentially ordered critical section
    /// guarded by this counter (the Section 5.2 pattern): waits until the
    /// counter reaches `index`, runs `f`, then increments by one to admit
    /// section `index + 1`.
    fn sequenced<R>(&self, index: Value, f: impl FnOnce() -> R) -> R {
        self.check(index);
        let r = f();
        self.increment(1);
        r
    }

    /// Takes on the obligation to increment this counter by `amount`: returns
    /// an RAII guard that delivers the increment when dropped normally and
    /// **poisons** the counter when dropped during a panic unwind — so a
    /// crashing thread converts the hang it would have caused into a
    /// propagated failure.
    fn obligation(&self, amount: Value) -> crate::Obligation<&Self> {
        crate::Obligation::new(self, amount, None, false)
    }
}

impl<C: MonotonicCounter + ?Sized> CounterExt for C {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;
    use std::sync::Arc;

    #[test]
    fn core_trait_is_object_safe() {
        let c: Box<dyn MonotonicCounter> = Box::new(Counter::default());
        c.increment(2);
        c.check(2);
    }

    #[test]
    fn diagnostics_trait_is_object_safe() {
        let c: Box<dyn CounterDiagnostics> = Box::new(Counter::default());
        assert_eq!(c.debug_value(), 0);
        assert_eq!(c.impl_name(), "waitlist");
    }

    #[test]
    fn both_trait_objects_via_supertrait_free_composition() {
        // A concrete counter serves both surfaces; the split only prevents
        // *generic* synchronization code from reaching the diagnostics.
        let c = Arc::new(Counter::default());
        let sync: Arc<dyn MonotonicCounter> = Arc::clone(&c) as _;
        sync.increment(3);
        let diag: &dyn CounterDiagnostics = &*c;
        assert_eq!(diag.debug_value(), 3);
    }

    #[test]
    fn bump_increments_by_one() {
        let c = Counter::default();
        c.bump();
        c.bump();
        assert_eq!(c.debug_value(), 2);
    }

    #[test]
    fn sequenced_orders_sections() {
        let c = Arc::new(Counter::default());
        let out = Arc::new(std::sync::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            // Spawn in reverse order to make unordered execution likely
            // without the counter.
            for i in (0..8u64).rev() {
                let c = Arc::clone(&c);
                let out = Arc::clone(&out);
                s.spawn(move || {
                    c.sequenced(i, || out.lock().unwrap().push(i));
                });
            }
        });
        assert_eq!(*out.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sequenced_returns_closure_value() {
        let c = Counter::default();
        let v = c.sequenced(0, || 7 * 6);
        assert_eq!(v, 42);
        assert_eq!(c.debug_value(), 1);
    }
}
