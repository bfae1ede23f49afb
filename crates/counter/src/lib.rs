//! # Monotonic counters
//!
//! A faithful, production-quality Rust implementation of the synchronization
//! primitive introduced by John Thornley and K. Mani Chandy in *"Monotonic
//! Counters: A New Mechanism for Thread Synchronization"* (IPPS 2000).
//!
//! A monotonic counter is an object with a nonnegative integer value (initially
//! zero) and two operations:
//!
//! * [`increment`](MonotonicCounter::increment)`(amount)` — atomically
//!   increases the value, waking every thread suspended on a level that the
//!   new value satisfies.
//! * [`check`](MonotonicCounter::check)`(level)` — suspends the calling thread
//!   until `value >= level`.
//!
//! There is deliberately **no decrement** and **no non-blocking probe**:
//! because the value only ever grows, a synchronization condition that has
//! become enabled can never become disabled again, so a `check` can never
//! "miss" an `increment` and no decision can be made on a racy instantaneous
//! value. This is what makes counter synchronization *deterministic* (see the
//! paper's Section 6 and the `mc-detcheck` crate).
//!
//! ## Implementations
//!
//! The crate provides several interchangeable implementations of the
//! [`MonotonicCounter`] trait, used by the paper-reproduction benchmarks to
//! ablate the design of Section 7:
//!
//! | Type | Fast path | Wait structure | Corresponds to |
//! |------|-----------|----------------|----------------|
//! | [`Counter`] | packed-word | sorted singly-linked list of condvar nodes | the paper's Section 7 implementation (including Figure 2's draining nodes), with lock-free uncontended paths layered on top |
//! | [`BTreeCounter`] | packed-word | `BTreeMap` of condvar nodes | same algorithm, O(log L) level lookup |
//! | [`NaiveCounter`] | — | one condvar, broadcast on every increment | the strawman the paper improves on: O(threads) wakeups; also a counter written as Section 8's predicate monitor |
//! | [`SpinCounter`] | always | none — waiters busy-spin | the no-suspension-queue end of the design space |
//! | [`ShardedCounter`] | packed-word + striped cells | `BTreeMap` of condvar nodes | high-contention extension: increments land in per-thread cells and a combiner publishes into the packed word |
//!
//! The queue-structured implementations share the key complexity property of
//! Section 7: storage and wakeup work are proportional to the **number of
//! distinct levels being waited on**, not to the number of waiting threads.
//! [`NaiveCounter`] is the single-queue baseline that lacks it, and
//! [`SpinCounter`] trades queues for CPU.
//!
//! [`Counter`] and [`BTreeCounter`] are one generic type,
//! [`WaitlistCounter`], over the two [`WaitQueue`] strategies, and
//! [`ShardedCounter`] suspends and wakes through the same slow path. All
//! three share one "packed-word" protocol (the private `fastpath` module): a
//! single `AtomicU64` packs the counter value with a has-waiters bit, so a
//! `check` whose level is already satisfied is one atomic load and an
//! `increment` with no registered waiters is one CAS — the mutex and node
//! structure are touched only when a thread actually suspends or must be
//! woken. [`StatsSnapshot`] exposes per-tier hit counters
//! (`fast_increments`, `fast_checks`, `slow_path_entries`).
//!
//! ## API surface
//!
//! The trait surface is split so the type system enforces the paper's "no
//! probe" rule:
//!
//! * [`MonotonicCounter`] — exactly the synchronization operations
//!   (`increment`, `try_increment`, `check`, `check_timeout`, `advance_to`,
//!   plus the failure-aware `wait`/`wait_timeout`/`poison`);
//! * [`Resettable`] — phase reuse (`reset`), which takes `&mut self` because
//!   it must not race with other operations;
//! * [`CounterDiagnostics`] — observation for tests and benchmarks
//!   (`debug_value`, `stats`, `impl_name`, `waiters`), fenced off so generic
//!   synchronization code cannot branch on the instantaneous value.
//!
//! ## Failure propagation
//!
//! The paper's deadlock-freedom result assumes every thread delivers its
//! increments. When a thread may fail, three layers turn the silent hang
//! into a propagated error:
//!
//! * **Poisoning** — [`MonotonicCounter::poison`] records a [`FailureInfo`]
//!   and wakes every blocked waiter with [`CheckError::Poisoned`]; `check`
//!   re-panics with the original cause. Satisfied levels keep succeeding —
//!   poison only fails waits that would block forever.
//! * **Obligations** — [`Obligation`] RAII guards
//!   ([`CounterExt::obligation`]) deliver their increment on normal drop and
//!   poison the counter when dropped during a panic unwind.
//! * **Supervision** — the [`Supervisor`] registry snapshots registered
//!   counters (value, outstanding obligations, waiting levels), diagnoses
//!   stalls as *stuck* (no obligations can satisfy the waited level) versus
//!   merely *slow*, and can poison provably-stuck counters.
//!
//! ## Construction
//!
//! Every implementation is built through one fluent path, [`CounterBuilder`]
//! (reachable as `Type::builder()`), which exposes the knobs shared across
//! implementations: initial value, shard count, a metrics sink, and
//! spinning before suspending. Statistics are always collected and
//! `poison` always propagates.
//!
//! ## Quickstart
//!
//! ```
//! use mc_counter::{Counter, MonotonicCounter};
//! use std::sync::Arc;
//!
//! let c = Arc::new(Counter::builder().build());
//! let c2 = Arc::clone(&c);
//! let handle = std::thread::spawn(move || {
//!     c2.check(3); // suspends until the counter reaches 3
//!     "data is ready"
//! });
//! c.increment(1);
//! c.increment(2); // reaches 3: the waiter wakes
//! assert_eq!(handle.join().unwrap(), "data is ready");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backoff;
mod builder;
mod error;
mod fastpath;
mod list;
mod metered;
mod multi;
mod naive;
mod node;
mod obligation;
mod sharded;
mod spin;
mod stats;
mod supervisor;
pub mod testkit;
mod trace;
mod traits;
mod waitlist;

pub use backoff::{backoff, jitter, splitmix64, SPLITMIX64_GAMMA};
pub use builder::{BuildConfig, Buildable, CounterBuilder, MetricsSink, PoisonPolicy};
pub use error::{
    CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo, FirstPanic,
    POISONED_PANIC_PREFIX,
};
pub use list::SortedList;
pub use metered::{MeteredCounter, SAMPLE_EVERY};
pub use multi::{check_all, CounterSet};
pub use naive::NaiveCounter;
pub use obligation::Obligation;
pub use sharded::ShardedCounter;
pub use spin::SpinCounter;
pub use stats::StatsSnapshot;
pub use supervisor::{
    CounterRecovery, CounterReport, RecoveredCounter, RecoveryReport, StallReport, StallVerdict,
    SupervisedCounter, SupervisedObligation, Supervisor, SupervisorConfig,
};
pub use trace::{CounterSnapshot, NodeSnapshot, TracingCounter};
pub use traits::{
    CounterDiagnostics, CounterExt, HealthStatus, MonotonicCounter, Resettable, ResumableCounter,
    WaitingLevel,
};
pub use waitlist::{BTreeCounter, Counter, WaitQueue, WaitlistCounter};

/// The integer type used for counter values and levels.
///
/// The paper uses `unsigned int`; we use 64 bits so that realistic long-running
/// programs (e.g. a broadcast counter incremented once per item) cannot
/// overflow in practice. Overflow on [`MonotonicCounter::increment`] panics.
pub type Value = u64;

/// A shared, type-erased monotonic counter.
///
/// [`MonotonicCounter`] is object-safe and already requires `Send + Sync`, so
/// any implementation can be handed around as one of these when the concrete
/// type should not leak into signatures (plugin boundaries, heterogeneous
/// collections, config-selected implementations).
pub type DynCounter = std::sync::Arc<dyn MonotonicCounter>;
