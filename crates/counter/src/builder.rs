//! [`CounterBuilder`]: the single construction path for every counter
//! implementation.
//!
//! Before the builder, each implementation grew its own ad-hoc constructors
//! (`new`, `with_value`, tracing and ablation variants), and adding a knob
//! meant touching every one of them. The builder centralizes construction:
//!
//! ```
//! use mc_counter::{Counter, ShardedCounter, MonotonicCounter};
//!
//! let c = Counter::builder().initial(10).build();
//! c.check(10);
//!
//! let s = ShardedCounter::builder()
//!     .shards(8) // increment stripes (sharded counters only)
//!     .build();
//! s.increment(1);
//! ```
//!
//! Every implementation accepts every knob; knobs that do not apply to an
//! implementation (e.g. `shards` on a mutex-only counter) are documented as
//! ignored rather than rejected, so generic code can configure a
//! `CounterBuilder<C>` without knowing `C`.
//!
//! | knob | default | consulted by |
//! |---|---|---|
//! | [`initial`](CounterBuilder::initial) | 0 | every implementation |
//! | [`shards`](CounterBuilder::shards) | implementation-chosen | [`ShardedCounter`](crate::ShardedCounter) |
//! | [`metrics`](CounterBuilder::metrics) | none | [`ShardedCounter`](crate::ShardedCounter) |
//! | [`spin_before_suspend`](CounterBuilder::spin_before_suspend) | off | [`Counter`](crate::Counter) and [`BTreeCounter`](crate::BTreeCounter); every other implementation ignores it |
//!
//! Statistics are always collected and `poison` always propagates.

use crate::Value;
use mc_metrics::{Event, Histogram, Registry};
use std::marker::PhantomData;
use std::sync::Arc;

/// A destination for metrics: a shared [`Registry`] plus the dot-separated
/// name prefix published under. Passed through the builder
/// ([`CounterBuilder::metrics`]), where only
/// [`ShardedCounter`](crate::ShardedCounter)'s combiner attaches to it, and
/// used by the [`Supervisor`](crate::Supervisor) and the durable layer.
/// `None` — the default — costs nothing: no handle is held and no record
/// call is compiled into the path.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    registry: Arc<Registry>,
    prefix: String,
}

impl MetricsSink {
    /// A sink publishing under `prefix` (e.g. `"jobs"` → `jobs.increments`).
    pub fn new(registry: Arc<Registry>, prefix: impl Into<String>) -> Self {
        MetricsSink {
            registry,
            prefix: prefix.into(),
        }
    }

    /// The registry metrics are published to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The name prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The event counter `<prefix>.<suffix>`, created on first use.
    pub fn event(&self, suffix: &str) -> Arc<Event> {
        self.registry.event(&format!("{}.{suffix}", self.prefix))
    }

    /// The histogram `<prefix>.<suffix>`, created on first use.
    pub fn histogram(&self, suffix: &str) -> Arc<Histogram> {
        self.registry
            .histogram(&format!("{}.{suffix}", self.prefix))
    }
}

/// The resolved knob set a [`CounterBuilder`] hands to
/// [`Buildable::from_config`].
///
/// Public so external implementations of [`Buildable`] can read the knobs;
/// constructed only through the builder.
#[derive(Debug, Clone, Default)]
pub struct BuildConfig {
    initial: Value,
    shards: Option<usize>,
    metrics: Option<MetricsSink>,
    spin_before_suspend: bool,
}

impl BuildConfig {
    /// The starting value (default 0).
    pub fn initial(&self) -> Value {
        self.initial
    }

    /// Requested increment-stripe count, if set. Only sharded
    /// implementations consult it.
    pub fn shards(&self) -> Option<usize> {
        self.shards
    }

    /// The metrics sink, if instrumentation was requested
    /// ([`CounterBuilder::metrics`]). Implementations without
    /// instrumentation points ignore it.
    pub fn metrics(&self) -> Option<&MetricsSink> {
        self.metrics.as_ref()
    }

    /// Whether a waiter should briefly poll before suspending (default
    /// false; see [`CounterBuilder::spin_before_suspend`]).
    pub fn spin_before_suspend(&self) -> bool {
        self.spin_before_suspend
    }
}

/// Implemented by every counter that can be constructed from a
/// [`BuildConfig`] — the hook [`CounterBuilder::build`] calls.
pub trait Buildable: Sized {
    /// Constructs the counter from the resolved knob set. Implementations
    /// must honor `initial`, and may ignore knobs that do not apply to their
    /// design (documenting so).
    fn from_config(cfg: &BuildConfig) -> Self;
}

/// Fluent construction for any counter implementation.
///
/// Obtain one from the implementation's inherent `builder()` method (e.g.
/// [`Counter::builder`](crate::Counter::builder)) or, in generic code, from
/// `CounterBuilder::<C>::new()`.
#[derive(Debug)]
pub struct CounterBuilder<C: Buildable> {
    cfg: BuildConfig,
    _counter: PhantomData<fn() -> C>,
}

impl<C: Buildable> Default for CounterBuilder<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Buildable> CounterBuilder<C> {
    /// A builder with all knobs at their defaults: initial value 0,
    /// implementation-chosen shards, no metrics, no spinning.
    pub fn new() -> Self {
        CounterBuilder {
            cfg: BuildConfig::default(),
            _counter: PhantomData,
        }
    }

    /// Starting value (phase-reuse and resume scenarios; equivalent to
    /// building at 0 and calling `advance_to(value)`).
    pub fn initial(mut self, value: Value) -> Self {
        self.cfg.initial = value;
        self
    }

    /// Number of increment stripes for sharded implementations (rounded up
    /// to a power of two; implementation-clamped). Ignored by unsharded
    /// implementations.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = Some(shards);
        self
    }

    /// Publishes this counter's combiner metrics under `prefix` in
    /// `registry` (default: none, zero overhead). Only
    /// [`ShardedCounter`](crate::ShardedCounter) consults the sink: it
    /// records combiner publications and flush backlog. Every other
    /// implementation ignores it; a counter's operation counts are exported
    /// by registering it with a [`Supervisor`](crate::Supervisor) that has
    /// metrics attached.
    pub fn metrics(mut self, registry: &Arc<Registry>, prefix: impl Into<String>) -> Self {
        self.cfg.metrics = Some(MetricsSink::new(Arc::clone(registry), prefix));
        self
    }

    /// Lets a waiter that is next in line (its level is at most one above
    /// the current value) poll the counter briefly before it suspends
    /// (default off). A hand-off whose increment arrives within the poll
    /// budget then costs no lock, wait node or futex sleep, and the
    /// incrementer, finding no waiter registered, takes its one-CAS fast
    /// path.
    ///
    /// Meant for hand-off patterns such as `mc_patterns::Sequencer`, where
    /// the next ticket's thread is almost always waiting already. Where
    /// waiters usually wait longer than the poll budget, the polling only
    /// takes CPU time from the threads that would increment, so the option
    /// is per counter.
    ///
    /// [`build`](Self::build) decides once, on the building thread:
    /// spinning is enabled only if [`std::thread::available_parallelism`]
    /// reports more than one CPU there, since a lone CPU cannot run the
    /// incrementer while the waiter polls. Build the counter before pinning
    /// the threads that use it. Only [`Counter`](crate::Counter) and
    /// [`BTreeCounter`](crate::BTreeCounter) with their fast path enabled
    /// consult the option; every other implementation ignores it, including
    /// [`NaiveCounter`](crate::NaiveCounter) and
    /// [`SpinCounter`](crate::SpinCounter), whose queues fix how their
    /// waiters wait.
    pub fn spin_before_suspend(mut self, enabled: bool) -> Self {
        self.cfg.spin_before_suspend = enabled;
        self
    }

    /// Constructs the counter.
    pub fn build(self) -> C {
        C::from_config(&self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, NaiveCounter, ShardedCounter,
        SpinCounter, TracingCounter,
    };

    fn exercise<C: Buildable + MonotonicCounter + CounterDiagnostics>() {
        let c = CounterBuilder::<C>::new().initial(5).build();
        assert_eq!(c.debug_value(), 5);
        c.increment(2);
        c.check(7);
    }

    #[test]
    fn every_impl_builds_with_initial_value() {
        exercise::<Counter>();
        exercise::<BTreeCounter>();
        exercise::<NaiveCounter>();
        exercise::<TracingCounter>();
        exercise::<SpinCounter>();
        exercise::<ShardedCounter>();
    }

    #[test]
    fn defaults_match_the_legacy_constructors() {
        let built = Counter::builder().build();
        assert_eq!(built.debug_value(), 0);
        assert!(built.poison_info().is_none());
        let snap = built.stats();
        assert_eq!(snap, crate::StatsSnapshot::default());
    }
}
