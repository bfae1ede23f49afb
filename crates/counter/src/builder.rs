//! [`CounterBuilder`]: the single construction path for every counter
//! implementation.
//!
//! Before the builder, each implementation grew its own ad-hoc constructors
//! (`new`, `with_value`, tracing and ablation variants), and adding a knob
//! meant touching every one of them. The builder centralizes construction:
//!
//! ```
//! use mc_counter::{Counter, MonotonicCounter};
//!
//! let c = Counter::builder().initial(10).build();
//! c.check(10);
//! ```
//!
//! Every implementation accepts every knob; knobs that do not apply to an
//! implementation (e.g. `spin_before_suspend` on a
//! [`NaiveCounter`](crate::NaiveCounter)) are documented as ignored rather
//! than rejected, so generic code can configure a `CounterBuilder<C>`
//! without knowing `C`.
//!
//! | knob | default | consulted by |
//! |---|---|---|
//! | [`initial`](CounterBuilder::initial) | 0 | every implementation |
//! | [`spin_before_suspend`](CounterBuilder::spin_before_suspend) | off | [`Counter`](crate::Counter) and [`BTreeCounter`](crate::BTreeCounter); every other implementation ignores it |
//!
//! Statistics are always collected and `poison` always propagates.

use crate::Value;
use mc_metrics::{Event, Histogram, Registry};
use std::marker::PhantomData;
use std::sync::Arc;

/// A destination for metrics: a shared [`Registry`] plus the dot-separated
/// name prefix published under. Used by the
/// [`Supervisor`](crate::Supervisor) and the durable layer.
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
    spin_before_suspend: bool,
}

impl BuildConfig {
    /// The starting value (default 0).
    pub fn initial(&self) -> Value {
        self.initial
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
    /// A builder with all knobs at their defaults: initial value 0, no
    /// spinning.
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
        BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, NaiveCounter, SpinCounter,
        TracingCounter,
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
