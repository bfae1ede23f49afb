//! Shared test helpers for auditing counter *wrappers*.
//!
//! Wrapper types (chaos injection, tracing, clock tracking) must forward the
//! **entire** [`MonotonicCounter`] surface: a wrapper that silently relies on
//! a provided default for a method it means to intercept, or that drops a
//! forwarding when the trait grows, reintroduces exactly the silent-hang
//! failure modes the poisoning machinery exists to remove. This module
//! provides a [`RecordingCounter`] that logs every trait-method invocation,
//! and a driver ([`exercise_all`]) + strict assertion
//! ([`assert_all_forwarded`]) pair that downstream crates reuse as a shared
//! forwarding-conformance test.
//!
//! ```
//! use mc_counter::testkit::{self, RecordingCounter};
//!
//! let rec = RecordingCounter::new();
//! testkit::exercise_all(&rec); // drive the full surface, non-blockingly
//! testkit::assert_all_forwarded(&rec);
//! ```

use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::stats::StatsSnapshot;
use crate::traits::{
    CounterDiagnostics, HealthStatus, MonotonicCounter, Resettable, ResumableCounter, WaitingLevel,
};
use crate::{Counter, Value};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every [`MonotonicCounter`] method, including the provided ones: the names
/// [`assert_all_forwarded`] requires to appear in a [`RecordingCounter`] log.
pub const ALL_METHODS: [&str; 9] = [
    "increment",
    "try_increment",
    "advance_to",
    "wait",
    "wait_timeout",
    "check",
    "check_timeout",
    "poison",
    "poison_info",
];

/// A fully functional counter (backed by [`Counter`]) that records the name
/// of every [`MonotonicCounter`] method invoked on it.
///
/// Wrap it in the adapter under test, drive the adapter with
/// [`exercise_all`], then call [`assert_all_forwarded`]: any method the
/// adapter fails to forward is reported by name.
pub struct RecordingCounter {
    inner: Counter,
    calls: Mutex<Vec<&'static str>>,
    /// What [`CounterDiagnostics::health`] reports.
    health: HealthStatus,
}

impl Default for RecordingCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingCounter {
    /// Creates a recording counter with value zero and an empty log.
    pub fn new() -> Self {
        RecordingCounter {
            inner: Counter::builder().build(),
            calls: Mutex::new(Vec::new()),
            health: HealthStatus::Healthy,
        }
    }

    /// A recording counter whose [`health`](CounterDiagnostics::health)
    /// always reads [`HealthStatus::Degraded`], for checking that wrappers
    /// and supervisors pass a counter's health through.
    pub fn degraded() -> Self {
        RecordingCounter {
            health: HealthStatus::Degraded {
                since: Instant::now(),
                queued: 1,
            },
            ..Self::new()
        }
    }

    fn record(&self, name: &'static str) {
        self.calls
            .lock()
            .expect("recording log poisoned")
            .push(name);
    }

    /// The method names invoked so far, in call order.
    pub fn calls(&self) -> Vec<&'static str> {
        self.calls.lock().expect("recording log poisoned").clone()
    }

    /// The entries of [`ALL_METHODS`] *not* yet invoked.
    pub fn missing_calls(&self) -> Vec<&'static str> {
        let seen = self.calls();
        ALL_METHODS
            .iter()
            .copied()
            .filter(|m| !seen.contains(m))
            .collect()
    }
}

impl MonotonicCounter for RecordingCounter {
    fn increment(&self, amount: Value) {
        self.record("increment");
        self.inner.increment(amount);
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        self.record("try_increment");
        self.inner.try_increment(amount)
    }

    fn advance_to(&self, target: Value) {
        self.record("advance_to");
        self.inner.advance_to(target);
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        self.record("wait");
        self.inner.wait(level)
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        self.record("wait_timeout");
        self.inner.wait_timeout(level, timeout)
    }

    fn check(&self, level: Value) {
        self.record("check");
        self.inner.check(level);
    }

    fn check_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckTimeoutError> {
        self.record("check_timeout");
        self.inner.check_timeout(level, timeout)
    }

    fn poison(&self, info: FailureInfo) {
        self.record("poison");
        self.inner.poison(info);
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.record("poison_info");
        self.inner.poison_info()
    }
}

impl Resettable for RecordingCounter {
    fn reset(&mut self) {
        self.record("reset");
        self.inner.reset();
    }
}

impl ResumableCounter for RecordingCounter {
    fn resume_from(value: Value) -> Self {
        RecordingCounter {
            inner: Counter::resume_from(value),
            calls: Mutex::new(vec!["resume_from"]),
            health: HealthStatus::Healthy,
        }
    }
}

impl CounterDiagnostics for RecordingCounter {
    fn debug_value(&self) -> Value {
        self.inner.debug_value()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn impl_name(&self) -> &'static str {
        "recording"
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.inner.waiters()
    }

    fn health(&self) -> HealthStatus {
        self.health
    }
}

/// Drives every [`MonotonicCounter`] method on `counter` exactly as a
/// single-threaded program can — no call blocks — and asserts the expected
/// semantics along the way. Ends with the counter poisoned (cause message
/// `"testkit exercise"`), value 6.
pub fn exercise_all<C: MonotonicCounter + ?Sized>(counter: &C) {
    assert!(
        counter.try_increment(1).is_ok(),
        "try_increment must succeed"
    );
    counter.increment(2);
    counter.advance_to(5);
    assert!(counter.wait(5).is_ok(), "satisfied wait must return Ok");
    assert!(
        matches!(
            counter.wait_timeout(6, Duration::from_millis(1)),
            Err(CheckError::Timeout(_))
        ),
        "unsatisfied wait_timeout must time out"
    );
    counter.check(5);
    assert!(
        counter.check_timeout(6, Duration::from_millis(1)).is_err(),
        "unsatisfied check_timeout must time out"
    );
    assert!(
        counter.poison_info().is_none(),
        "poison_info must be None before poisoning"
    );
    counter.poison(FailureInfo::new("testkit exercise"));
    let info = counter
        .poison_info()
        .expect("poison_info must report the cause after poisoning");
    assert_eq!(info.message(), "testkit exercise");
    assert!(
        matches!(counter.wait(100), Err(CheckError::Poisoned(_))),
        "blocked wait on a poisoned counter must fail"
    );
    counter.increment(1);
    assert!(
        counter.wait(6).is_ok(),
        "satisfied wait must succeed even when poisoned"
    );
}

/// Drives the [`ResumableCounter`] surface: constructs via
/// `resume_from(4)` and asserts the recovered value behaves exactly like an
/// organically reached one — satisfied waits return immediately, higher
/// levels block (and time out), and further increments accumulate on top.
/// Requires [`CounterDiagnostics`] so the recovered value is observable.
pub fn exercise_resumable<C: ResumableCounter + CounterDiagnostics>() {
    let c = C::resume_from(4);
    assert_eq!(c.debug_value(), 4, "resumed value must be visible");
    assert!(
        c.wait(4).is_ok(),
        "the resumed value satisfies waits immediately"
    );
    assert!(
        matches!(
            c.wait_timeout(5, Duration::from_millis(1)),
            Err(CheckError::Timeout(_))
        ),
        "levels above the resumed value still block"
    );
    c.increment(2);
    assert!(
        c.wait(6).is_ok(),
        "increments accumulate on the resumed value"
    );
    assert_eq!(c.debug_value(), 6);
    assert!(c.waiters().is_empty(), "no waiter survives the exercise");
    assert!(
        c.poison_info().is_none(),
        "resuming must not carry a poison bit"
    );
    // Resuming from zero is indistinguishable from a fresh counter.
    assert_eq!(C::resume_from(0).debug_value(), 0);
}

/// Drives one full supervised-restart cycle — poison, clear-via-recovery,
/// reuse — the lifecycle a counter goes through under a supervision tree:
///
/// 1. a worker applies part of its work and dies, poisoning the counter;
/// 2. recovery constructs a replacement via
///    [`ResumableCounter::resume_from`] at the observed value (the poison
///    does not travel — "clearing" it is building the successor);
/// 3. the replacement is reused: it serves satisfied waits immediately,
///    accepts the remaining increments, and survives a *second* crash and
///    recovery on top.
pub fn exercise_restart<C: ResumableCounter + CounterDiagnostics>() {
    // A worker crashed mid-protocol: 3 of 5 promised increments applied.
    let failed = C::resume_from(0);
    failed.increment(3);
    failed.poison(FailureInfo::new("worker panicked mid-protocol").with_level(2));
    assert!(
        matches!(failed.wait(5), Err(CheckError::Poisoned(_))),
        "the unreachable level must fail with the cause"
    );
    assert!(
        failed.wait(3).is_ok(),
        "the already-reached prefix survives the poison (satisfied-first)"
    );
    let watermark = failed.debug_value();
    assert_eq!(watermark, 3, "the applied prefix is the resume point");

    // Clear-via-recovery: the replacement resumes from the watermark clean.
    let recovered = C::resume_from(watermark);
    assert!(
        recovered.poison_info().is_none(),
        "poison must not travel into the recovered counter"
    );
    assert_eq!(recovered.debug_value(), 3);

    // Reuse: the restarted worker delivers exactly the remaining amount.
    recovered.increment(2);
    assert!(recovered.wait(5).is_ok(), "the original target is reached");
    assert_eq!(recovered.debug_value(), 5, "no double-counted increments");
    assert!(recovered.waiters().is_empty());

    // A second crash/recovery cycle works on top of the first.
    recovered.poison(FailureInfo::new("second crash"));
    let second = C::resume_from(recovered.debug_value());
    assert!(second.poison_info().is_none());
    assert!(second.wait(5).is_ok());
    second.increment(1);
    assert_eq!(second.debug_value(), 6);
    assert!(
        second.try_increment(1).is_ok(),
        "a twice-recovered counter still accepts work"
    );
}

/// Panics with the missing method names unless every entry of
/// [`ALL_METHODS`] was invoked on `rec` — the strict half of the shared
/// forwarding-conformance test.
pub fn assert_all_forwarded(rec: &RecordingCounter) {
    let missing = rec.missing_calls();
    assert!(
        missing.is_empty(),
        "wrapper failed to forward MonotonicCounter methods: {missing:?} \
         (recorded calls: {:?})",
        rec.calls()
    );
}

/// Coerces a counter to [`crate::DynCounter`] and drives the full erased
/// surface. Call this once per implementation: it fails to compile if the
/// trait stops being object-safe, and fails at runtime if erased dispatch
/// misbehaves.
pub fn exercise_erased<C: MonotonicCounter + 'static>(counter: C) {
    let erased: crate::DynCounter = std::sync::Arc::new(counter);
    exercise_all(erased.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_implementation_coerces_to_dyn_counter() {
        exercise_erased(crate::Counter::default());
        exercise_erased(crate::BTreeCounter::default());
        exercise_erased(crate::NaiveCounter::default());
        exercise_erased(crate::SpinCounter::default());
        exercise_erased(crate::TracingCounter::default());
    }

    #[test]
    fn exercise_all_hits_every_method_on_a_bare_recording_counter() {
        let rec = RecordingCounter::new();
        exercise_all(&rec);
        assert_all_forwarded(&rec);
        assert_eq!(rec.debug_value(), 6);
    }

    #[test]
    fn missing_calls_reports_undriven_methods() {
        let rec = RecordingCounter::new();
        rec.increment(1);
        let missing = rec.missing_calls();
        assert!(!missing.contains(&"increment"));
        assert!(missing.contains(&"poison"));
        assert_eq!(missing.len(), ALL_METHODS.len() - 1);
    }

    #[test]
    fn exercise_resumable_drives_the_resumable_surface() {
        exercise_resumable::<RecordingCounter>();
        let rec = RecordingCounter::resume_from(4);
        exercise_all_on_resumed(&rec);
        for m in ["resume_from", "wait", "wait_timeout", "increment"] {
            assert!(rec.calls().contains(&m), "missing {m}");
        }
    }

    // Drive the recorded methods `exercise_resumable` uses, on a shared
    // reference, so the log can be inspected afterwards.
    fn exercise_all_on_resumed(rec: &RecordingCounter) {
        assert!(rec.wait(4).is_ok());
        assert!(rec.wait_timeout(5, Duration::from_millis(1)).is_err());
        rec.increment(2);
        assert!(rec.wait(6).is_ok());
    }

    #[test]
    fn exercise_restart_drives_a_full_cycle() {
        exercise_restart::<RecordingCounter>();
        exercise_restart::<Counter>();
    }

    #[test]
    fn tracing_counter_forwards_the_full_surface() {
        // TracingCounter is the waitlist counter on its own queue, so the
        // recording technique cannot interpose; instead verify behaviorally
        // that the full surface works through it.
        let c = crate::TracingCounter::default();
        exercise_all(&c);
        assert_eq!(c.debug_value(), 6);
    }
}
