//! A counter wrapper that perturbs the schedule around every operation.

use crate::jitter::Chaos;
use mc_counter::{
    CheckError, CheckTimeoutError, CounterDiagnostics, CounterOverflowError, FailureInfo,
    HealthStatus, MonotonicCounter, Resettable, StatsSnapshot, Value, WaitingLevel,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wraps any [`MonotonicCounter`] so that every operation passes through a
/// [`Chaos`] perturbation point before *and* after executing — widening the
/// set of schedules a test explores without changing semantics.
///
/// With [`with_abandon_after`](Self::with_abandon_after), the wrapper also
/// injects an *abandonment fault*: the Nth increment is dropped and the
/// counter poisoned instead, simulating a producer thread dying mid-protocol
/// — the failure mode the poisoning machinery exists to surface.
///
/// # Example
///
/// ```
/// use mc_chaos::{Chaos, ChaosCounter};
/// use mc_counter::{Counter, MonotonicCounter};
/// use std::sync::Arc;
///
/// let chaos = Arc::new(Chaos::new(42));
/// let c = ChaosCounter::new(Counter::default(), chaos);
/// c.increment(1);
/// c.check(1);
/// ```
pub struct ChaosCounter<C> {
    inner: C,
    chaos: Arc<Chaos>,
    /// Remaining increments until the abandonment fault fires; `u64::MAX`
    /// means no fault is armed.
    abandon_in: AtomicU64,
}

impl<C: MonotonicCounter> ChaosCounter<C> {
    /// Wraps `inner`, drawing jitter from `chaos` (shared so every counter
    /// in a program consumes one seeded stream).
    pub fn new(inner: C, chaos: Arc<Chaos>) -> Self {
        ChaosCounter {
            inner,
            chaos,
            abandon_in: AtomicU64::new(u64::MAX),
        }
    }

    /// Like [`new`](Self::new), but the `nth` increment (1-based) is
    /// **abandoned**: instead of incrementing, the wrapper poisons the
    /// counter as a panicking obligation holder would. Blocked waiters then
    /// fail with [`CheckError::Poisoned`] rather than hanging — letting
    /// chaos tests drive the failure paths on a seeded schedule.
    pub fn with_abandon_after(inner: C, chaos: Arc<Chaos>, nth: u64) -> Self {
        assert!(nth > 0, "the abandoned increment is 1-based");
        assert!(nth < u64::MAX, "u64::MAX means no fault is armed");
        ChaosCounter {
            inner,
            chaos,
            abandon_in: AtomicU64::new(nth),
        }
    }

    /// The wrapped counter.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Decrements the fault countdown; `true` when this call is the
    /// abandoned one.
    fn fault_fires(&self) -> bool {
        if self.abandon_in.load(Ordering::Relaxed) == u64::MAX {
            return false;
        }
        self.abandon_in.fetch_sub(1, Ordering::Relaxed) == 1
    }

    fn abandon(&self, amount: Value) {
        self.inner.poison(
            FailureInfo::new("chaos fault injection: increment abandoned").with_level(amount),
        );
    }
}

impl<C: MonotonicCounter> MonotonicCounter for ChaosCounter<C> {
    fn increment(&self, amount: Value) {
        self.chaos.point();
        if self.fault_fires() {
            self.abandon(amount);
        } else {
            self.inner.increment(amount);
        }
        self.chaos.point();
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        self.chaos.point();
        let r = if self.fault_fires() {
            self.abandon(amount);
            Ok(())
        } else {
            self.inner.try_increment(amount)
        };
        self.chaos.point();
        r
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        self.chaos.point();
        let r = self.inner.wait(level);
        self.chaos.point();
        r
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        self.chaos.point();
        let r = self.inner.wait_timeout(level, timeout);
        self.chaos.point();
        r
    }

    fn poison(&self, info: FailureInfo) {
        self.chaos.point();
        self.inner.poison(info);
        self.chaos.point();
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.inner.poison_info()
    }

    fn check(&self, level: Value) {
        self.chaos.point();
        self.inner.check(level);
        self.chaos.point();
    }

    fn check_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckTimeoutError> {
        self.chaos.point();
        let r = self.inner.check_timeout(level, timeout);
        self.chaos.point();
        r
    }

    fn advance_to(&self, target: Value) {
        self.chaos.point();
        self.inner.advance_to(target);
        self.chaos.point();
    }
}

impl<C: Resettable> Resettable for ChaosCounter<C> {
    fn reset(&mut self) {
        self.inner.reset();
        *self.abandon_in.get_mut() = u64::MAX;
    }
}

impl<C: CounterDiagnostics> CounterDiagnostics for ChaosCounter<C> {
    fn debug_value(&self) -> Value {
        self.inner.debug_value()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn impl_name(&self) -> &'static str {
        "chaos-wrapped"
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

#[cfg(test)]
mod tests {
    use super::*;
    use mc_counter::testkit::{self, RecordingCounter};
    use mc_counter::Counter;

    #[test]
    fn semantics_preserved_under_jitter() {
        let chaos = Arc::new(Chaos::new(99));
        let c = Arc::new(ChaosCounter::new(Counter::default(), Arc::clone(&chaos)));
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.check(10));
        for _ in 0..10 {
            c.increment(1);
        }
        h.join().unwrap();
        assert_eq!(c.debug_value(), 10);
        assert_eq!(c.inner().debug_value(), 10);
    }

    #[test]
    fn timeout_and_overflow_pass_through() {
        let chaos = Arc::new(Chaos::new(1));
        let c = ChaosCounter::new(Counter::default(), chaos);
        assert!(c.check_timeout(5, Duration::from_millis(10)).is_err());
        c.increment(u64::MAX);
        assert!(c.try_increment(1).is_err());
    }

    #[test]
    fn advance_and_reset_pass_through() {
        let chaos = Arc::new(Chaos::new(1));
        let mut c = ChaosCounter::new(Counter::default(), chaos);
        c.advance_to(7);
        assert_eq!(c.debug_value(), 7);
        c.reset();
        assert_eq!(c.debug_value(), 0);
    }

    #[test]
    fn forwards_the_entire_trait_surface() {
        // The shared forwarding-conformance test: every MonotonicCounter
        // method driven through the wrapper must reach the wrapped counter.
        let chaos = Arc::new(Chaos::new(5));
        let c = ChaosCounter::new(RecordingCounter::new(), chaos);
        testkit::exercise_all(&c);
        testkit::assert_all_forwarded(c.inner());
        assert_eq!(c.waiters(), c.inner().waiters());
    }

    #[test]
    fn forwards_health() {
        // A supervisor reads a wrapped counter's health through the
        // wrapper: a degraded inner counter must not read healthy.
        let chaos = Arc::new(Chaos::new(6));
        let c = ChaosCounter::new(RecordingCounter::degraded(), chaos);
        assert!(c.health().is_degraded(), "got {}", c.health());
    }

    #[test]
    fn abandon_fault_poisons_on_the_nth_increment() {
        let chaos = Arc::new(Chaos::new(11));
        let c = ChaosCounter::with_abandon_after(Counter::default(), chaos, 3);
        c.increment(1);
        c.increment(1);
        assert!(c.poison_info().is_none());
        c.increment(1); // the abandoned one
        let info = c.poison_info().expect("third increment must be abandoned");
        assert!(info.message().contains("abandoned"));
        assert_eq!(c.debug_value(), 2, "the abandoned amount is never added");
        // Later increments still apply (poison does not freeze the value).
        c.increment(5);
        assert_eq!(c.debug_value(), 7);
    }

    #[test]
    fn abandon_fault_releases_blocked_waiters() {
        let chaos = Arc::new(Chaos::new(12));
        let c = Arc::new(ChaosCounter::with_abandon_after(
            Counter::default(),
            chaos,
            2,
        ));
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait(10));
        while c.waiters().is_empty() {
            std::thread::yield_now();
        }
        c.increment(1);
        c.increment(9); // abandoned: poisons instead
        assert!(matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))));
    }

    #[test]
    fn unarmed_wrapper_never_faults() {
        let chaos = Arc::new(Chaos::new(13));
        let c = ChaosCounter::new(Counter::default(), chaos);
        for _ in 0..1000 {
            c.increment(1);
        }
        assert!(c.poison_info().is_none());
        assert_eq!(c.debug_value(), 1000);
    }
}
