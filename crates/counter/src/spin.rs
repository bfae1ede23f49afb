//! [`SpinCounter`]: a busy-waiting monotonic counter.
//!
//! `check` spins on an atomic load (with scheduler yields) instead of
//! suspending on a condition variable. No suspension queues exist at all —
//! the opposite end of the design space from the paper's Section 7
//! structure. Competitive when waits are extremely short and cores are
//! plentiful; pathological when waits are long or cores are scarce.
//! Included for the E7 ablation.

use crate::builder::{BuildConfig, Buildable, CounterBuilder};
use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::stats::{Stats, StatsSnapshot};
use crate::traits::{CounterDiagnostics, MonotonicCounter, Resettable};
use crate::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A monotonic counter whose waiters spin.
///
/// Semantically interchangeable with [`crate::Counter`]; `check` burns CPU
/// while waiting. Every synchronization operation is lock-free (the poison
/// flag is an atomic the spin loops poll; the mutex below only guards the
/// cause record, off the hot paths).
pub struct SpinCounter {
    value: AtomicU64,
    poisoned: AtomicBool,
    cause: Mutex<Option<FailureInfo>>,
    stats: Stats,
}

impl Default for SpinCounter {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Buildable for SpinCounter {
    fn from_config(cfg: &BuildConfig) -> Self {
        SpinCounter {
            value: AtomicU64::new(cfg.initial()),
            poisoned: AtomicBool::new(false),
            cause: Mutex::new(None),
            stats: Stats::default(),
        }
    }
}

impl SpinCounter {
    /// Starts building a counter; see [`CounterBuilder`].
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// Reads the poisoning cause after observing the `poisoned` flag. The
    /// flag is stored only after the cause is published (both SeqCst), so
    /// this cannot observe the flag without the cause.
    fn cause(&self) -> FailureInfo {
        self.cause
            .lock()
            .expect("poison cause lock poisoned")
            .clone()
            .expect("poison flag set without a recorded cause")
    }
}

impl MonotonicCounter for SpinCounter {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        let mut cur = self.value.load(SeqCst);
        loop {
            let new = cur
                .checked_add(amount)
                .ok_or(CounterOverflowError { value: cur, amount })?;
            match self.value.compare_exchange_weak(cur, new, SeqCst, SeqCst) {
                Ok(_) => {
                    // Every spin-counter increment is lock-free by
                    // construction; count it as a fast-path hit so E8's
                    // tables compare like with like.
                    self.stats.record_fast_increment();
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        if self.value.load(SeqCst) >= level {
            self.stats.record_fast_check();
            return Ok(());
        }
        self.stats.record_check_suspended();
        let mut spins = 0u32;
        while self.value.load(SeqCst) < level {
            if self.poisoned.load(SeqCst) {
                self.stats.record_waiter_resumed();
                return Err(CheckError::Poisoned(self.cause()));
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                // Give the producer a chance on oversubscribed machines.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.stats.record_waiter_resumed();
        Ok(())
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        if self.value.load(SeqCst) >= level {
            self.stats.record_fast_check();
            return Ok(());
        }
        self.stats.record_check_suspended();
        // A timeout too long to represent is no deadline at all.
        let deadline = Instant::now().checked_add(timeout);
        let mut spins = 0u32;
        while self.value.load(SeqCst) < level {
            if self.poisoned.load(SeqCst) {
                self.stats.record_waiter_resumed();
                return Err(CheckError::Poisoned(self.cause()));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                self.stats.record_waiter_resumed();
                return Err(CheckError::Timeout(CheckTimeoutError { level }));
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.stats.record_waiter_resumed();
        Ok(())
    }

    fn poison(&self, info: FailureInfo) {
        let mut cause = self.cause.lock().expect("poison cause lock poisoned");
        if cause.is_some() {
            return;
        }
        *cause = Some(info);
        // Publish the flag while still holding the cause lock: any spinner
        // that sees the flag finds the cause already recorded.
        self.poisoned.store(true, SeqCst);
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        if !self.poisoned.load(SeqCst) {
            return None;
        }
        Some(self.cause())
    }

    fn advance_to(&self, target: Value) {
        let prev = self.value.fetch_max(target, SeqCst);
        if prev < target {
            self.stats.record_fast_increment();
        }
    }
}

impl Resettable for SpinCounter {
    fn reset(&mut self) {
        *self.value.get_mut() = 0;
        *self.poisoned.get_mut() = false;
        *self.cause.get_mut().expect("poison cause lock poisoned") = None;
    }
}

impl CounterDiagnostics for SpinCounter {
    fn debug_value(&self) -> Value {
        self.value.load(SeqCst)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn impl_name(&self) -> &'static str {
        "spin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_and_wake() {
        let c = Arc::new(SpinCounter::default());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.check(5));
        for _ in 0..5 {
            c.increment(1);
        }
        h.join().unwrap();
        assert_eq!(c.debug_value(), 5);
    }

    #[test]
    fn timeout_expires_without_increment() {
        let c = SpinCounter::default();
        assert!(c.check_timeout(1, Duration::from_millis(10)).is_err());
    }

    #[test]
    fn poison_breaks_the_spin_loop() {
        let c = Arc::new(SpinCounter::default());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait(100));
        while c.stats().live_waiters == 0 {
            std::thread::yield_now();
        }
        c.poison(FailureInfo::new("spinner failure"));
        assert!(matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))));
        // Value ops keep working and satisfied waits succeed.
        c.increment(1);
        assert!(c.wait(1).is_ok());
    }

    #[test]
    fn concurrent_increments_sum() {
        let c = Arc::new(SpinCounter::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.increment(1);
                    }
                });
            }
        });
        assert_eq!(c.debug_value(), 8000);
    }
}
