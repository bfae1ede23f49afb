//! [`NaiveCounter`]: the strawman implementation the paper's Section 7 design
//! improves on — a single condition variable broadcast on every increment.
//!
//! Correct but wasteful: every increment wakes **every** waiting thread, each
//! of which re-checks its own level and usually goes back to sleep. Wakeup
//! work is O(total waiting threads) per increment instead of O(satisfied
//! levels). Experiment E7 quantifies the difference.
//!
//! It is also the counter the paper's Section 8 sets beside monitors: a
//! counter written as a predicate monitor on its value (one lock, one
//! condition variable, `notify_all` on every change, each waiter re-testing
//! `value >= level`) is exactly this type.

use crate::builder::{BuildConfig, Buildable, CounterBuilder};
use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::stats::{Stats, StatsSnapshot};
use crate::traits::{CounterDiagnostics, MonotonicCounter, Resettable};
use crate::Value;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

struct State {
    value: Value,
    poisoned: Option<FailureInfo>,
}

/// A monotonic counter with a single shared suspension queue.
///
/// Semantically interchangeable with [`crate::Counter`]; kept as the baseline
/// for the implementation-ablation experiment.
pub struct NaiveCounter {
    state: Mutex<State>,
    cv: Condvar,
    stats: Stats,
}

impl Default for NaiveCounter {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Buildable for NaiveCounter {
    fn from_config(cfg: &BuildConfig) -> Self {
        NaiveCounter {
            state: Mutex::new(State {
                value: cfg.initial(),
                poisoned: None,
            }),
            cv: Condvar::new(),
            stats: Stats::default(),
        }
    }
}

impl NaiveCounter {
    /// Starts building a counter; see [`CounterBuilder`].
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }
}

impl MonotonicCounter for NaiveCounter {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        let mut state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        state.value = state
            .value
            .checked_add(amount)
            .ok_or(CounterOverflowError {
                value: state.value,
                amount,
            })?;
        self.stats.record_increment();
        self.stats.record_notify();
        drop(state);
        // Broadcast unconditionally: with one queue there is no way to know
        // which (if any) waiters are satisfied without waking them all.
        self.cv.notify_all();
        Ok(())
    }

    fn advance_to(&self, target: Value) {
        let mut state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        if target <= state.value {
            return;
        }
        state.value = target;
        self.stats.record_increment();
        self.stats.record_notify();
        drop(state);
        self.cv.notify_all();
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        let mut state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        if state.value >= level {
            self.stats.record_check_immediate();
            return Ok(());
        }
        self.stats.record_check_suspended();
        while state.value < level {
            if let Some(info) = &state.poisoned {
                let info = info.clone();
                self.stats.record_waiter_resumed();
                return Err(CheckError::Poisoned(info));
            }
            state = self
                .cv
                .wait(state)
                .expect("counter lock poisoned while waiting");
        }
        self.stats.record_waiter_resumed();
        Ok(())
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        let state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        if state.value >= level {
            self.stats.record_check_immediate();
            return Ok(());
        }
        self.stats.record_check_suspended();
        let (state, _) = self
            .cv
            .wait_timeout_while(state, timeout, |s| s.value < level && s.poisoned.is_none())
            .expect("counter lock poisoned while waiting");
        self.stats.record_waiter_resumed();
        if state.value >= level {
            Ok(())
        } else if let Some(info) = &state.poisoned {
            Err(CheckError::Poisoned(info.clone()))
        } else {
            Err(CheckError::Timeout(CheckTimeoutError { level }))
        }
    }

    fn poison(&self, info: FailureInfo) {
        let mut state = self.state.lock().expect("counter lock poisoned");
        if state.poisoned.is_some() {
            return;
        }
        state.poisoned = Some(info);
        self.stats.record_notify();
        drop(state);
        self.cv.notify_all();
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.state
            .lock()
            .expect("counter lock poisoned")
            .poisoned
            .clone()
    }
}

impl Resettable for NaiveCounter {
    fn reset(&mut self) {
        let state = self.state.get_mut().expect("counter lock poisoned");
        state.value = 0;
        state.poisoned = None;
    }
}

impl CounterDiagnostics for NaiveCounter {
    fn debug_value(&self) -> Value {
        self.state.lock().expect("counter lock poisoned").value
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn impl_name(&self) -> &'static str {
        "naive-broadcast"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn wait_and_wake() {
        let c = Arc::new(NaiveCounter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(4));
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        c.increment(2);
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished());
        c.increment(2);
        h.join().unwrap();
    }

    #[test]
    fn every_increment_broadcasts() {
        let c = NaiveCounter::default();
        c.increment(1);
        c.increment(1);
        c.increment(1);
        assert_eq!(c.stats().notifies, 3);
    }

    #[test]
    fn timeout_expires() {
        let c = NaiveCounter::default();
        assert!(c.check_timeout(1, Duration::from_millis(20)).is_err());
    }

    #[test]
    fn overflow_is_fallible() {
        let c = NaiveCounter::default();
        c.increment(u64::MAX);
        let before = c.stats().notifies;
        assert!(c.try_increment(1).is_err());
        assert_eq!(c.debug_value(), u64::MAX);
        assert_eq!(c.stats().notifies, before, "failed update must not signal");
    }

    #[test]
    fn poison_wakes_the_shared_queue() {
        let c = Arc::new(NaiveCounter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait(9));
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        c.poison(FailureInfo::new("naive failure"));
        assert!(matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))));
        // Satisfied levels still succeed after poisoning.
        c.increment(9);
        assert!(c.wait(9).is_ok());
        assert!(c.wait(10).is_err());
    }

    #[test]
    fn many_waiters_all_resume() {
        let c = Arc::new(NaiveCounter::default());
        let mut handles = Vec::new();
        for level in 1..=16u64 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || c.check(level)));
        }
        while c.stats().live_waiters < 16 {
            thread::yield_now();
        }
        c.increment(16);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats().live_waiters, 0);
    }
}
