//! A write-once "sync variable" (single-assignment variable).
//!
//! The paper's Section 8 traces counters' lineage to the single-assignment
//! variables of dataflow and concurrent-logic languages (Val, Sisal, PCN,
//! CC++, Strand). A single-assignment variable couples *one* synchronization
//! event with *one* datum; a counter separates synchronization from data and
//! supports many levels — this type exists to make that comparison concrete.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A variable that can be assigned exactly once; readers suspend until it is.
///
/// # Example
///
/// ```
/// use mc_primitives::SingleAssignment;
/// let v = SingleAssignment::new();
/// v.set(42).unwrap();
/// assert_eq!(v.get(), 42);
/// assert!(v.set(7).is_err()); // second assignment rejected
/// ```
pub struct SingleAssignment<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Default for SingleAssignment<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SingleAssignment<T> {
    /// Creates an unassigned variable.
    pub fn new() -> Self {
        SingleAssignment {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Assigns the value, waking all suspended readers. Returns the value
    /// back in `Err` if the variable was already assigned.
    pub fn set(&self, value: T) -> Result<(), T> {
        let mut slot = self.slot.lock().expect("single-assignment lock poisoned");
        if slot.is_some() {
            return Err(value);
        }
        *slot = Some(value);
        self.cv.notify_all();
        Ok(())
    }

    /// Suspends until the variable is assigned, then applies `f` to the value.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let mut slot = self.slot.lock().expect("single-assignment lock poisoned");
        while slot.is_none() {
            slot = self.cv.wait(slot).expect("single-assignment lock poisoned");
        }
        f(slot.as_ref().expect("slot checked non-empty"))
    }

    /// Whether the variable has been assigned (diagnostics/tests only).
    pub fn is_set(&self) -> bool {
        self.slot
            .lock()
            .expect("single-assignment lock poisoned")
            .is_some()
    }

    /// Like [`with`](SingleAssignment::with) but gives up after `timeout`.
    pub fn with_timeout<R>(&self, timeout: Duration, f: impl FnOnce(&T) -> R) -> Option<R> {
        let slot = self.slot.lock().expect("single-assignment lock poisoned");
        let (slot, _) = self
            .cv
            .wait_timeout_while(slot, timeout, |slot| slot.is_none())
            .expect("single-assignment lock poisoned");
        slot.as_ref().map(f)
    }
}

impl<T: Clone> SingleAssignment<T> {
    /// Suspends until the variable is assigned and returns a clone of it.
    pub fn get(&self) -> T {
        self.with(T::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn set_then_get() {
        let v = SingleAssignment::new();
        v.set("hello").unwrap();
        assert_eq!(v.get(), "hello");
        assert!(v.is_set());
    }

    #[test]
    fn double_set_returns_value() {
        let v = SingleAssignment::new();
        v.set(1).unwrap();
        assert_eq!(v.set(2), Err(2));
        assert_eq!(v.get(), 1);
    }

    #[test]
    fn get_blocks_until_set() {
        let v = Arc::new(SingleAssignment::new());
        let v2 = Arc::clone(&v);
        let h = thread::spawn(move || v2.get());
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished());
        v.set(99).unwrap();
        assert_eq!(h.join().unwrap(), 99);
    }

    #[test]
    fn with_reads_by_reference() {
        let v: SingleAssignment<Vec<u32>> = SingleAssignment::new();
        v.set(vec![1, 2, 3]).unwrap();
        let sum = v.with(|xs| xs.iter().sum::<u32>());
        assert_eq!(sum, 6);
        assert_eq!(v.with_timeout(Duration::MAX, Vec::len), Some(3));
    }

    #[test]
    fn with_timeout_expires_when_unset() {
        let v: SingleAssignment<u32> = SingleAssignment::new();
        assert_eq!(v.with_timeout(Duration::from_millis(20), |x| *x), None);
    }

    #[test]
    fn many_readers_one_writer() {
        let v = Arc::new(SingleAssignment::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let v = Arc::clone(&v);
            handles.push(thread::spawn(move || v.get()));
        }
        thread::sleep(Duration::from_millis(20));
        v.set(7u32).unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
    }
}
