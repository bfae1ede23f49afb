//! A Hoare-style monitor (paper Section 8's related work).
//!
//! The paper classifies monitors among mechanisms with a *statically bounded*
//! number of suspension queues; this minimal monitor has exactly one. It
//! packages the state + mutex + condition-variable idiom behind predicates:
//! `when(pred, f)` suspends until `pred` holds for the protected state, runs
//! `f` atomically, and signals other waiters.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A predicate-based monitor protecting a value of type `T`.
///
/// # Example
///
/// ```
/// use mc_primitives::Monitor;
/// use std::sync::Arc;
///
/// let m = Arc::new(Monitor::new(0u32));
/// let m2 = Arc::clone(&m);
/// let t = std::thread::spawn(move || m2.when(|v| *v >= 2, |v| *v * 10));
/// m.update(|v| *v += 1);
/// m.update(|v| *v += 1);
/// assert_eq!(t.join().unwrap(), 20);
/// ```
pub struct Monitor<T> {
    state: Mutex<T>,
    cv: Condvar,
}

impl<T> Monitor<T> {
    /// Creates a monitor protecting `initial`.
    pub fn new(initial: T) -> Self {
        Monitor {
            state: Mutex::new(initial),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock().expect("monitor lock poisoned")
    }

    /// Runs `f` on the state under the monitor lock and wakes all waiters
    /// (their predicates may now hold).
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut state = self.lock();
        let r = f(&mut state);
        drop(state);
        self.cv.notify_all();
        r
    }

    /// Reads the state under the lock without signalling.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.lock())
    }

    /// Suspends until `pred(&state)` holds, then runs `f` atomically (still
    /// under the lock) and wakes all waiters.
    pub fn when<R>(&self, pred: impl Fn(&T) -> bool, f: impl FnOnce(&mut T) -> R) -> R {
        let mut state = self.lock();
        while !pred(&state) {
            state = self.cv.wait(state).expect("monitor lock poisoned");
        }
        let r = f(&mut state);
        drop(state);
        self.cv.notify_all();
        r
    }

    /// Like [`when`](Monitor::when) with a timeout; `None` on expiry.
    pub fn when_timeout<R>(
        &self,
        timeout: Duration,
        pred: impl Fn(&T) -> bool,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let (mut state, wait) = self
            .cv
            .wait_timeout_while(self.lock(), timeout, |state| !pred(state))
            .expect("monitor lock poisoned");
        if wait.timed_out() {
            return None;
        }
        let r = f(&mut state);
        drop(state);
        self.cv.notify_all();
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn update_and_read() {
        let m = Monitor::new(vec![1, 2]);
        m.update(|v| v.push(3));
        assert_eq!(m.read(|v| v.len()), 3);
    }

    #[test]
    fn when_waits_for_predicate() {
        let m = Arc::new(Monitor::new(0u32));
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || m2.when(|v| *v == 3, |v| *v + 100));
        for _ in 0..3 {
            thread::sleep(Duration::from_millis(5));
            m.update(|v| *v += 1);
        }
        assert_eq!(t.join().unwrap(), 103);
    }

    #[test]
    fn when_timeout_expires() {
        let m = Monitor::new(false);
        assert_eq!(
            m.when_timeout(Duration::from_millis(20), |v| *v, |_| 1),
            None
        );
    }

    #[test]
    fn when_timeout_succeeds_when_satisfied() {
        let m = Monitor::new(true);
        assert_eq!(
            m.when_timeout(Duration::from_millis(20), |v| *v, |_| 1),
            Some(1)
        );
        assert_eq!(m.when_timeout(Duration::MAX, |v| *v, |_| 2), Some(2));
    }

    #[test]
    fn bounded_buffer_with_monitor() {
        // The textbook monitor example.
        let m = Arc::new(Monitor::new(Vec::<u32>::new()));
        let cap = 3;
        let total = 100;
        thread::scope(|s| {
            let prod = Arc::clone(&m);
            s.spawn(move || {
                for i in 0..total {
                    prod.when(|buf| buf.len() < cap, |buf| buf.push(i));
                }
            });
            let cons = Arc::clone(&m);
            s.spawn(move || {
                for expected in 0..total {
                    let got = cons.when(|buf| !buf.is_empty(), |buf| buf.remove(0));
                    assert_eq!(got, expected);
                }
            });
        });
        assert_eq!(m.read(Vec::len), 0);
    }
}
