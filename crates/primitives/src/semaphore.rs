//! A counting semaphore (Dijkstra's P/V), built on `Mutex` + `Condvar`.
//!
//! The paper's Section 5.3 notes that the multiple-writers multiple-readers
//! bounded buffer "is elegantly solved using semaphores" while counters are
//! not suited to it — and conversely. This type exists so the workspace can
//! demonstrate both sides of that comparison.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A counting semaphore with [`acquire`](Semaphore::acquire) (P) and
/// [`release`](Semaphore::release) (V) operations.
///
/// # Example
///
/// ```
/// use mc_primitives::Semaphore;
/// let s = Semaphore::new(2);
/// s.acquire();
/// s.acquire();
/// assert!(!s.try_acquire()); // no permits left
/// s.release(1);
/// s.acquire();
/// ```
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    /// Acquires one permit, suspending until one is available.
    pub fn acquire(&self) {
        let mut permits = self.permits.lock().expect("semaphore lock poisoned");
        while *permits == 0 {
            permits = self.cv.wait(permits).expect("semaphore lock poisoned");
        }
        *permits -= 1;
    }

    /// Acquires one permit without suspending; returns `false` if none was
    /// available.
    pub fn try_acquire(&self) -> bool {
        let mut permits = self.permits.lock().expect("semaphore lock poisoned");
        if *permits == 0 {
            return false;
        }
        *permits -= 1;
        true
    }

    /// Like [`acquire`](Semaphore::acquire) but gives up after `timeout`;
    /// returns `true` on success.
    pub fn acquire_timeout(&self, timeout: Duration) -> bool {
        let permits = self.permits.lock().expect("semaphore lock poisoned");
        let (mut permits, wait) = self
            .cv
            .wait_timeout_while(permits, timeout, |permits| *permits == 0)
            .expect("semaphore lock poisoned");
        if wait.timed_out() {
            return false;
        }
        *permits -= 1;
        true
    }

    /// Returns `n` permits, waking up to `n` suspended acquirers.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut permits = self.permits.lock().expect("semaphore lock poisoned");
        *permits = permits.checked_add(n).expect("semaphore permit overflow");
        drop(permits);
        if n == 1 {
            self.cv.notify_one();
        } else {
            self.cv.notify_all();
        }
    }

    /// Current number of available permits (diagnostics/tests only).
    pub fn available(&self) -> usize {
        *self.permits.lock().expect("semaphore lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn permits_are_consumed_and_restored() {
        let s = Semaphore::new(3);
        s.acquire();
        s.acquire();
        assert_eq!(s.available(), 1);
        s.release(2);
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn try_acquire_does_not_block() {
        let s = Semaphore::new(1);
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
    }

    #[test]
    fn acquire_timeout_without_a_deadline_takes_a_free_permit() {
        let s = Semaphore::new(1);
        assert!(s.acquire_timeout(Duration::MAX), "no deadline, no panic");
    }

    #[test]
    fn zero_release_is_noop() {
        let s = Semaphore::new(0);
        s.release(0);
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn acquire_blocks_until_release() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || s2.acquire());
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished());
        s.release(1);
        h.join().unwrap();
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn acquire_timeout_expires() {
        let s = Semaphore::new(0);
        assert!(!s.acquire_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn release_many_wakes_many() {
        let s = Arc::new(Semaphore::new(0));
        let mut handles = Vec::new();
        for _ in 0..5 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || s.acquire()));
        }
        thread::sleep(Duration::from_millis(30));
        s.release(5);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn bounded_buffer_discipline() {
        // The classic use: producers acquire `empty`, consumers acquire
        // `full`. 2 producers, 2 consumers, 100 items each.
        let empty = Arc::new(Semaphore::new(4));
        let full = Arc::new(Semaphore::new(0));
        let buf = Arc::new(Mutex::new(Vec::new()));
        let produced = 200;
        thread::scope(|s| {
            for p in 0..2 {
                let (empty, full, buf) = (Arc::clone(&empty), Arc::clone(&full), Arc::clone(&buf));
                s.spawn(move || {
                    for i in 0..100 {
                        empty.acquire();
                        buf.lock().unwrap().push(p * 1000 + i);
                        full.release(1);
                    }
                });
            }
            for _ in 0..2 {
                let (empty, full, buf) = (Arc::clone(&empty), Arc::clone(&full), Arc::clone(&buf));
                s.spawn(move || {
                    for _ in 0..100 {
                        full.acquire();
                        buf.lock().unwrap().pop().unwrap();
                        empty.release(1);
                    }
                });
            }
        });
        assert!(buf.lock().unwrap().is_empty());
        assert_eq!(empty.available(), 4);
        assert_eq!(full.available(), 0);
        let _ = produced;
    }
}
