//! A single-use count-down latch.
//!
//! A latch is the closest *traditional* relative of a monotonic counter: it
//! counts down to zero once and releases everyone. The comparison is
//! instructive — a latch supports exactly **one** level (zero) and one
//! suspension queue, where a counter supports any number of levels
//! simultaneously. `java.util.concurrent.CountDownLatch` is the well-known
//! embodiment.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A one-shot latch initialized with a count; [`wait`](Latch::wait) suspends
/// until the count reaches zero.
///
/// # Example
///
/// ```
/// use mc_primitives::Latch;
/// let l = Latch::new(2);
/// l.count_down();
/// l.count_down();
/// l.wait(); // returns immediately: count is zero
/// ```
pub struct Latch {
    count: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    /// Creates a latch that opens after `count` calls to
    /// [`count_down`](Latch::count_down). A zero count starts open.
    pub fn new(count: usize) -> Self {
        Latch {
            count: Mutex::new(count),
            cv: Condvar::new(),
        }
    }

    /// Decrements the count, waking all waiters when it reaches zero.
    /// Counting down an already-open latch is a no-op.
    pub fn count_down(&self) {
        let mut count = self.count.lock().expect("latch lock poisoned");
        match *count {
            0 => {}
            1 => {
                *count = 0;
                self.cv.notify_all();
            }
            _ => *count -= 1,
        }
    }

    /// Suspends until the count reaches zero.
    pub fn wait(&self) {
        let mut count = self.count.lock().expect("latch lock poisoned");
        while *count > 0 {
            count = self.cv.wait(count).expect("latch lock poisoned");
        }
    }

    /// Like [`wait`](Latch::wait) but gives up after `timeout`; returns
    /// `true` if the latch opened in time.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let count = self.count.lock().expect("latch lock poisoned");
        let (count, _) = self
            .cv
            .wait_timeout_while(count, timeout, |count| *count > 0)
            .expect("latch lock poisoned");
        *count == 0
    }

    /// Remaining count (diagnostics/tests only).
    pub fn remaining(&self) -> usize {
        *self.count.lock().expect("latch lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn zero_latch_starts_open() {
        let l = Latch::new(0);
        l.wait();
        l.count_down(); // no-op, no underflow
        assert_eq!(l.remaining(), 0);
    }

    #[test]
    fn opens_exactly_at_zero() {
        let l = Arc::new(Latch::new(3));
        let l2 = Arc::clone(&l);
        let h = thread::spawn(move || l2.wait());
        l.count_down();
        l.count_down();
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "latch opened early");
        l.count_down();
        h.join().unwrap();
    }

    #[test]
    fn wait_timeout_expires_on_closed_latch() {
        let l = Latch::new(1);
        assert!(!l.wait_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn wait_timeout_succeeds_on_open_latch() {
        let l = Latch::new(0);
        assert!(l.wait_timeout(Duration::from_millis(20)));
        assert!(l.wait_timeout(Duration::MAX), "no deadline, no panic");
    }

    #[test]
    fn many_waiters_released_together() {
        let l = Arc::new(Latch::new(1));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let l = Arc::clone(&l);
            handles.push(thread::spawn(move || l.wait()));
        }
        thread::sleep(Duration::from_millis(30));
        l.count_down();
        for h in handles {
            h.join().unwrap();
        }
    }
}
