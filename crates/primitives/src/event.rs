//! A set-once event: the `Condition` type of the paper's Section 4.4.
//!
//! `ShortestPaths3` uses an array `Condition kDone[N]` where `kDone[k].Set()`
//! announces that row `k` is ready and `kDone[k].Check()` waits for it. A
//! counter replaces the whole array (Section 4.5); this type exists as the
//! faithful baseline.

use std::sync::{Condvar, Mutex};

/// A one-way boolean flag with a suspension queue.
///
/// Once [`set`](Event::set), every current and future
/// [`check`](Event::check) returns immediately. Like the paper's
/// `Condition`, setting is idempotent.
///
/// # Example
///
/// ```
/// use mc_primitives::Event;
/// let e = Event::new();
/// e.set();
/// e.check(); // does not block
/// ```
pub struct Event {
    set: Mutex<bool>,
    cv: Condvar,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl Event {
    /// Creates an event in the unset state.
    pub fn new() -> Self {
        Event {
            set: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Sets the event, waking every waiting thread. Idempotent.
    pub fn set(&self) {
        let mut set = self.set.lock().expect("event lock poisoned");
        if !*set {
            *set = true;
            self.cv.notify_all();
        }
    }

    /// Suspends the calling thread until the event is set.
    pub fn check(&self) {
        let mut set = self.set.lock().expect("event lock poisoned");
        while !*set {
            set = self.cv.wait(set).expect("event lock poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn set_is_idempotent_and_latches() {
        let e = Event::new();
        e.set();
        e.set();
        e.check(); // must not block
        e.check();
    }

    #[test]
    fn check_blocks_until_set() {
        let e = Arc::new(Event::new());
        let e2 = Arc::clone(&e);
        let h = thread::spawn(move || e2.check());
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished());
        e.set();
        h.join().unwrap();
    }

    #[test]
    fn set_wakes_all_waiters() {
        let e = Arc::new(Event::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let e = Arc::clone(&e);
            handles.push(thread::spawn(move || e.check()));
        }
        thread::sleep(Duration::from_millis(30));
        e.set();
        for h in handles {
            h.join().unwrap();
        }
    }
}
