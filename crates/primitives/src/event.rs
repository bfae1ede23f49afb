//! A manual-reset event: the `Condition` type of the paper's Section 4.4.
//!
//! `ShortestPaths3` uses an array `Condition kDone[N]` where `kDone[k].Set()`
//! announces that row `k` is ready and `kDone[k].Check()` waits for it. A
//! counter replaces the whole array (Section 4.5); this type exists as the
//! faithful baseline.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A one-way, manual-reset boolean flag with a suspension queue.
///
/// Once [`set`](Event::set), every current and future
/// [`check`](Event::check) returns immediately until [`reset`](Event::reset)
/// is called. Like the paper's `Condition`, setting is idempotent.
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

    /// Clears the event.
    ///
    /// Unlike a counter, an event is **not** monotonic: a `reset` racing with
    /// `check` reintroduces exactly the kind of timing-dependent behaviour
    /// the paper's Section 6 warns about. Takes `&mut self` so that safe code
    /// cannot race it against concurrent `set`/`check`.
    pub fn reset(&mut self) {
        *self.set.get_mut().expect("event lock poisoned") = false;
    }

    /// Suspends the calling thread until the event is set.
    pub fn check(&self) {
        let mut set = self.set.lock().expect("event lock poisoned");
        while !*set {
            set = self.cv.wait(set).expect("event lock poisoned");
        }
    }

    /// Like [`check`](Event::check) but gives up after `timeout`; returns
    /// `true` if the event was set in time.
    pub fn check_timeout(&self, timeout: Duration) -> bool {
        let set = self.set.lock().expect("event lock poisoned");
        let (set, _) = self
            .cv
            .wait_timeout_while(set, timeout, |set| !*set)
            .expect("event lock poisoned");
        *set
    }

    /// Whether the event is currently set (diagnostics/tests only — racing a
    /// probe against `set` is precisely the nondeterminism counters avoid).
    pub fn is_set(&self) -> bool {
        *self.set.lock().expect("event lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn starts_unset() {
        assert!(!Event::new().is_set());
    }

    #[test]
    fn set_is_idempotent_and_latches() {
        let e = Event::new();
        e.set();
        e.set();
        assert!(e.is_set());
        e.check(); // must not block
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

    #[test]
    fn check_timeout_expires_when_unset() {
        let e = Event::new();
        assert!(!e.check_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn check_timeout_succeeds_when_set() {
        let e = Event::new();
        e.set();
        assert!(e.check_timeout(Duration::from_millis(20)));
        assert!(e.check_timeout(Duration::MAX), "no deadline, no panic");
    }

    #[test]
    fn reset_clears() {
        let mut e = Event::new();
        e.set();
        e.reset();
        assert!(!e.is_set());
        assert!(!e.check_timeout(Duration::from_millis(10)));
    }
}
