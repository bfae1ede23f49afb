//! A cyclic N-way barrier with a `pass()` operation.
//!
//! This is the `Barrier b(numThreads); ... b.Pass();` object of the paper's
//! Sections 4.3 and 5.1: all `n` participants must arrive before any may
//! continue, and the barrier is immediately reusable for the next round.

use std::sync::{Condvar, Mutex};

struct Inner {
    /// Threads that have arrived in the current round.
    arrived: usize,
    /// Round number; incremented when a round completes. Waiting on the
    /// generation (instead of on the count) makes the barrier immune to the
    /// classic reuse race where a fast thread re-enters the next round before
    /// slow threads have observed the current one completing.
    generation: u64,
}

/// A reusable N-way barrier.
///
/// # Example
///
/// ```
/// use mc_primitives::Barrier;
/// use std::sync::Arc;
///
/// let n = 4;
/// let b = Arc::new(Barrier::new(n));
/// std::thread::scope(|s| {
///     for _ in 0..n {
///         let b = Arc::clone(&b);
///         s.spawn(move || {
///             // phase 1 work ...
///             b.pass();
///             // phase 2 work: no thread gets here until all finished phase 1
///         });
///     }
/// });
/// ```
pub struct Barrier {
    n: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Barrier {
    /// Creates a barrier for `n` participating threads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier must have at least one participant");
        Barrier {
            n,
            inner: Mutex::new(Inner {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `n` participants have called `pass()` for the current
    /// round, then releases them all. Returns `true` for exactly one thread
    /// per round (the last arriver), mirroring `std::sync::Barrier`'s leader
    /// convention.
    pub fn pass(&self) -> bool {
        let mut inner = self.inner.lock().expect("barrier lock poisoned");
        inner.arrived += 1;
        if inner.arrived == self.n {
            inner.arrived = 0;
            inner.generation = inner.generation.wrapping_add(1);
            self.cv.notify_all();
            return true;
        }
        let my_generation = inner.generation;
        while inner.generation == my_generation {
            inner = self.cv.wait(inner).expect("barrier lock poisoned");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        Barrier::new(0);
    }

    #[test]
    fn single_participant_never_blocks() {
        let b = Barrier::new(1);
        for _ in 0..10 {
            assert!(b.pass(), "sole participant is always the leader");
        }
    }

    #[test]
    fn no_thread_passes_until_all_arrive() {
        let n = 4;
        let b = Arc::new(Barrier::new(n));
        let before = Arc::new(AtomicUsize::new(0));
        let after = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n - 1 {
            let (b, before, after) = (Arc::clone(&b), Arc::clone(&before), Arc::clone(&after));
            handles.push(thread::spawn(move || {
                before.fetch_add(1, Ordering::SeqCst);
                b.pass();
                after.fetch_add(1, Ordering::SeqCst);
            }));
        }
        while before.load(Ordering::SeqCst) < n - 1 {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(30));
        assert_eq!(after.load(Ordering::SeqCst), 0, "a thread passed early");
        b.pass();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(after.load(Ordering::SeqCst), n - 1);
    }

    #[test]
    fn exactly_one_leader_per_round() {
        let n = 6;
        let rounds = 25;
        let b = Arc::new(Barrier::new(n));
        let leaders = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..n {
                let (b, leaders) = (Arc::clone(&b), Arc::clone(&leaders));
                s.spawn(move || {
                    for _ in 0..rounds {
                        if b.pass() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), rounds);
    }

    #[test]
    fn reuse_across_many_rounds_keeps_phases_aligned() {
        // Lock-step phase counter: in each round every thread increments a
        // shared phase tally; after the barrier the tally must be exactly
        // n * round for every thread, or the barrier leaked someone early.
        let n = 4;
        let rounds = 100;
        let b = Arc::new(Barrier::new(n));
        let tally = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..n {
                let (b, tally) = (Arc::clone(&b), Arc::clone(&tally));
                s.spawn(move || {
                    for round in 1..=rounds {
                        tally.fetch_add(1, Ordering::SeqCst);
                        b.pass();
                        let seen = tally.load(Ordering::SeqCst);
                        assert!(
                            seen >= n * round,
                            "round {round}: saw tally {seen} < {}",
                            n * round
                        );
                        b.pass(); // second barrier so nobody races into round+1
                    }
                });
            }
        });
        assert_eq!(tally.load(Ordering::SeqCst), n * rounds);
    }
}
