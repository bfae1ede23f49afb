//! Mutual exclusion with sequential ordering (the paper's Section 5.2).
//!
//! Replacing a lock/unlock pair with a counter check/increment pair buys
//! *determinism*: the critical sections still exclude each other, but they
//! additionally run in ticket order, so a non-associative accumulation
//! (floating-point sums, list appends) produces the same result on every
//! execution — and the same result as the sequential program.

use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter, Value};

/// A deterministic replacement for a lock: critical sections execute one at a
/// time **and in ticket order** (0, 1, 2, ...).
///
/// # Example
///
/// ```
/// use mc_patterns::Sequencer;
/// use std::sync::{Arc, Mutex};
///
/// let seq = Arc::new(Sequencer::new());
/// let log = Arc::new(Mutex::new(Vec::new()));
/// std::thread::scope(|s| {
///     for ticket in (0..4u64).rev() {
///         let (seq, log) = (Arc::clone(&seq), Arc::clone(&log));
///         s.spawn(move || {
///             seq.execute(ticket, || log.lock().unwrap().push(ticket));
///         });
///     }
/// });
/// assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3]); // every run
/// ```
pub struct Sequencer<C: MonotonicCounter = Counter> {
    counter: C,
}

impl Sequencer<Counter> {
    /// Creates a sequencer whose next admitted ticket is 0.
    ///
    /// Its counter is built with
    /// [`spin_before_suspend`](mc_counter::CounterBuilder::spin_before_suspend):
    /// the thread holding the next ticket polls briefly before it suspends,
    /// so a hand-off between threads on different CPUs usually costs one
    /// atomic load on each side instead of a futex sleep and wake. Build
    /// the sequencer before pinning its threads to single CPUs: the
    /// decision to spin is made here, on the calling thread.
    pub fn new() -> Self {
        Sequencer {
            counter: Counter::builder().spin_before_suspend(true).build(),
        }
    }
}

impl Default for Sequencer<Counter> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: MonotonicCounter + Default> Sequencer<C> {
    /// Like [`new`](Sequencer::new) with an explicit counter implementation,
    /// built by `C::default()`. That default does not spin before
    /// suspending, so waiting tickets always sleep.
    pub fn with_counter() -> Self {
        Sequencer {
            counter: C::default(),
        }
    }
}

impl<C: MonotonicCounter> Sequencer<C> {
    /// Runs `f` as the critical section for `ticket`: suspends until every
    /// lower ticket's section has completed, runs `f`, then admits
    /// `ticket + 1`.
    ///
    /// If `f` panics, the next ticket is still admitted (the guard releases
    /// on unwind), so sibling threads observe a missing contribution rather
    /// than a hang; the panic then propagates.
    pub fn execute<R>(&self, ticket: Value, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(ticket);
        f()
    }

    /// Suspends until it is `ticket`'s turn and returns a guard; dropping the
    /// guard admits the next ticket. Prefer [`execute`](Sequencer::execute)
    /// unless the section cannot be expressed as a closure.
    pub fn enter(&self, ticket: Value) -> SequencerGuard<'_, C> {
        self.counter.check(ticket);
        SequencerGuard {
            counter: &self.counter,
        }
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> Sequencer<C> {
    /// The next ticket to be admitted (diagnostics/tests only).
    pub fn current(&self) -> Value {
        self.counter.debug_value()
    }
}

/// Guard for an open ordered critical section; dropping it admits the next
/// ticket.
pub struct SequencerGuard<'a, C: MonotonicCounter> {
    counter: &'a C,
}

impl<C: MonotonicCounter> Drop for SequencerGuard<'_, C> {
    fn drop(&mut self) {
        self.counter.increment(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::{Arc, Mutex};
    use std::thread;

    #[test]
    fn tickets_admitted_in_order_every_run() {
        for _ in 0..10 {
            let seq = Arc::new(Sequencer::new());
            let log = Arc::new(Mutex::new(Vec::new()));
            thread::scope(|s| {
                for ticket in (0..8u64).rev() {
                    let (seq, log) = (Arc::clone(&seq), Arc::clone(&log));
                    s.spawn(move || {
                        seq.execute(ticket, || log.lock().unwrap().push(ticket));
                    });
                }
            });
            assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn execute_returns_section_value() {
        let seq = Sequencer::new();
        assert_eq!(seq.execute(0, || 5), 5);
        assert_eq!(seq.current(), 1);
    }

    #[test]
    fn guard_admits_next_on_drop() {
        let seq = Sequencer::new();
        {
            let _g = seq.enter(0);
            assert_eq!(seq.current(), 0);
        }
        assert_eq!(seq.current(), 1);
    }

    #[test]
    fn panic_in_section_still_admits_next() {
        let seq = Arc::new(Sequencer::new());
        let seq2 = Arc::clone(&seq);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            seq2.execute(0, || panic!("section failed"));
        }));
        assert!(result.is_err());
        // Ticket 1 is admitted; otherwise this would deadlock.
        seq.execute(1, || ());
    }

    #[test]
    fn non_associative_accumulation_is_deterministic() {
        // result = ((0 - 1) - 2) - 3 ... : subtraction is not associative,
        // so any ordering difference changes the value.
        let expected: i64 = (1..=16).fold(0i64, |acc, x| acc - x);
        for _ in 0..10 {
            let seq = Arc::new(Sequencer::new());
            let acc = Arc::new(Mutex::new(0i64));
            thread::scope(|s| {
                for ticket in 0..16u64 {
                    let (seq, acc) = (Arc::clone(&seq), Arc::clone(&acc));
                    s.spawn(move || {
                        seq.execute(ticket, || {
                            let mut acc = acc.lock().unwrap();
                            *acc -= ticket as i64 + 1;
                        });
                    });
                }
            });
            assert_eq!(*acc.lock().unwrap(), expected);
        }
    }

    /// Two threads alternate tickets the way a hand-off does: every ticket
    /// waits on the other thread's previous one.
    #[test]
    fn two_threads_alternate_tickets_in_strict_order() {
        const TICKETS: u64 = 100_000;
        let seq = Sequencer::new();
        // The sections run one at a time, so each reads what the previous
        // one wrote; the atomics only make that visible to Rust.
        let next = AtomicU64::new(0);
        let checksum = AtomicU64::new(0);
        thread::scope(|s| {
            for parity in 0..2 {
                let (seq, next, checksum) = (&seq, &next, &checksum);
                s.spawn(move || {
                    for ticket in (parity..TICKETS).step_by(2) {
                        seq.execute(ticket, || {
                            assert_eq!(next.swap(ticket + 1, Relaxed), ticket);
                            let h = checksum.load(Relaxed);
                            checksum.store(h.wrapping_mul(31).wrapping_add(ticket), Relaxed);
                        });
                    }
                });
            }
        });
        let expected = (0..TICKETS).fold(0u64, |h, t| h.wrapping_mul(31).wrapping_add(t));
        assert_eq!(checksum.load(Relaxed), expected);
        assert_eq!(seq.current(), TICKETS);
        let stats = seq.counter.stats();
        assert_eq!(stats.checks, TICKETS, "{stats}");
        assert_eq!(stats.live_nodes, 0, "{stats}");
    }

    #[test]
    fn works_with_alternative_counter_impls() {
        let seq: Sequencer<mc_counter::BTreeCounter> = Sequencer::with_counter();
        seq.execute(0, || ());
        seq.execute(1, || ());
        assert_eq!(seq.current(), 2);
    }
}
