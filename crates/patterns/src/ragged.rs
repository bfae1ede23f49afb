//! Ragged barriers (the paper's Section 5.1).
//!
//! A traditional barrier makes every thread wait for **all** threads every
//! phase. In most stencil-style computations a thread's phase-`t` work only
//! depends on a few neighbours' phase-`t-1` work; a *ragged* barrier lets it
//! proceed as soon as those specific dependencies are met. The paper
//! implements this with an array of counters, one per thread: the counter
//! value **is** the thread's published progress.

use mc_counter::{
    check_all, CheckError, Counter, CounterDiagnostics, CounterExt, FailureInfo, MonotonicCounter,
    Obligation, Value,
};

/// An array of per-participant progress counters.
///
/// Participant `i` calls [`arrive`](RaggedBarrier::arrive)`(i)` each time it
/// completes a step; any participant may
/// [`wait`](RaggedBarrier::wait)`(j, level)` for participant `j` to have
/// completed `level` steps. Because progress is monotonic there is no
/// phase-reuse hazard, and threads may run arbitrarily far ahead of each
/// other as long as their declared dependencies allow it.
///
/// # Example: 1-D neighbour synchronization
///
/// ```
/// use mc_patterns::RaggedBarrier;
/// use std::sync::Arc;
///
/// let n = 4;
/// let rb = Arc::new(RaggedBarrier::new(n));
/// std::thread::scope(|s| {
///     for i in 0..n {
///         let rb = Arc::clone(&rb);
///         s.spawn(move || {
///             for step in 1..=10u64 {
///                 // wait for the neighbours' previous step, not for everyone
///                 if i > 0 { rb.wait(i - 1, step - 1); }
///                 if i + 1 < n { rb.wait(i + 1, step - 1); }
///                 rb.arrive(i);
///             }
///         });
///     }
/// });
/// for i in 0..n { assert_eq!(rb.progress(i), 10); }
/// ```
pub struct RaggedBarrier<C: MonotonicCounter = Counter> {
    counters: Vec<C>,
}

impl RaggedBarrier<Counter> {
    /// Creates a ragged barrier for `participants` threads, all at progress
    /// zero.
    pub fn new(participants: usize) -> Self {
        Self::with_counter(participants)
    }
}

impl<C: MonotonicCounter + Default> RaggedBarrier<C> {
    /// Like [`new`](RaggedBarrier::new) with an explicit counter
    /// implementation (for the ablation experiments).
    pub fn with_counter(participants: usize) -> Self {
        RaggedBarrier {
            counters: (0..participants).map(|_| C::default()).collect(),
        }
    }
}

impl<C: MonotonicCounter> RaggedBarrier<C> {
    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.counters.len()
    }

    /// Publishes one step of progress for participant `i`.
    pub fn arrive(&self, i: usize) {
        self.counters[i].increment(1);
    }

    /// Publishes `steps` steps at once — e.g. the paper's boundary cells,
    /// which never change, publish their entire lifetime of progress up
    /// front (`c[0].Increment(2*numSteps)`).
    pub fn arrive_many(&self, i: usize, steps: Value) {
        self.counters[i].increment(steps);
    }

    /// Suspends until participant `i` has published at least `level` steps.
    pub fn wait(&self, i: usize, level: Value) {
        self.counters[i].check(level);
    }

    /// Suspends until every `(participant, level)` dependency is satisfied.
    /// Correct as a conjunction because progress is monotonic.
    pub fn wait_all(&self, deps: &[(usize, Value)]) {
        check_all(deps.iter().map(|&(i, level)| (&self.counters[i], level)));
    }

    /// Like [`wait`](Self::wait), but returns [`CheckError::Poisoned`]
    /// instead of panicking when participant `i` fails before reaching
    /// `level`.
    pub fn try_wait(&self, i: usize, level: Value) -> Result<(), CheckError> {
        self.counters[i].wait(level)
    }

    /// Takes on the obligation for participant `i` to publish `steps` more
    /// steps: the returned guard delivers the progress when dropped normally
    /// and poisons participant `i`'s counter when dropped during a panic
    /// unwind — neighbours waiting on the failed participant then fail with
    /// the cause instead of hanging.
    ///
    /// Typical use: a worker claims `obligation(i, steps_per_phase)` before
    /// entering a phase and lets the drop publish its arrival.
    pub fn obligation(&self, i: usize, steps: Value) -> Obligation<&C> {
        self.counters[i].obligation(steps)
    }

    /// Marks participant `i` as failed, releasing every thread waiting on
    /// its progress with the given cause.
    pub fn fail(&self, i: usize, info: FailureInfo) {
        self.counters[i].poison(info);
    }

    /// Marks every participant as failed — for tearing down a stencil whose
    /// continuation is known to be impossible.
    pub fn fail_all(&self, info: FailureInfo) {
        for counter in &self.counters {
            counter.poison(info.clone());
        }
    }

    /// The failure cause recorded for participant `i`, if any.
    pub fn failure(&self, i: usize) -> Option<FailureInfo> {
        self.counters[i].poison_info()
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> RaggedBarrier<C> {
    /// Participant `i`'s published progress (diagnostics/tests only).
    pub fn progress(&self, i: usize) -> Value {
        self.counters[i].debug_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn progress_starts_at_zero() {
        let rb = RaggedBarrier::new(3);
        for i in 0..3 {
            assert_eq!(rb.progress(i), 0);
        }
        assert_eq!(rb.participants(), 3);
    }

    #[test]
    fn wait_releases_exactly_at_level() {
        let rb = Arc::new(RaggedBarrier::new(2));
        let rb2 = Arc::clone(&rb);
        let h = thread::spawn(move || rb2.wait(0, 2));
        rb.arrive(0);
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "released below the waited level");
        rb.arrive(0);
        h.join().unwrap();
    }

    #[test]
    fn arrive_many_publishes_bulk_progress() {
        let rb = RaggedBarrier::new(2);
        rb.arrive_many(1, 100);
        rb.wait(1, 100); // immediate
        assert_eq!(rb.progress(1), 100);
    }

    #[test]
    fn threads_can_run_ahead_of_unrelated_threads() {
        // Thread 0 depends only on thread 1; thread 2 is stalled forever.
        // With a traditional barrier thread 0 could not advance at all.
        let rb = Arc::new(RaggedBarrier::new(3));
        rb.arrive_many(1, 50);
        let rb2 = Arc::clone(&rb);
        let h = thread::spawn(move || {
            for step in 1..=50u64 {
                rb2.wait(1, step);
                rb2.arrive(0);
            }
        });
        h.join().unwrap();
        assert_eq!(rb.progress(0), 50);
        assert_eq!(rb.progress(2), 0, "stalled thread was never needed");
    }

    #[test]
    fn wait_all_requires_every_dependency() {
        let rb = Arc::new(RaggedBarrier::new(3));
        let rb2 = Arc::clone(&rb);
        let h = thread::spawn(move || rb2.wait_all(&[(0, 1), (2, 1)]));
        rb.arrive(0);
        thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "released with a dependency unmet");
        rb.arrive(2);
        h.join().unwrap();
    }

    #[test]
    fn stencil_neighbor_discipline_runs_to_completion() {
        let n = 8;
        let steps = 200u64;
        let rb = Arc::new(RaggedBarrier::new(n));
        let max_lead = Arc::new(AtomicU64::new(0));
        thread::scope(|s| {
            for i in 0..n {
                let rb = Arc::clone(&rb);
                let max_lead = Arc::clone(&max_lead);
                s.spawn(move || {
                    for step in 1..=steps {
                        if i > 0 {
                            rb.wait(i - 1, step - 1);
                        }
                        if i + 1 < n {
                            rb.wait(i + 1, step - 1);
                        }
                        rb.arrive(i);
                        // Record how far ahead of the slowest neighbour we
                        // got (diagnostic of "raggedness").
                        max_lead.fetch_max(step, Ordering::Relaxed);
                    }
                });
            }
        });
        for i in 0..n {
            assert_eq!(rb.progress(i), steps);
        }
    }

    #[test]
    fn works_with_alternative_counter_impls() {
        let rb: RaggedBarrier<mc_counter::BTreeCounter> = RaggedBarrier::with_counter(2);
        rb.arrive(0);
        rb.wait(0, 1);
    }

    #[test]
    fn obligation_publishes_on_normal_drop() {
        let rb = RaggedBarrier::new(2);
        {
            let _ob = rb.obligation(0, 3);
            assert_eq!(rb.progress(0), 0, "nothing published while held");
        }
        assert_eq!(rb.progress(0), 3);
        rb.wait(0, 3); // immediate
    }

    #[test]
    fn failed_participant_releases_waiting_neighbours() {
        use mc_counter::CheckError;
        let rb = Arc::new(RaggedBarrier::new(2));
        let rb2 = Arc::clone(&rb);
        let neighbour = thread::spawn(move || rb2.try_wait(1, 5));
        let rb3 = Arc::clone(&rb);
        let failer = thread::spawn(move || {
            let _ob = rb3.obligation(1, 5);
            panic!("participant 1 crashed mid-phase");
        });
        assert!(failer.join().is_err());
        assert!(matches!(
            neighbour.join().unwrap(),
            Err(CheckError::Poisoned(_))
        ));
        assert!(rb.failure(1).is_some());
        assert!(rb.failure(0).is_none(), "other participants untouched");
    }

    #[test]
    fn fail_all_tears_down_every_waiter() {
        use mc_counter::{CheckError, FailureInfo};
        let rb = Arc::new(RaggedBarrier::new(3));
        let waiters: Vec<_> = (0..3)
            .map(|i| {
                let rb = Arc::clone(&rb);
                thread::spawn(move || rb.try_wait(i, 1))
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        rb.fail_all(FailureInfo::new("stencil aborted"));
        for w in waiters {
            assert!(matches!(w.join().unwrap(), Err(CheckError::Poisoned(_))));
        }
    }
}
