//! Execute a skeleton on real `mc-counter` counters under a
//! [`Supervisor`] — the bridge between the static verdict and the dynamic
//! stall diagnosis.
//!
//! Increments are delivered directly at their program points (no upfront
//! obligations), so when the run *quiesces* — every thread has either
//! finished or is suspended in a `wait` — the counters hold exactly the
//! values of the static greedy fixpoint: by monotonicity, a quiescent state
//! with no enabled operation *is* the maximal cut. At that point
//! [`Supervisor::diagnose`] must agree with the static verdict:
//! `NeverSatisfiable` for every counter blocking a statically-stuck thread,
//! and no report at all (all threads finished) for a statically
//! deadlock-free skeleton — no false `Slow`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_counter::{Counter, FailureInfo, MonotonicCounter, StallReport, Supervisor};

use crate::ir::{Op, Skeleton};

/// Result of running a skeleton to quiescence on real counters.
#[derive(Debug)]
pub struct ConcreteRun {
    /// True if every thread ran to completion.
    pub completed: bool,
    /// Threads that ended suspended in a `wait` (released by poisoning at
    /// teardown).
    pub blocked_threads: usize,
    /// The supervisor's diagnosis at quiescence.
    pub report: StallReport,
}

/// Run every thread of the skeleton on real [`Counter`]s, wait for
/// quiescence, diagnose, then poison-and-join.
///
/// Panics if the run fails to quiesce within `timeout` (a liveness bug in
/// the counters themselves, not a property of the skeleton).
pub fn run_concrete(sk: &Skeleton, timeout: Duration) -> ConcreteRun {
    let counters: Vec<Arc<Counter>> = (0..sk.num_counters())
        .map(|_| Arc::new(Counter::default()))
        .collect();
    let supervisor = Supervisor::new();
    for (i, c) in counters.iter().enumerate() {
        supervisor.register(sk.counter_name(crate::ir::CounterId(i)), c);
    }

    let finished = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for t in 0..sk.num_threads() {
        let ops = sk.ops(t).to_vec();
        let counters = counters.clone();
        let finished = Arc::clone(&finished);
        handles.push(std::thread::spawn(move || {
            for op in ops {
                match op {
                    Op::Inc { counter, amount } => counters[counter.0].increment(amount),
                    Op::Check { counter, level } => {
                        if counters[counter.0].wait(level).is_err() {
                            // Poisoned at teardown: this thread was blocked.
                            return false;
                        }
                    }
                    Op::Read { .. } | Op::Write { .. } => {}
                }
            }
            finished.fetch_add(1, Ordering::SeqCst);
            true
        }));
    }

    // Wait for quiescence: every thread finished, or suspended on a level
    // strictly above its counter's value (i.e. genuinely blocked — a waiter
    // whose level is already satisfied is mid-wakeup and will progress).
    // A diagnosis samples the counters one after another, so a thread can
    // increment a counter already sampled and then wait on one sampled
    // later: only a state two diagnoses in a row agree on is quiescent.
    let deadline = Instant::now() + timeout;
    let nthreads = sk.num_threads();
    let mut last_state = Vec::new();
    let report = loop {
        let done = finished.load(Ordering::SeqCst);
        if done == nthreads {
            break supervisor.diagnose();
        }
        let report = supervisor.diagnose();
        let suspended: usize = report
            .counters
            .iter()
            .flat_map(|c| c.waiters.iter())
            .map(|w| w.threads)
            .sum();
        let all_blocked = report
            .counters
            .iter()
            .all(|c| c.waiters.iter().all(|w| w.level > c.value));
        let state: Vec<_> = report
            .counters
            .iter()
            .map(|c| (c.value, c.waiters.clone()))
            .collect();
        let stable = state == last_state;
        last_state = state;
        if stable
            && done + suspended == nthreads
            && all_blocked
            && done == finished.load(Ordering::SeqCst)
        {
            break report;
        }
        assert!(
            Instant::now() < deadline,
            "skeleton run failed to quiesce: {done} finished, {suspended} suspended of {nthreads}"
        );
        std::thread::yield_now();
        std::thread::sleep(Duration::from_micros(50));
    };

    // Release any blocked threads and join everyone.
    supervisor.poison_all(FailureInfo::new("concrete-run teardown"));
    let mut completed = 0;
    for h in handles {
        if h.join().expect("skeleton thread panicked") {
            completed += 1;
        }
    }
    ConcreteRun {
        completed: completed == nthreads,
        blocked_threads: nthreads - completed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::SkeletonBuilder;
    use mc_counter::StallVerdict;

    #[test]
    fn complete_skeleton_finishes_with_idle_report() {
        let mut b = SkeletonBuilder::new();
        let c = b.counter("c");
        b.thread("p").inc(c, 1);
        b.thread("q").check(c, 1);
        let sk = b.build();
        let run = run_concrete(&sk, Duration::from_secs(10));
        assert!(run.completed);
        assert_eq!(run.blocked_threads, 0);
        for cr in &run.report.counters {
            assert_eq!(cr.verdict, StallVerdict::Idle);
        }
    }

    #[test]
    fn stuck_skeleton_diagnosed_never_satisfiable() {
        let mut b = SkeletonBuilder::new();
        let c = b.counter("c");
        b.thread("p").inc(c, 1);
        b.thread("q").check(c, 5);
        let sk = b.build();
        let run = run_concrete(&sk, Duration::from_secs(10));
        assert!(!run.completed);
        assert_eq!(run.blocked_threads, 1);
        let stuck = run.report.stuck();
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].name, "c");
    }
}
