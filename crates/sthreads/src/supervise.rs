//! Supervised variants of the structured-multithreading constructs.
//!
//! The plain constructs ([`multithreaded_for`],
//! [`multithreaded_tasks`](crate::multithreaded_tasks)) follow `std` panic
//! semantics: an iteration that panics aborts the whole scope. Worse, in a
//! counter-synchronized program the panicking iteration's *increments never
//! arrive*, so siblings suspended on those levels would hang forever if the
//! panic were merely caught.
//!
//! The supervised variants close that gap: each iteration runs under
//! `catch_unwind`; on a panic the registered counters are poisoned with the
//! real panic payload, so blocked siblings fail fast (with *cascade* panics)
//! while unblocked siblings finish normally; after the join, the first
//! root-cause panic ([`FirstPanic`]) is re-raised so the construct still
//! propagates failure to its caller exactly like the unsupervised form.

use crate::mode::ExecutionMode;
use crate::multithreaded_for;
use mc_counter::{FirstPanic, MonotonicCounter};

/// A [`multithreaded_for`] whose iterations are supervised: a panicking
/// iteration poisons every counter in `counters` (releasing siblings
/// blocked on increments that will now never arrive), the remaining
/// iterations run to completion or fail fast on the poisoned counters, and
/// the **first root-cause** panic is re-raised after all iterations have
/// joined. A sibling's cascade panic (its `check` on a poisoned counter) is
/// re-raised only when no iteration panicked for a cause of its own.
///
/// In [`ExecutionMode::Sequential`] a panicking iteration still poisons the
/// counters, and the panic propagates immediately (later iterations do not
/// run) — the standard sequential reading of the program text.
///
/// # Example
///
/// ```
/// use mc_counter::{CheckError, Counter, MonotonicCounter};
/// use mc_sthreads::{supervised_for, ExecutionMode};
///
/// let done = Counter::default();
/// let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
///     supervised_for(ExecutionMode::Multithreaded, 0..4u64, &[&done], |i| {
///         if i == 2 {
///             panic!("worker {i} failed");
///         }
///         // A sibling waiting on the failed worker's increment fails fast
///         // instead of hanging:
///         if i == 3 {
///             assert!(matches!(done.wait(10), Err(CheckError::Poisoned(_))));
///         }
///     });
/// }));
/// assert!(result.is_err(), "the panic is re-raised after the join");
/// assert!(done.poison_info().is_some());
/// ```
pub fn supervised_for<I, F>(
    mode: ExecutionMode,
    iter: I,
    counters: &[&dyn MonotonicCounter],
    body: F,
) where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    let first = FirstPanic::default();
    // Runs one iteration; a panic poisons every counter with the real
    // cause. (An `Obligation` inside the iteration may have poisoned first
    // with its generic message — first-poison-wins makes that harmless.)
    let run = |item| match first.catch(|| body(item)) {
        Ok(()) => true,
        Err(info) => {
            for c in counters {
                c.poison(info.clone());
            }
            false
        }
    };
    match mode {
        // Sequential semantics: a panic stops the loop at once.
        ExecutionMode::Sequential => {
            for item in iter {
                if !run(item) {
                    break;
                }
            }
        }
        ExecutionMode::Multithreaded => multithreaded_for(mode, iter, |item| {
            run(item);
        }),
    }
    first.resume();
}

/// A [`multithreaded_tasks`](crate::multithreaded_tasks) whose tasks are
/// supervised exactly like [`supervised_for`] iterations: a panicking task
/// poisons every counter in `counters`, siblings finish or fail fast, and
/// the first root-cause panic is re-raised after the join.
pub fn supervised_tasks<'env>(
    mode: ExecutionMode,
    counters: &[&dyn MonotonicCounter],
    tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
) {
    supervised_for(mode, tasks, counters, |task| task());
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_counter::{CheckError, Counter, CounterDiagnostics, CounterExt, FailureInfo};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn panic_free_run_behaves_like_the_plain_construct() {
        for mode in ExecutionMode::ALL {
            let done = Counter::default();
            let hits = AtomicUsize::new(0);
            supervised_for(mode, 0..8u64, &[&done], |_| {
                hits.fetch_add(1, Ordering::SeqCst);
                done.increment(1);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 8, "{mode:?}");
            assert_eq!(done.debug_value(), 8, "{mode:?}");
            assert!(done.poison_info().is_none(), "{mode:?}");
        }
    }

    #[test]
    fn panicking_iteration_poisons_with_the_real_payload() {
        let done = Counter::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            supervised_for(ExecutionMode::Multithreaded, 0..4u64, &[&done], |i| {
                if i == 1 {
                    panic!("iteration {i} exploded");
                }
                done.increment(1);
            });
        }));
        assert!(result.is_err(), "first panic must be re-raised");
        let info = done.poison_info().expect("counter must be poisoned");
        assert_eq!(info.message(), "iteration 1 exploded");
    }

    #[test]
    fn blocked_sibling_fails_fast_instead_of_hanging() {
        let done = Arc::new(Counter::default());
        let saw_poison = Arc::new(AtomicUsize::new(0));
        let result = {
            let done = Arc::clone(&done);
            let saw_poison = Arc::clone(&saw_poison);
            catch_unwind(AssertUnwindSafe(move || {
                supervised_for(
                    ExecutionMode::Multithreaded,
                    0..2u64,
                    &[done.as_ref()],
                    |i| {
                        if i == 0 {
                            // Wait for the increment iteration 1 owes — it
                            // will never arrive.
                            if matches!(done.wait(5), Err(CheckError::Poisoned(_))) {
                                saw_poison.fetch_add(1, Ordering::SeqCst);
                            }
                        } else {
                            let _ob = done.obligation(5);
                            panic!("producer died");
                        }
                    },
                );
            }))
        };
        assert!(result.is_err());
        assert_eq!(saw_poison.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unblocked_siblings_run_to_completion() {
        let done = Counter::default();
        let completed = AtomicUsize::new(0);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            supervised_for(ExecutionMode::Multithreaded, 0..6u64, &[&done], |i| {
                if i == 0 {
                    panic!("one bad apple");
                }
                completed.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert_eq!(
            completed.load(Ordering::SeqCst),
            5,
            "siblings must not be cancelled"
        );
    }

    #[test]
    fn sequential_mode_poisons_then_propagates_immediately() {
        let done = Counter::default();
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            supervised_for(ExecutionMode::Sequential, 0..5u64, &[&done], |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 2 {
                    panic!("sequential failure");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(
            ran.load(Ordering::SeqCst),
            3,
            "iterations after the panic must not run sequentially"
        );
        assert!(done.poison_info().is_some());
    }

    #[test]
    fn first_panic_wins_when_several_iterations_fail() {
        let done = Counter::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            supervised_for(ExecutionMode::Sequential, 0..3u64, &[&done], |i| {
                panic!("failure {i}");
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("string panic payload");
        assert_eq!(msg, "failure 0");
    }

    #[test]
    fn root_cause_is_reraised_over_a_sibling_cascade() {
        // Iteration 1 suspends in `check` on the first of many counters, and
        // its cascade is often caught while iteration 0, the root cause, is
        // still poisoning the rest; many counters and rounds make that race show.
        for _ in 0..200 {
            let counters: Vec<Counter> = (0..1000).map(|_| Counter::default()).collect();
            let registered: Vec<&dyn MonotonicCounter> = counters
                .iter()
                .map(|c| c as &dyn MonotonicCounter)
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                supervised_for(ExecutionMode::Multithreaded, 0..2u64, &registered, |i| {
                    if i == 1 {
                        counters[0].check(1);
                        return;
                    }
                    while counters[0].waiters().is_empty() {
                        std::thread::yield_now();
                    }
                    panic!("root cause");
                });
            }))
            .unwrap_err();
            assert_eq!(
                FailureInfo::from_panic(payload.as_ref()).message(),
                "root cause",
                "the root cause, not a cascade casualty, must be re-raised"
            );
        }
    }

    #[test]
    fn supervised_tasks_poison_and_reraise() {
        for mode in ExecutionMode::ALL {
            let done = Counter::default();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| done.increment(1)),
                Box::new(|| panic!("task failed")),
            ];
            let result = catch_unwind(AssertUnwindSafe(|| supervised_tasks(mode, &[&done], tasks)));
            assert!(result.is_err(), "{mode:?}");
            let info = done.poison_info().expect("counter must be poisoned");
            assert_eq!(info.message(), "task failed", "{mode:?}");
        }
    }

    #[test]
    fn multiple_counters_are_all_poisoned() {
        let a = Counter::default();
        let b = Counter::default();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            supervised_for(ExecutionMode::Sequential, 0..1u64, &[&a, &b], |_| {
                panic!("both must learn of this");
            });
        }));
        assert!(a.poison_info().is_some());
        assert!(b.poison_info().is_some());
    }
}
