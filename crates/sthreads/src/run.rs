//! The multithreaded for-loop and task-list constructs.

use crate::mode::ExecutionMode;

/// The paper's **multithreaded for-loop**: runs `body(item)` for each item of
/// `iter`, each iteration as its own thread (or sequentially, per `mode`).
///
/// Each iteration receives its item by value — the "local copy of the loop
/// control-variable" of Section 3. The construct joins all iteration threads
/// before returning. In [`ExecutionMode::Sequential`] the iterations run in
/// iterator order on the calling thread.
///
/// # Example
///
/// ```
/// use mc_sthreads::{multithreaded_for, ExecutionMode};
/// use std::sync::Mutex;
///
/// let hits = Mutex::new(0);
/// multithreaded_for(ExecutionMode::Multithreaded, 0..8, |_i| {
///     *hits.lock().unwrap() += 1;
/// });
/// assert_eq!(*hits.lock().unwrap(), 8);
/// ```
pub fn multithreaded_for<I, F>(mode: ExecutionMode, iter: I, body: F)
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    match mode {
        ExecutionMode::Sequential => {
            for item in iter {
                body(item);
            }
        }
        ExecutionMode::Multithreaded => {
            let body = &body;
            std::thread::scope(|scope| {
                for item in iter {
                    scope.spawn(move || body(item));
                }
            });
        }
    }
}

/// Shorthand for a multithreaded for-loop in
/// [`ExecutionMode::Multithreaded`].
pub fn par_for<I, F>(iter: I, body: F)
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    multithreaded_for(ExecutionMode::Multithreaded, iter, body);
}

/// Block-distributed multithreaded for-loop: `num_threads` threads, thread
/// `t` receiving the contiguous index range
/// [`chunk_of(n, num_threads, t)`](crate::chunk_of) — the paper's
/// `for (i = t*N/numThreads; i < (t+1)*N/numThreads; ...)` idiom as one
/// call.
pub fn multithreaded_chunks<F>(mode: ExecutionMode, n: usize, num_threads: usize, body: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    multithreaded_for(mode, 0..num_threads, |t| {
        body(t, crate::chunk_of(n, num_threads, t));
    });
}

/// The paper's **multithreaded block** with a runtime list of tasks: runs
/// each boxed task as its own thread (or sequentially, in order, per `mode`)
/// and joins them all.
///
/// For a fixed set of heterogeneous statements prefer the
/// [`multithreaded!`](crate::multithreaded) macro; this function is the
/// dynamic-arity form.
pub fn multithreaded_tasks<'env>(mode: ExecutionMode, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
    multithreaded_for(mode, tasks, |task| task());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn for_loop_visits_every_item_once_in_both_modes() {
        for mode in ExecutionMode::ALL {
            let seen = Mutex::new(vec![false; 32]);
            multithreaded_for(mode, 0..32, |i| {
                let mut seen = seen.lock().unwrap();
                assert!(!seen[i], "item {i} visited twice in {mode:?}");
                seen[i] = true;
            });
            assert!(seen.into_inner().unwrap().iter().all(|&v| v), "{mode:?}");
        }
    }

    #[test]
    fn sequential_mode_preserves_iteration_order() {
        let order = Mutex::new(Vec::new());
        multithreaded_for(ExecutionMode::Sequential, 0..10, |i| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn for_loop_joins_before_returning() {
        let done = AtomicUsize::new(0);
        multithreaded_for(ExecutionMode::Multithreaded, 0..16, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn empty_iterator_is_fine() {
        multithreaded_for(
            ExecutionMode::Multithreaded,
            std::iter::empty::<u32>(),
            |_| unreachable!(),
        );
    }

    #[test]
    fn par_for_is_multithreaded_shorthand() {
        let n = AtomicUsize::new(0);
        par_for(0..4, |_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(n.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn chunked_loop_covers_everything_once() {
        for mode in ExecutionMode::ALL {
            let hits = Mutex::new(vec![0u32; 100]);
            multithreaded_chunks(mode, 100, 7, |_t, range| {
                let mut hits = hits.lock().unwrap();
                for i in range {
                    hits[i] += 1;
                }
            });
            assert!(
                hits.into_inner().unwrap().iter().all(|&h| h == 1),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn chunked_loop_passes_matching_thread_index() {
        let seen = Mutex::new(Vec::new());
        multithreaded_chunks(ExecutionMode::Sequential, 10, 3, |t, range| {
            seen.lock().unwrap().push((t, range));
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 3);
        for (t, range) in seen {
            assert_eq!(range, crate::chunk_of(10, 3, t));
        }
    }

    #[test]
    fn tasks_run_in_both_modes() {
        for mode in ExecutionMode::ALL {
            let n = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
                .map(|_| {
                    let n = &n;
                    Box::new(move || {
                        n.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            multithreaded_tasks(mode, tasks);
            assert_eq!(n.load(Ordering::SeqCst), 5, "{mode:?}");
        }
    }

    #[test]
    fn sequential_tasks_preserve_order() {
        let order = Mutex::new(Vec::new());
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|i| {
                let order = &order;
                Box::new(move || order.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        multithreaded_tasks(ExecutionMode::Sequential, tasks);
        assert_eq!(order.into_inner().unwrap(), (0..6).collect::<Vec<_>>());
    }
}
