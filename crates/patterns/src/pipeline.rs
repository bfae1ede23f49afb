//! Dataflow pipelines of broadcast stages.
//!
//! The paper's Section 5.3 cites the Paraffins problem: "an array of
//! molecules of a certain size can be generated by one thread and
//! concurrently read by other threads that in turn generate arrays of larger
//! molecules". A [`Pipeline`] chains [`Broadcast`] buffers: stage `k` reads
//! the complete output sequence of stage `k-1` while producing its own, with
//! all stages running concurrently and synchronizing only through counters.
//!
//! A stage that panics poisons its output, so the stages downstream fail
//! with cascade panics instead of hanging, and the run re-raises the root
//! cause ([`FirstPanic`]).

use crate::broadcast::{Broadcast, BroadcastReader, BroadcastWriter};
use mc_counter::FirstPanic;
use mc_sthreads::{multithreaded_for, ExecutionMode};

type StageFn<T> = Box<dyn Fn(BroadcastReader<'_, T>, &mut BroadcastWriter<'_, T>) + Send + Sync>;

/// One pipeline stage: a transformation from the previous stage's item
/// sequence to this stage's.
pub struct Stage<T> {
    /// Exact number of items this stage will produce. The stage function
    /// **must** push exactly this many items, or downstream stages deadlock
    /// waiting for items that never come (just as in the paper's programs,
    /// where sequence lengths are known: Section 3's model has no
    /// early-termination jumps).
    pub capacity: usize,
    run: StageFn<T>,
}

/// A linear chain of concurrently executing broadcast stages.
///
/// # Example
///
/// ```
/// use mc_patterns::Pipeline;
///
/// // Stage 1 doubles each input; stage 2 emits running sums.
/// let out = Pipeline::new()
///     .stage(4, |reader, writer| {
///         for &x in reader {
///             writer.push(x * 2);
///         }
///     })
///     .stage(4, |reader, writer| {
///         let mut sum = 0;
///         for &x in reader {
///             sum += x;
///             writer.push(sum);
///         }
///     })
///     .run(vec![1, 2, 3, 4]);
/// assert_eq!(out, vec![2, 6, 12, 20]);
/// ```
pub struct Pipeline<T> {
    pub(crate) stages: Vec<Stage<T>>,
}

impl<T> Default for Pipeline<T> {
    fn default() -> Self {
        Pipeline { stages: Vec::new() }
    }
}

impl<T: Send + Sync> Pipeline<T> {
    /// Creates an empty pipeline (the identity transformation).
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Appends a stage producing exactly `capacity` items.
    pub fn stage(
        mut self,
        capacity: usize,
        run: impl Fn(BroadcastReader<'_, T>, &mut BroadcastWriter<'_, T>) + Send + Sync + 'static,
    ) -> Self {
        self.stages.push(Stage {
            capacity,
            run: Box::new(run),
        });
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Feeds `input` through all stages — one thread per stage, all running
    /// concurrently — and returns the final stage's output sequence.
    ///
    /// # Panics
    ///
    /// If a stage panics, its output broadcast is poisoned (the writer's
    /// unwind-drop), which releases and in turn fails every downstream stage
    /// blocked on it — the failure cascades through the chain instead of
    /// hanging it. After all stage threads have joined, the first
    /// root-cause panic ([`FirstPanic`]) is re-raised on the calling thread,
    /// not the cascade panics of the stages downstream of it.
    pub fn run(self, input: Vec<T>) -> Vec<T> {
        Self::run_stages(&self.stages, input, |_, _| {})
    }

    /// Runs `stages` over `input` as [`run`](Self::run) does, and returns
    /// the last stage's output. A stage that returns normally calls
    /// `on_complete(i, output)` on its own thread, with `i` its index in
    /// `stages` and `output` its completed broadcast.
    pub(crate) fn run_stages(
        stages: &[Stage<T>],
        input: Vec<T>,
        on_complete: impl Fn(usize, &Broadcast<T>) + Sync,
    ) -> Vec<T> {
        let mut buffers = Vec::with_capacity(stages.len() + 1);
        buffers.push(Broadcast::from_vec(input));
        for stage in stages {
            buffers.push(Broadcast::new(stage.capacity));
        }
        // A stage that panicked because an *upstream* broadcast was
        // poisoned is a cascade casualty: the slot keeps the root cause.
        let first = FirstPanic::default();
        multithreaded_for(
            ExecutionMode::Multithreaded,
            stages.iter().enumerate(),
            |(i, stage)| {
                let (upstream, downstream) = (&buffers[i], &buffers[i + 1]);
                match first.catch(|| (stage.run)(upstream.reader(), &mut downstream.writer())) {
                    Ok(()) => on_complete(i, downstream),
                    // The writer's unwind-drop already poisoned `downstream`
                    // with a positional message; re-poison with the real
                    // payload for the case where the stage failed before
                    // claiming the writer (first poison wins, so this is a
                    // no-op otherwise).
                    Err(info) => downstream.poison(info),
                }
            },
        );
        first.resume();
        buffers
            .pop()
            .expect("buffers always contains at least the input stage")
            .into_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pipeline_is_identity() {
        let out = Pipeline::new().run(vec![1, 2, 3]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn single_stage_transform() {
        let out = Pipeline::new()
            .stage(3, |r, w| {
                for &x in r {
                    w.push(x + 10);
                }
            })
            .run(vec![1, 2, 3]);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn stage_may_change_sequence_length() {
        // Stage emits each item twice.
        let out = Pipeline::new()
            .stage(6, |r, w| {
                for &x in r {
                    w.push(x);
                    w.push(x);
                }
            })
            .run(vec![7, 8, 9]);
        assert_eq!(out, vec![7, 7, 8, 8, 9, 9]);
    }

    #[test]
    fn deep_pipeline_composes() {
        let mut p = Pipeline::new();
        for _ in 0..10 {
            p = p.stage(5, |r, w| {
                for &x in r {
                    w.push(x + 1);
                }
            });
        }
        assert_eq!(p.len(), 10);
        let out = p.run(vec![0, 10, 20, 30, 40]);
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn stages_overlap_in_time() {
        // A stage that forwards items one by one lets downstream start long
        // before upstream finishes; verify the pipeline completes even when
        // every buffer is large and stages sleep, which would time out if
        // stages ran strictly one after another.
        let n = 50;
        let out = Pipeline::new()
            .stage(n, move |r, w| {
                for &x in r {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    w.push(x * 2);
                }
            })
            .stage(n, move |r, w| {
                for &x in r {
                    w.push(x + 1);
                }
            })
            .run((0..n as u64).collect());
        let want: Vec<u64> = (0..n as u64).map(|x| x * 2 + 1).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn is_empty_reports() {
        assert!(Pipeline::<u32>::new().is_empty());
        assert!(!Pipeline::<u32>::new().stage(1, |_, w| w.push(1)).is_empty());
    }

    #[test]
    fn failing_stage_cascades_instead_of_hanging() {
        // Stage 1 fails partway; stages 2 and 3 are blocked readers of the
        // failed output. Without poisoning, `run` would never return.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Pipeline::new()
                .stage(4, |r, w| {
                    for (i, &x) in r.enumerate() {
                        if i == 2 {
                            panic!("stage 1 choked on item {i}");
                        }
                        w.push(x);
                    }
                })
                .stage(4, |r, w| {
                    for &x in r {
                        w.push(x + 1);
                    }
                })
                .stage(4, |r, w| {
                    for &x in r {
                        w.push(x * 10);
                    }
                })
                .run(vec![1, 2, 3, 4])
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("string panic payload");
        assert_eq!(
            msg, "stage 1 choked on item 2",
            "the root cause, not a cascade casualty, must be re-raised"
        );
    }

    #[test]
    fn failure_before_any_output_still_releases_downstream() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Pipeline::new()
                .stage(3, |_r, _w| panic!("stage died immediately"))
                .stage(3, |r, w| {
                    for &x in r {
                        w.push(x);
                    }
                })
                .run(vec![1, 2, 3])
        }));
        let payload = result.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"stage died immediately")
        );
    }
}
