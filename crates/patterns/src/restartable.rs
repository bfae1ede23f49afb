//! A pipeline whose stages survive panics: each stage runs as a supervised
//! child of a [`SupervisionTree`] and, when restarted, **re-attaches at the
//! failed stage's checkpoint** instead of recomputing the stage.
//!
//! The checkpoint is free: a dying [`BroadcastWriter`] flushes exactly its
//! written prefix, so the stage's output counter *is* the durable progress
//! record. A replacement run claims the writer role again via
//! [`Broadcast::resume_writer`], starts at `published()`, and transforms
//! only the missing suffix. Downstream stages never notice — they were
//! simply waiting on the availability counter the whole time.
//!
//! When a stage exhausts its restart intensity (or fails on a poisoned
//! upstream), the tree escalates: every stage's output counter is poisoned
//! with the original cause, releasing readers of the unpublished suffix —
//! the pipeline fails loudly with the root cause rather than hanging.

use crate::Broadcast;
use mc_sthreads::{ChildSpec, RestartLimits, SupervisionTree, TreeFailure, TreeReport};
use std::sync::Arc;

type MapFn<T> = dyn Fn(&T) -> T + Send + Sync;

/// A restartable chain of 1:1 map stages over [`Broadcast`] buffers.
///
/// Unlike [`Pipeline`](crate::Pipeline) — whose stages own arbitrary
/// reader/writer protocols and whose first panic fails the whole run — a
/// `RestartablePipeline` constrains each stage to an item-wise map
/// (`Fn(&T) -> T`), which is exactly the shape whose progress a counter can
/// checkpoint: item `i`'s output depends only on item `i`'s input, so a
/// replacement run resuming at the published watermark is equivalent to a
/// run that never crashed.
///
/// # Example
///
/// ```
/// use mc_patterns::RestartablePipeline;
///
/// let out = RestartablePipeline::new()
///     .stage("square", |x: &u64| x * x)
///     .stage("inc", |x| x + 1)
///     .run((0..100).collect())
///     .unwrap()
///     .items;
/// assert_eq!(out[9], 9 * 9 + 1);
/// ```
pub struct RestartablePipeline<T> {
    stages: Vec<(String, Arc<MapFn<T>>)>,
    limits: RestartLimits,
    seed: u64,
}

impl<T: Send + Sync + 'static> Default for RestartablePipeline<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The output of a completed [`RestartablePipeline`] run.
#[derive(Debug)]
pub struct PipelineOutcome<T> {
    /// The final stage's output sequence, in input order.
    pub items: Vec<T>,
    /// The supervision tree's per-stage restart accounting.
    pub report: TreeReport,
}

impl<T: Send + Sync + 'static> RestartablePipeline<T> {
    /// An empty pipeline (running it returns the inputs unchanged).
    pub fn new() -> Self {
        RestartablePipeline {
            stages: Vec::new(),
            limits: RestartLimits::default(),
            seed: 0,
        }
    }

    /// Appends a map stage. `name` labels the supervised child (and its
    /// output counter, registered as `<name>.out`) in diagnostics.
    pub fn stage(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&T) -> T + Send + Sync + 'static,
    ) -> Self {
        self.stages.push((name.into(), Arc::new(f)));
        self
    }

    /// Sets the per-stage restart intensity and backoff bounds.
    pub fn limits(mut self, limits: RestartLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Seeds the restart-backoff jitter stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs every input through every stage, restarting crashed stages from
    /// their published checkpoint; blocks until the pipeline completes or a
    /// stage's failure escalates.
    pub fn run(self, inputs: Vec<T>) -> Result<PipelineOutcome<T>, TreeFailure> {
        let n = inputs.len();
        let mut upstream = Arc::new(Broadcast::from_vec(inputs));
        let mut builder = SupervisionTree::builder()
            .limits(self.limits)
            .seed(self.seed);
        let mut outputs: Vec<Arc<Broadcast<T>>> = Vec::with_capacity(self.stages.len());
        for (name, f) in self.stages {
            let output = Arc::new(Broadcast::new(n));
            let (input, out, f) = (Arc::clone(&upstream), Arc::clone(&output), Arc::clone(&f));
            builder = builder.child(
                ChildSpec::new(name.clone(), move |ctx| {
                    // Re-attach at the checkpoint: everything already
                    // published by a previous run of this stage stays
                    // published; transform only the missing suffix.
                    let mut writer = out.resume_writer();
                    for i in writer.written()..n {
                        if ctx.aborted() {
                            return; // the tree escalated: stop early
                        }
                        writer.push(f(input.get(i)));
                    }
                })
                // Escalation poisons the stage's output, releasing any
                // reader (the next stage, or an external consumer) blocked
                // on the unpublished suffix.
                .counter(format!("{name}.out"), output.counter()),
            );
            outputs.push(Arc::clone(&output));
            upstream = output;
        }
        let report = builder.build().run()?;
        drop(outputs); // release the intermediate (and final) buffer handles
        let items = Arc::try_unwrap(upstream)
            .unwrap_or_else(|_| panic!("pipeline buffers still shared after the tree settled"))
            .into_items();
        Ok(PipelineOutcome { items, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_counter::CheckError;
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
    use std::time::Duration;

    fn fast_limits() -> RestartLimits {
        RestartLimits {
            max_restarts: 4,
            window: Duration::from_secs(10),
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
        }
    }

    #[test]
    fn empty_pipeline_returns_inputs() {
        let out = RestartablePipeline::new().run(vec![1u32, 2, 3]).unwrap();
        assert_eq!(out.items, vec![1, 2, 3]);
        assert_eq!(out.report.total_restarts(), 0);
    }

    #[test]
    fn stages_compose_like_sequential_maps() {
        let out = RestartablePipeline::new()
            .stage("double", |x: &u64| x * 2)
            .stage("inc", |x| x + 1)
            .stage("square", |x| x * x)
            .run((0..50).collect())
            .unwrap();
        let want: Vec<u64> = (0..50).map(|x| (x * 2 + 1) * (x * 2 + 1)).collect();
        assert_eq!(out.items, want);
    }

    #[test]
    fn crashed_stage_resumes_at_its_checkpoint() {
        const N: u64 = 40;
        const CRASH_AT: u64 = 17;
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let out = RestartablePipeline::new()
            .limits(fast_limits())
            .stage("flaky", move |x: &u64| {
                // Panic exactly once, while processing item CRASH_AT.
                if *x == CRASH_AT && c.fetch_add(0, Relaxed) < CRASH_AT as u32 + 1 {
                    c.fetch_add(1, Relaxed); // count the doomed call
                    panic!("transient failure at item {CRASH_AT}");
                }
                c.fetch_add(1, Relaxed);
                x + 100
            })
            .run((0..N).collect())
            .unwrap();
        assert_eq!(out.items, (0..N).map(|x| x + 100).collect::<Vec<_>>());
        assert_eq!(out.report.child("flaky").unwrap().restarts, 1);
        // Items 0..CRASH_AT were published before the crash and must NOT be
        // reprocessed: total calls = prefix + doomed call + resumed suffix.
        assert_eq!(
            calls.load(Relaxed) as u64,
            CRASH_AT + 1 + (N - CRASH_AT),
            "replacement run must re-attach at the checkpoint, not rerun the stage"
        );
    }

    #[test]
    fn downstream_stage_is_undisturbed_by_an_upstream_restart() {
        let crashed = Arc::new(AtomicU32::new(0));
        let cr = Arc::clone(&crashed);
        let downstream_runs = Arc::new(AtomicU32::new(0));
        let dr = Arc::clone(&downstream_runs);
        let out = RestartablePipeline::new()
            .limits(fast_limits())
            .stage("flaky-src", move |x: &u64| {
                if *x == 5 && cr.fetch_add(1, Relaxed) == 0 {
                    panic!("hiccup");
                }
                x * 10
            })
            .stage("steady-sink", move |x| {
                dr.fetch_add(1, Relaxed);
                x + 1
            })
            .run((0..20).collect())
            .unwrap();
        assert_eq!(out.items, (0..20).map(|x| x * 10 + 1).collect::<Vec<_>>());
        assert_eq!(out.report.child("flaky-src").unwrap().restarts, 1);
        assert_eq!(out.report.child("steady-sink").unwrap().restarts, 0);
        assert_eq!(
            downstream_runs.load(Relaxed),
            20,
            "the sink just waited out the upstream restart — one call per item"
        );
    }

    #[test]
    fn hopeless_stage_escalates_with_the_original_cause() {
        let failure = RestartablePipeline::new()
            .limits(RestartLimits {
                max_restarts: 2,
                window: Duration::from_secs(10),
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_micros(400),
            })
            .stage("doomed", |_x: &u64| -> u64 { panic!("disk on fire") })
            .run(vec![1, 2, 3])
            .unwrap_err();
        assert_eq!(failure.child, "doomed");
        assert!(failure.cause.message().contains("disk on fire"));
        assert!(failure
            .cause
            .message()
            .contains("exhausted restart intensity"));
    }

    #[test]
    fn escalation_releases_an_external_reader() {
        // A consumer blocked on the final stage's output must fail with the
        // root cause when the pipeline gives up — not hang.
        let n = 3;
        let output = Arc::new(Broadcast::<u64>::new(n));
        let out2 = Arc::clone(&output);
        let consumer = std::thread::spawn(move || out2.try_get(n - 1).copied());
        // Hand the pipeline's doomed stage our output buffer by writing
        // through it inside the stage body via the tree directly.
        let o = Arc::clone(&output);
        let failure = SupervisionTree::builder()
            .limits(RestartLimits {
                max_restarts: 1,
                window: Duration::from_secs(10),
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_micros(200),
            })
            .child(
                ChildSpec::new("writer", move |_ctx| {
                    let mut w = o.resume_writer();
                    w.push(1);
                    panic!("cannot continue");
                })
                .counter("out", output.counter()),
            )
            .build()
            .run()
            .unwrap_err();
        assert!(failure.cause.message().contains("cannot continue"));
        match consumer.join().unwrap() {
            Err(CheckError::Poisoned(info)) => {
                assert!(info.message().contains("cannot continue"))
            }
            other => panic!("expected poisoned release, got {other:?}"),
        }
        // The published prefix survives the escalation: the first run
        // published slot 0, the one allowed restart published slot 1.
        assert_eq!(output.published(), 2);
        assert_eq!(output.try_get(0), Ok(&1));
        assert_eq!(output.try_get(1), Ok(&1));
    }
}
