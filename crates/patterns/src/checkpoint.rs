//! Crash-resumable pipelines: [`Pipeline`](crate::Pipeline) semantics plus a
//! durable checkpoint at every completed stage boundary.
//!
//! A [`CheckpointedPipeline`] runs its stages concurrently exactly like
//! [`Pipeline`](crate::Pipeline), but as each stage *completes* its full
//! output sequence, that sequence is written to `stage-{k}.ckpt` in the
//! checkpoint directory — CRC32-framed (the same frame format as the
//! durability WAL, [`mc_durable::write_frame`]) and written through
//! [`mc_durable::write_durably`]: a temporary file, fsync, atomic rename
//! and directory fsync, each step behind a failpoint site
//! `stage-{k}.ckpt.<step>` of the process-global registry. A later
//! [`run_resumable`] call in the same directory — e.g. after the process
//! was killed mid-run — finds the **greatest** stage index with a valid
//! checkpoint, decodes that stage's output, and runs only the stages after
//! it.
//!
//! A torn, truncated, or corrupt checkpoint file (crash mid-write leaves at
//! most a `.tmp`; on-disk damage fails the CRC or the item count) is treated
//! as absent, so resume falls back to the previous durable boundary — never
//! to wrong data. Because every stage is a pure function of the previous
//! stage's sequence (the determinacy property of Section 6), re-running from
//! an earlier boundary recomputes exactly what was lost.
//!
//! [`run_resumable`]: CheckpointedPipeline::run_resumable
//! [`mc_durable::write_frame`]: mc_durable::write_frame
//! [`mc_durable::write_durably`]: mc_durable::write_durably

use crate::broadcast::{Broadcast, BroadcastReader, BroadcastWriter};
use crate::pipeline::Pipeline;
use mc_durable::{read_frame, write_durably, write_frame, FrameRead};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// Magic bytes opening every checkpoint file's header frame.
const CKPT_MAGIC: &[u8; 4] = b"MCCK";

/// The file name of stage `stage`'s checkpoint.
fn checkpoint_name(stage: usize) -> String {
    format!("stage-{stage}.ckpt")
}

type EncodeFn<T> = Box<dyn Fn(&T) -> Vec<u8> + Send + Sync>;
type DecodeFn<T> = Box<dyn Fn(&[u8]) -> Option<T> + Send + Sync>;

/// How a [`CheckpointedPipeline::run_resumable`] call got its starting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeReport {
    /// Stage index whose checkpoint seeded this run (`None`: ran from the
    /// original input).
    pub resumed_from_stage: Option<usize>,
    /// Stages skipped because their output was already durable.
    pub stages_skipped: usize,
    /// Stages actually executed this run.
    pub stages_run: usize,
    /// Checkpoints durably written by this run (one per completed stage).
    pub checkpoints_written: usize,
}

/// A [`Pipeline`](crate::Pipeline) that checkpoints every completed stage's
/// output to disk and can resume from the last durable stage boundary.
///
/// The item codec is supplied up front: `encode` serializes one item,
/// `decode` parses it back (returning `None` on malformed bytes — a decode
/// failure invalidates the whole checkpoint rather than truncating it).
///
/// # Example
///
/// ```
/// use mc_patterns::CheckpointedPipeline;
///
/// let dir = std::env::temp_dir().join(format!("mc-ckpt-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let build = || {
///     CheckpointedPipeline::new(
///         |x: &u64| x.to_le_bytes().to_vec(),
///         |b| b.try_into().ok().map(u64::from_le_bytes),
///     )
///     .stage(3, |r, w| for &x in r { w.push(x * 2); })
///     .stage(3, |r, w| for &x in r { w.push(x + 1); })
/// };
/// let (out, report) = build().run_resumable(&dir, vec![1, 2, 3]).unwrap();
/// assert_eq!(out, vec![3, 5, 7]);
/// assert_eq!(report.stages_run, 2);
///
/// // A second run finds both stage outputs durable and recomputes nothing.
/// let (out, report) = build().run_resumable(&dir, vec![1, 2, 3]).unwrap();
/// assert_eq!(out, vec![3, 5, 7]);
/// assert_eq!(report.stages_skipped, 2);
/// assert_eq!(report.stages_run, 0);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct CheckpointedPipeline<T> {
    pipeline: Pipeline<T>,
    encode: EncodeFn<T>,
    decode: DecodeFn<T>,
}

impl<T: Send + Sync> CheckpointedPipeline<T> {
    /// Creates an empty checkpointed pipeline with the given item codec.
    pub fn new(
        encode: impl Fn(&T) -> Vec<u8> + Send + Sync + 'static,
        decode: impl Fn(&[u8]) -> Option<T> + Send + Sync + 'static,
    ) -> Self {
        CheckpointedPipeline {
            pipeline: Pipeline::new(),
            encode: Box::new(encode),
            decode: Box::new(decode),
        }
    }

    /// Appends a stage producing exactly `capacity` items (same contract as
    /// [`Pipeline::stage`](crate::Pipeline::stage)).
    pub fn stage(
        mut self,
        capacity: usize,
        run: impl Fn(BroadcastReader<'_, T>, &mut BroadcastWriter<'_, T>) + Send + Sync + 'static,
    ) -> Self {
        self.pipeline = self.pipeline.stage(capacity, run);
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.pipeline.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.pipeline.is_empty()
    }

    /// Path of stage `k`'s checkpoint file in `dir`.
    pub fn checkpoint_path(dir: &Path, stage: usize) -> PathBuf {
        dir.join(checkpoint_name(stage))
    }

    /// Runs the pipeline, resuming from the last durable stage boundary in
    /// `dir` and checkpointing each stage as it completes.
    ///
    /// Returns the final stage's output together with a [`ResumeReport`]
    /// saying how much work the checkpoints saved.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or durably writing a checkpoint.
    /// Damaged checkpoint *reads* are not errors — a bad file is skipped in
    /// favor of an earlier boundary (or the original input).
    ///
    /// # Panics
    ///
    /// As [`Pipeline::run`](crate::Pipeline::run): a stage panic poisons its
    /// output broadcast, cascades through downstream stages, and the root
    /// cause is re-raised after all stage threads join. Stages that
    /// completed before the panic keep their durable checkpoints, so the
    /// next `run_resumable` call resumes after them.
    pub fn run_resumable(self, dir: &Path, input: Vec<T>) -> io::Result<(Vec<T>, ResumeReport)> {
        std::fs::create_dir_all(dir)?;
        let (start_items, resumed_from_stage) = match self.latest_checkpoint(dir) {
            Some((stage, items)) => (items, Some(stage)),
            None => (input, None),
        };
        let first_stage = resumed_from_stage.map_or(0, |k| k + 1);
        let remaining = &self.pipeline.stages[first_stage..];

        // Write-once: the first checkpoint error wins.
        let first_io_error = OnceLock::new();
        let checkpoints_written = AtomicUsize::new(0);
        // Each stage that completes reads back its own output (it pushed the
        // full sequence, so a fresh reader cannot block) and checkpoints it.
        let out = Pipeline::run_stages(remaining, start_items, |i, output| {
            match self.write_checkpoint(dir, first_stage + i, output) {
                Ok(()) => {
                    checkpoints_written.fetch_add(1, Relaxed);
                }
                Err(e) => {
                    let _ = first_io_error.set(e);
                }
            }
        });
        if let Some(e) = first_io_error.into_inner() {
            return Err(e);
        }
        Ok((
            out,
            ResumeReport {
                resumed_from_stage,
                stages_skipped: first_stage,
                stages_run: remaining.len(),
                checkpoints_written: checkpoints_written.into_inner(),
            },
        ))
    }

    /// Finds the greatest stage index with a fully valid checkpoint in
    /// `dir` and decodes its items. Damaged files are skipped.
    fn latest_checkpoint(&self, dir: &Path) -> Option<(usize, Vec<T>)> {
        for stage in (0..self.len()).rev() {
            let path = Self::checkpoint_path(dir, stage);
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            if let Some(items) = self.decode_checkpoint(&bytes) {
                return Some((stage, items));
            }
        }
        None
    }

    /// Decodes a checkpoint file: a `MCCK` + item-count header frame, then
    /// exactly that many item frames, ending cleanly. Any deviation —
    /// torn frame, CRC mismatch, count mismatch, item decode failure,
    /// trailing bytes — invalidates the whole checkpoint (`None`).
    fn decode_checkpoint(&self, bytes: &[u8]) -> Option<Vec<T>> {
        let FrameRead::Frame { payload, next } = read_frame(bytes, 0) else {
            return None;
        };
        if payload.len() != CKPT_MAGIC.len() + 8 || &payload[..4] != CKPT_MAGIC {
            return None;
        }
        let count = u64::from_le_bytes(payload[4..].try_into().ok()?) as usize;
        let mut items = Vec::with_capacity(count.min(1 << 16));
        let mut offset = next;
        for _ in 0..count {
            let FrameRead::Frame { payload, next } = read_frame(bytes, offset) else {
                return None;
            };
            items.push((self.decode)(payload)?);
            offset = next;
        }
        matches!(read_frame(bytes, offset), FrameRead::End).then_some(items)
    }

    /// Durably writes stage `stage_index`'s completed output: encode every
    /// item into frames and write them through [`write_durably`].
    fn write_checkpoint(
        &self,
        dir: &Path,
        stage_index: usize,
        output: &Broadcast<T>,
    ) -> io::Result<()> {
        let items = output.reader();
        let mut bytes = Vec::new();
        let mut header = Vec::with_capacity(CKPT_MAGIC.len() + 8);
        header.extend_from_slice(CKPT_MAGIC);
        header.extend_from_slice(&(items.len() as u64).to_le_bytes());
        write_frame(&mut bytes, &header);
        for item in items {
            write_frame(&mut bytes, &(self.encode)(item));
        }

        let name = checkpoint_name(stage_index);
        write_durably(dir, &name, &bytes, mc_chaos::failpoints::global())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mc-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[allow(clippy::type_complexity)]
    fn u64_codec() -> (
        impl Fn(&u64) -> Vec<u8> + Send + Sync + 'static,
        impl Fn(&[u8]) -> Option<u64> + Send + Sync + 'static,
    ) {
        (
            |x: &u64| x.to_le_bytes().to_vec(),
            |b: &[u8]| b.try_into().ok().map(u64::from_le_bytes),
        )
    }

    /// A two-stage pipeline that counts how many times each stage actually
    /// runs, for asserting that resume skips completed work.
    fn counted_pipeline(runs: &Arc<[AtomicUsize; 2]>) -> CheckpointedPipeline<u64> {
        let (enc, dec) = u64_codec();
        let r0 = Arc::clone(runs);
        let r1 = Arc::clone(runs);
        CheckpointedPipeline::new(enc, dec)
            .stage(4, move |r, w| {
                r0[0].fetch_add(1, Ordering::Relaxed);
                for &x in r {
                    w.push(x * 10);
                }
            })
            .stage(4, move |r, w| {
                r1[1].fetch_add(1, Ordering::Relaxed);
                for &x in r {
                    w.push(x + 1);
                }
            })
    }

    #[test]
    fn fresh_run_checkpoints_every_stage() {
        let dir = test_dir("fresh");
        let runs: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let (out, report) = counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        assert_eq!(out, vec![11, 21, 31, 41]);
        assert_eq!(report.resumed_from_stage, None);
        assert_eq!(report.stages_run, 2);
        assert_eq!(report.checkpoints_written, 2);
        assert!(CheckpointedPipeline::<u64>::checkpoint_path(&dir, 0).exists());
        assert!(CheckpointedPipeline::<u64>::checkpoint_path(&dir, 1).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_skips_completed_stages() {
        let dir = test_dir("resume");
        let runs: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let (first, _) = counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        let (second, report) = counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(report.resumed_from_stage, Some(1));
        assert_eq!(report.stages_skipped, 2);
        assert_eq!(report.stages_run, 0);
        // Each stage ran exactly once across both calls.
        assert_eq!(runs[0].load(Ordering::Relaxed), 1);
        assert_eq!(runs[1].load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_stage_keeps_upstream_checkpoint_and_resumes_after_it() {
        let dir = test_dir("panic");
        let runs: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let (enc, dec) = u64_codec();
        let r0 = Arc::clone(&runs);
        let broken = CheckpointedPipeline::new(enc, dec)
            .stage(4, move |r, w| {
                r0[0].fetch_add(1, Ordering::Relaxed);
                for &x in r {
                    w.push(x * 10);
                }
            })
            .stage(4, |_r, _w| panic!("stage 2 crashed"));
        let result = catch_unwind(AssertUnwindSafe(|| {
            broken.run_resumable(&dir, vec![1, 2, 3, 4])
        }));
        assert!(result.is_err(), "the stage panic must propagate");
        // Stage 0 completed and its checkpoint is durable; the retry with a
        // fixed stage 2 resumes from it instead of recomputing stage 1.
        let (out, report) = counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        assert_eq!(out, vec![11, 21, 31, 41]);
        assert_eq!(report.resumed_from_stage, Some(0));
        assert_eq!(report.stages_skipped, 1);
        assert_eq!(report.stages_run, 1);
        assert_eq!(runs[0].load(Ordering::Relaxed), 1, "stage 1 not recomputed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_checkpoint_is_treated_as_absent() {
        let dir = test_dir("damaged");
        let runs: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        // Corrupt the final checkpoint: resume falls back to stage 0's.
        let last = CheckpointedPipeline::<u64>::checkpoint_path(&dir, 1);
        let mut bytes = std::fs::read(&last).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&last, &bytes).unwrap();
        let (out, report) = counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        assert_eq!(out, vec![11, 21, 31, 41]);
        assert_eq!(report.resumed_from_stage, Some(0));
        assert_eq!(report.stages_run, 1);

        // Truncate stage 0's too: resume falls back to the original input.
        let first = CheckpointedPipeline::<u64>::checkpoint_path(&dir, 0);
        let bytes = std::fs::read(&first).unwrap();
        std::fs::write(&first, &bytes[..bytes.len() - 3]).unwrap();
        std::fs::remove_file(&last).unwrap();
        let (out, report) = counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        assert_eq!(out, vec![11, 21, 31, 41]);
        assert_eq!(report.resumed_from_stage, None);
        assert_eq!(report.stages_run, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let dir = test_dir("empty");
        let (enc, dec) = u64_codec();
        let p = CheckpointedPipeline::new(enc, dec);
        assert!(p.is_empty());
        let (out, report) = p.run_resumable(&dir, vec![5, 6]).unwrap();
        assert_eq!(out, vec![5, 6]);
        assert_eq!(report.stages_run, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_items_round_trip_through_a_checkpoint() {
        // An empty item is a frame whose header is all zeros: the WAL reads
        // that as the start of its zero reserve, but a checkpoint must not.
        let dir = test_dir("empty-items");
        let runs = Arc::new(AtomicUsize::new(0));
        let build = || {
            let runs = Arc::clone(&runs);
            CheckpointedPipeline::new(
                |s: &String| s.as_bytes().to_vec(),
                |b: &[u8]| String::from_utf8(b.to_vec()).ok(),
            )
            .stage(3, move |r, w| {
                runs.fetch_add(1, Ordering::Relaxed);
                for s in r {
                    w.push(s.trim().to_string());
                }
            })
        };
        let input = vec![" ".to_string(), "a".to_string(), String::new()];
        let expected = vec![String::new(), "a".to_string(), String::new()];
        let (out, _) = build().run_resumable(&dir, input.clone()).unwrap();
        assert_eq!(out, expected);
        let (out, report) = build().run_resumable(&dir, input).unwrap();
        assert_eq!(out, expected);
        assert_eq!(report.resumed_from_stage, Some(0));
        assert_eq!(runs.load(Ordering::Relaxed), 1, "resumed, not recomputed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_item_invalidates_whole_checkpoint() {
        let dir = test_dir("undecodable");
        let (enc, _) = u64_codec();
        let runs: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        counted_pipeline(&runs)
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        // Same bytes, but a decoder that rejects everything: both
        // checkpoints are invalid, so the run starts from the input.
        let r0 = Arc::clone(&runs);
        let r1 = Arc::clone(&runs);
        let (_, report) = CheckpointedPipeline::new(enc, |_: &[u8]| None::<u64>)
            .stage(4, move |r, w| {
                r0[0].fetch_add(1, Ordering::Relaxed);
                for &x in r {
                    w.push(x * 10);
                }
            })
            .stage(4, move |r, w| {
                r1[1].fetch_add(1, Ordering::Relaxed);
                for &x in r {
                    w.push(x + 1);
                }
            })
            .run_resumable(&dir, vec![1, 2, 3, 4])
            .unwrap();
        assert_eq!(report.resumed_from_stage, None);
        assert_eq!(report.stages_run, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
