//! Crash-durable counters and crash-resumable pipelines.
//!
//! Part 1 opens a [`DurableCounter`]: every acked increment is in the
//! write-ahead log before `increment` returns (strict mode), so "reopening"
//! the directory — as a restarted process would after a kill -9 — recovers
//! the exact acked value, and a persisted poison comes back with its
//! original cause.
//!
//! Part 2 runs a [`CheckpointedPipeline`]: each completed stage's output is
//! durably checkpointed, so when a stage dies mid-run, the retry resumes
//! from the last durable stage boundary instead of recomputing everything.
//!
//! Run with: `cargo run --release --example durable_pipeline`

use monotonic_counters::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-example-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    // ── Part 1: a counter that survives its process ─────────────────────
    let dir = scratch("counter");
    {
        let (counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("open");
        assert_eq!(recovery.value, 0);
        counter.increment(41);
        counter.increment(1);
        // Both increments are in the WAL: even `kill -9` here loses nothing.
        println!("first process acked value {}", counter.debug_value());
    } // drop = process exit (a clean one; a SIGKILL recovers identically)

    let (counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("reopen");
    println!(
        "second process recovered value {} (log slots verified: {:?})",
        recovery.value, recovery.slots_verified
    );
    assert_eq!(recovery.value, 42);

    // A poison is durable too: persist one, "restart", and the cause is back.
    counter.poison(FailureInfo::new("sensor feed went dark").with_level(50));
    drop(counter);
    let (counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("reopen");
    assert!(recovery.poison_restored);
    match counter.wait(50) {
        Err(CheckError::Poisoned(info)) => println!("third process sees cause: {info}"),
        other => unreachable!("expected persisted poison, got {other:?}"),
    }
    drop(counter);
    std::fs::remove_dir_all(&dir).unwrap();

    // ── Part 2: a pipeline that resumes from its last durable stage ─────
    let dir = scratch("pipeline");
    let stage1_runs = std::sync::Arc::new(AtomicUsize::new(0));
    let pipeline = |fail_stage2: bool| {
        let stage1_runs = std::sync::Arc::clone(&stage1_runs);
        CheckpointedPipeline::new(
            |x: &u64| x.to_le_bytes().to_vec(),
            |b| b.try_into().ok().map(u64::from_le_bytes),
        )
        .stage(5, move |r, w| {
            stage1_runs.fetch_add(1, Ordering::Relaxed);
            for &x in r {
                w.push(x * x); // expensive work worth checkpointing
            }
        })
        .stage(5, move |r, w| {
            for (i, &x) in r.enumerate() {
                if fail_stage2 && i == 2 {
                    panic!("stage 2 crashed on item {i}");
                }
                w.push(x + 1);
            }
        })
    };

    // First run: stage 1 completes (and is checkpointed), stage 2 dies.
    // (Panic hook silenced: this crash is the demonstration, not a bug.)
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pipeline(true).run_resumable(&dir, vec![1, 2, 3, 4, 5])
    }));
    std::panic::set_hook(hook);
    assert!(crash.is_err());
    println!("first pipeline run crashed in stage 2, as scheduled");

    // Retry: stage 1's output is already durable, so only stage 2 runs.
    let (out, report) = pipeline(false)
        .run_resumable(&dir, vec![1, 2, 3, 4, 5])
        .expect("resumed run");
    println!(
        "retry resumed from stage {:?}, skipped {} stage(s), produced {out:?}",
        report.resumed_from_stage, report.stages_skipped
    );
    assert_eq!(out, vec![2, 5, 10, 17, 26]);
    assert_eq!(report.stages_skipped, 1);
    assert_eq!(
        stage1_runs.load(Ordering::Relaxed),
        1,
        "stage 1 must not be recomputed on resume"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
