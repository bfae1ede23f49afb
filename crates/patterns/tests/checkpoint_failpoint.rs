//! A checkpoint whose directory fsync fails is an error, not a silent
//! success: `run_resumable` reports it, and a rerun resumes from what the
//! failed run left on disk.
//!
//! This file holds one test because it arms the process-global failpoint
//! registry, which every test in the same binary would share.

use mc_chaos::failpoints::{self, FailConfig};
use mc_patterns::CheckpointedPipeline;
use std::io::ErrorKind;

fn pipeline() -> CheckpointedPipeline<u64> {
    CheckpointedPipeline::new(
        |x: &u64| x.to_le_bytes().to_vec(),
        |b| b.try_into().ok().map(u64::from_le_bytes),
    )
    .stage(3, |r, w| {
        for &x in r {
            w.push(x * 10);
        }
    })
    .stage(3, |r, w| {
        for &x in r {
            w.push(x + 1);
        }
    })
}

#[test]
fn a_failed_checkpoint_dirsync_fails_the_run_and_the_rerun_resumes() {
    let dir = std::env::temp_dir().join(format!("mc-ckpt-dirsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fp = failpoints::global();
    fp.arm("stage-0.ckpt.dirsync", FailConfig::always(ErrorKind::Other));

    let err = pipeline().run_resumable(&dir, vec![1, 2, 3]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Other);
    assert_eq!(fp.injected("stage-0.ckpt.dirsync"), 1);

    fp.disarm("stage-0.ckpt.dirsync");
    let (out, report) = pipeline().run_resumable(&dir, vec![1, 2, 3]).unwrap();
    assert_eq!(out, vec![11, 21, 31]);
    assert!(report.resumed_from_stage.is_some(), "{report:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
