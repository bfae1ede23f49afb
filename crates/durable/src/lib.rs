//! # Crash-durable monotonic counters
//!
//! A durability layer over any [`MonotonicCounter`](mc_counter::MonotonicCounter):
//! [`DurableCounter`] logs increments and poison events to a CRC32-framed,
//! length-prefixed append-only write-ahead log before acknowledging them,
//! batches concurrent increments into one fsync (group commit, coordinated
//! by monotonic counters themselves), periodically snapshots and truncates
//! the log, and recovers value *and* poison state after a crash —
//! truncating a torn tail at the first bad frame.
//!
//! The design leans on the paper's central invariant. Because a counter's
//! value only ever increases:
//!
//! * log records can carry **absolute** values, so replay is the running
//!   maximum over the verified prefix — idempotent by construction, immune
//!   to double-replay after a crash between snapshot and log truncation;
//! * recovering *any* durably recorded value is safe — a synchronization
//!   decision enabled before the crash can only have been enabled by a
//!   value the log had already reached or passed;
//! * in [batched mode](DurabilityMode::Batched) the flusher can read the
//!   live counter value directly: every snapshot of a monotone value is a
//!   valid durable point, so an increment costs the in-memory fast path
//!   plus one atomic load;
//! * in [strict mode](DurabilityMode::Strict) the flusher applies what it
//!   logged: it advances the in-memory counter to each fsynced absolute
//!   value before acknowledging the writers it covers, whatever order they
//!   wake in, so while healthy memory never outruns the log.
//!
//! ## Quickstart
//!
//! ```
//! use mc_durable::{DurableCounter, DurableOptions};
//! use mc_counter::{Counter, MonotonicCounter, CounterDiagnostics};
//!
//! let dir = std::env::temp_dir().join(format!("mc-doc-{}", std::process::id()));
//! let (counter, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
//! assert_eq!(recovery.value, 0); // fresh directory
//! counter.increment(3);          // fsync-durable before returning (strict mode)
//! drop(counter);
//!
//! // "Crash" and recover: the acked increments are still there.
//! let (counter, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
//! assert_eq!(recovery.value, 3);
//! assert_eq!(counter.debug_value(), 3);
//! # drop(counter);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
pub mod frame;
mod recover;
mod retry;
mod wal;

pub use counter::{DurabilityMode, DurableCounter, DurableOptions, PoisonPolicy, WalStats};
pub use frame::{
    crc32, read_frame, write_frame, FrameRead, WalRecord, FRAME_HEADER, MAX_FRAME_LEN,
};
pub use recover::{
    CounterRecovery, SITE_RECOVER_READ_SNAPSHOT, SITE_RECOVER_READ_WAL, SITE_RECOVER_TRUNCATE,
    SITE_SNAPSHOT_CREATE, SITE_SNAPSHOT_DIRSYNC, SITE_SNAPSHOT_FSYNC, SITE_SNAPSHOT_RENAME,
    SITE_SNAPSHOT_WRITE, SNAPSHOT_FILE, WAL_FILE,
};
pub use retry::RetryPolicy;
pub use wal::{
    wal_factory_from_env, ChaosWal, FailpointWal, FsWal, WalError, WalFactory, WalFile,
    CHAOS_WAL_ENV, SITE_WAL_APPEND, SITE_WAL_FSYNC, SITE_WAL_OPEN, SITE_WAL_REWIND,
    SITE_WAL_TRUNCATE,
};

/// A unique per-test scratch directory under the system temp dir (unit
/// tests only; integration tests carry their own helper).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-durable-{}-{}", tag, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_counter::{Counter, CounterDiagnostics, FailureInfo, MonotonicCounter, NaiveCounter};

    #[test]
    fn strict_increments_survive_reopen() {
        let dir = test_dir("strict-reopen");
        {
            let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
            assert_eq!(rec.value, 0);
            for _ in 0..10 {
                c.increment(2);
            }
            assert_eq!(c.debug_value(), 20);
            assert!(c.wal_stats().fsyncs > 0);
        }
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(rec.value, 20);
        assert_eq!(c.debug_value(), 20);
        c.check(20);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_mode_drains_on_drop() {
        let dir = test_dir("batched-drop");
        {
            let (c, _) = DurableCounter::<Counter>::open_with(
                &dir,
                DurableOptions {
                    mode: DurabilityMode::Batched,
                    ..DurableOptions::default()
                },
            )
            .unwrap();
            for _ in 0..1000 {
                c.increment(1);
            }
            // Clean shutdown drains the last round.
        }
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(rec.value, 1000);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_sync_is_an_explicit_durability_point() {
        let dir = test_dir("batched-sync");
        let (c, _) = DurableCounter::<Counter>::open_with(
            &dir,
            DurableOptions {
                mode: DurabilityMode::Batched,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        c.increment(7);
        c.sync().unwrap();
        // Read what a concurrent crash would recover: the synced value.
        let on_disk = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let mut value = 0;
        let mut offset = 0;
        while let FrameRead::Frame { payload, next } = read_frame(&on_disk, offset) {
            if let Some(WalRecord::Advance { value: v, .. }) = WalRecord::decode(payload) {
                value = value.max(v);
            }
            offset = next;
        }
        assert_eq!(value, 7);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_amortizes_fsyncs_across_threads() {
        let dir = test_dir("group-commit");
        let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
        let c = std::sync::Arc::new(c);
        let threads = 8;
        let per_thread = 50;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    c.increment(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.debug_value(), threads * per_thread);
        let stats = c.wal_stats();
        assert!(
            stats.fsyncs < threads * per_thread,
            "group commit must batch: {} fsyncs for {} strict increments",
            stats.fsyncs,
            threads * per_thread
        );
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_log_and_survives_reopen() {
        let dir = test_dir("snapshot");
        {
            let (c, _) = DurableCounter::<Counter>::open_with(
                &dir,
                DurableOptions {
                    mode: DurabilityMode::Strict,
                    snapshot_every: 5,
                    ..DurableOptions::default()
                },
            )
            .unwrap();
            for _ in 0..40 {
                c.increment(1);
            }
            let stats = c.wal_stats();
            assert!(stats.snapshots > 0, "snapshot_every=5 must trigger");
        }
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(rec.value, 40);
        assert_eq!(c.debug_value(), 40);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_survives_reopen_in_batched_mode() {
        let dir = test_dir("poison-reopen");
        {
            let (c, _) = DurableCounter::<Counter>::open_with(
                &dir,
                DurableOptions {
                    mode: DurabilityMode::Batched,
                    ..DurableOptions::default()
                },
            )
            .unwrap();
            c.increment(4);
            c.poison(FailureInfo::new("producer crashed").with_level(6));
            assert!(c.poison_info().is_some());
        }
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert!(rec.poison_restored);
        let info = c.poison_info().expect("poison restored");
        assert_eq!(info.message(), "producer crashed");
        assert_eq!(info.level(), Some(6));
        assert_eq!(c.debug_value(), 4);
        // Poisoned but satisfied levels still succeed; blocking waits fail.
        assert!(c.wait(4).is_ok());
        assert!(c.wait(5).is_err());
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn works_over_any_resumable_impl() {
        let dir = test_dir("naive-impl");
        {
            let (c, _) = DurableCounter::<NaiveCounter>::open(&dir).unwrap();
            c.increment(5);
            assert_eq!(c.impl_name(), "durable");
        }
        let (c, rec) = DurableCounter::<NaiveCounter>::open(&dir).unwrap();
        assert_eq!(rec.value, 5);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_discarded() {
        let dir = test_dir("torn");
        {
            let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
            c.increment(6);
        }
        // Tear the log: garbage that is not a valid frame, written right
        // after its one frame, inside the reserve.
        use std::io::{Seek, SeekFrom, Write};
        let path = dir.join(WAL_FILE);
        let log_len = WalRecord::Advance { seq: 0, value: 6 }
            .encode_framed()
            .len() as u64;
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(log_len)).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);
        let file_len = std::fs::metadata(&path).unwrap().len();
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(rec.value, 6);
        // The torn tail runs from the garbage to the end of the file.
        assert_eq!(rec.tail_bytes_discarded, file_len - log_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), log_len);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_log_appends_after_its_last_frame_not_its_reserve() {
        let dir = test_dir("reserve-reopen");
        {
            let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
            for _ in 0..3 {
                c.increment(2);
            }
        }
        let path = dir.join(WAL_FILE);
        let file_len = std::fs::metadata(&path).unwrap().len();
        {
            let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
            assert_eq!((rec.value, rec.records_replayed), (6, 3));
            assert_eq!(rec.tail_bytes_discarded, 0, "a reserve is not a torn tail");
            assert!(
                std::fs::metadata(&path).unwrap().len() < file_len,
                "recovery cuts the reserve off"
            );
            for _ in 0..4 {
                c.increment(1);
            }
        }
        // Appended after the reserve, the new frames would sit behind a
        // zero header and be discarded as a torn tail.
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!((rec.value, rec.records_replayed), (10, 7));
        assert_eq!(rec.tail_bytes_discarded, 0);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
