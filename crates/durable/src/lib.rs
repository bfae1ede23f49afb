//! # Crash-durable monotonic counters
//!
//! A durability layer over any [`MonotonicCounter`](mc_counter::MonotonicCounter):
//! [`DurableCounter`] makes increments and poison events durable before
//! acknowledging them, batches concurrent increments into one fsync (group
//! commit, coordinated by monotonic counters themselves), and recovers
//! value *and* poison state after a crash.
//!
//! On disk a counter's directory holds two files:
//!
//! * `wal.log`, a fixed 8 KiB file of two 4 KiB slots. Each flush round
//!   overwrites one slot in place with one CRC32 frame holding the
//!   counter's absolute value, then `fdatasync`s; the next round writes the
//!   other slot. Recovery takes the larger value that verifies.
//! * `poison`, the first poison cause, written once through a temp file,
//!   fsync, rename and directory fsync.
//!
//! The design leans on the paper's central invariant. Because a counter's
//! value only ever increases:
//!
//! * the only durable facts are the largest value written and the first
//!   poison cause, so the log keeps no history: a slot holds an
//!   **absolute** value, and a crash that tears one slot's write leaves
//!   the other slot holding the round before it, which was synced before
//!   this one began;
//! * recovering *any* durably recorded value is safe — a synchronization
//!   decision enabled before the crash can only have been enabled by a
//!   value the log had already reached or passed;
//! * in [batched mode](DurabilityMode::Batched) the flusher can read the
//!   live counter value directly: every reading of a monotone value is a
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
pub use frame::{crc32, read_frame, write_frame, FrameRead, FRAME_HEADER, MAX_FRAME_LEN};
pub use recover::{
    CounterRecovery, POISON_FILE, SITE_POISON_CREATE, SITE_POISON_DIRSYNC, SITE_POISON_FSYNC,
    SITE_POISON_RENAME, SITE_POISON_WRITE, SITE_RECOVER_READ_POISON, SITE_RECOVER_READ_WAL,
    SLOT_LEN, WAL_FILE,
};
pub use retry::RetryPolicy;
pub use wal::{
    wal_factory_from_env, ChaosWal, FailpointWal, FsWal, WalError, WalFactory, WalFile,
    CHAOS_WAL_ENV, SITE_WAL_APPEND, SITE_WAL_FSYNC, SITE_WAL_OPEN,
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

    /// The value in each of the log's slots (`None`: torn).
    fn slots(dir: &std::path::Path) -> [Option<mc_counter::Value>; 2] {
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(bytes.len(), 2 * SLOT_LEN);
        [
            frame::slot_value(&bytes[..SLOT_LEN]),
            frame::slot_value(&bytes[SLOT_LEN..]),
        ]
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
        let [a, b] = slots(&dir);
        assert_eq!(a.max(b), Some(7));
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
    fn log_keeps_its_creation_size_across_rounds_and_reopens() {
        let dir = test_dir("fixed-size");
        let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
        let created = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(created, 2 * SLOT_LEN as u64);
        for _ in 0..1000 {
            c.increment(1);
        }
        drop(c);
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(rec.value, 1000);
        for _ in 0..10 {
            c.increment(1);
        }
        assert_eq!(c.wal_stats().snapshots, 0);
        drop(c);
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            created
        );
        // The log is the directory's only file: no snapshot, no temp file.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [WAL_FILE]);
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
    fn torn_slot_recovers_the_other_and_is_overwritten_next() {
        let dir = test_dir("torn-slot");
        {
            let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
            for _ in 0..3 {
                c.increment(2);
            }
        }
        let [a, b] = slots(&dir);
        let torn = if a == Some(6) { 0 } else { 1 };
        assert_eq!(slots(&dir)[1 - torn], Some(4), "{a:?} {b:?}");
        // Cut a later round's frame inside its CRC, over the slot holding 6.
        use std::io::{Seek, SeekFrom, Write};
        let frame = frame::slot_frame(8);
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.seek(SeekFrom::Start((torn * SLOT_LEN) as u64)).unwrap();
        f.write_all(&frame[..6]).unwrap();
        drop(f);
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(rec.value, 4);
        let mut verified = [true; 2];
        verified[torn] = false;
        assert_eq!(rec.slots_verified, verified);
        c.increment(1);
        drop(c);
        // The next round overwrote the torn slot, not the verified one.
        let mut expected = [Some(4); 2];
        expected[torn] = Some(5);
        assert_eq!(slots(&dir), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_log_writes_first_to_the_slot_not_holding_its_value() {
        let dir = test_dir("reopen-slot");
        {
            let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
            for _ in 0..3 {
                c.increment(2);
            }
        }
        let before = slots(&dir);
        let held = before.iter().position(|&v| v == Some(6)).unwrap();
        let (c, rec) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!((rec.value, rec.slots_verified), (6, [true, true]));
        c.increment(1);
        drop(c);
        // A crash during that write would have left 6 intact.
        let after = slots(&dir);
        assert_eq!((after[held], after[1 - held]), (Some(6), Some(7)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
