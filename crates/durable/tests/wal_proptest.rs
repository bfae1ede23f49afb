//! Property battery for the WAL frame codec and recovery: arbitrary record
//! sequences round-trip exactly; a zero reserve after the log changes
//! nothing; arbitrary truncation and arbitrary single-byte corruption
//! recover a verified prefix (or a typed error for the snapshot), and
//! **never** panic or inflate the value.

use mc_counter::{Counter, CounterDiagnostics};
use mc_durable::{read_frame, DurableCounter, FrameRead, WalRecord, WAL_FILE};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh scratch directory per case (proptest reruns each property many
/// times in one process).
fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mc-wal-prop-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create case dir");
    dir
}

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (0u64..1000).prop_map(|x| WalRecord::Advance {
            seq: x,
            value: x.wrapping_mul(31) % 5000,
        }),
        (0u64..1000).prop_map(|x| WalRecord::Poison {
            seq: x,
            thread: format!("worker-{}", x % 7),
            message: format!("failure #{x}"),
            level: if x % 3 == 0 { Some(x) } else { None },
        }),
    ]
}

/// The log bytes for a record sequence, plus the max value any `Advance`
/// carries (the inflation bound for every assertion below).
fn build_log(records: &[WalRecord]) -> (Vec<u8>, u64) {
    let mut bytes = Vec::new();
    let mut max_value = 0;
    for r in records {
        bytes.extend_from_slice(&r.encode_framed());
        if let WalRecord::Advance { value, .. } = r {
            max_value = max_value.max(*value);
        }
    }
    (bytes, max_value)
}

/// Decodes every verified frame from `bytes` (what recovery replays).
fn verified_records(bytes: &[u8]) -> Vec<WalRecord> {
    let mut out = Vec::new();
    let mut offset = 0;
    while let FrameRead::Frame { payload, next } = read_frame(bytes, offset) {
        let Some(record) = WalRecord::decode(payload) else {
            break;
        };
        out.push(record);
        offset = next;
    }
    out
}

fn recover(dir: &PathBuf) -> mc_durable::CounterRecovery {
    let (counter, recovery) =
        DurableCounter::<Counter>::open(dir).expect("recovery must not error on log damage");
    assert_eq!(counter.debug_value(), recovery.value);
    drop(counter);
    recovery
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode round-trips every record sequence exactly.
    fn round_trip_exact(records in vec(record_strategy(), 0..40)) {
        let (bytes, _) = build_log(&records);
        prop_assert_eq!(verified_records(&bytes), records);
    }

    /// An intact log recovers to exactly the max advance value, with every
    /// record replayed and nothing discarded.
    fn intact_log_recovers_fully(records in vec(record_strategy(), 0..40)) {
        let (bytes, max_value) = build_log(&records);
        let dir = case_dir("intact");
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let recovery = recover(&dir);
        prop_assert_eq!(recovery.value, max_value);
        prop_assert_eq!(recovery.records_replayed, records.len() as u64);
        prop_assert_eq!(recovery.tail_bytes_discarded, 0);
        let any_poison = records.iter().any(|r| matches!(r, WalRecord::Poison { .. }));
        prop_assert_eq!(recovery.poison_restored, any_poison);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log followed by a zero reserve of any length that holds a frame
    /// header (what `FsWal` leaves past its log) recovers exactly what the
    /// log alone recovers, discards nothing, and is cut back to the log.
    fn zero_reserve_recovers_as_the_bare_log(
        records in vec(record_strategy(), 0..40),
        reserve in 8usize..70_000,
    ) {
        let (bytes, _) = build_log(&records);
        let bare_dir = case_dir("bare");
        std::fs::write(bare_dir.join(WAL_FILE), &bytes).unwrap();
        let bare = recover(&bare_dir);
        let dir = case_dir("reserve");
        let mut reserved = bytes.clone();
        reserved.resize(bytes.len() + reserve, 0);
        std::fs::write(dir.join(WAL_FILE), &reserved).unwrap();
        let recovery = recover(&dir);
        prop_assert_eq!(&recovery, &bare);
        prop_assert_eq!(recovery.tail_bytes_discarded, 0);
        prop_assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), bytes);
        std::fs::remove_dir_all(&bare_dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating the log at ANY byte offset recovers the verified prefix:
    /// never a panic, never an error, never a value above the intact max —
    /// and exactly the max of the frames that survived whole.
    fn arbitrary_truncation_recovers_verified_prefix(
        records in vec(record_strategy(), 1..30),
        cut_frac in 0u64..10_000,
    ) {
        let (bytes, max_value) = build_log(&records);
        let cut = (bytes.len() as u64 * cut_frac / 10_000) as usize;
        let torn = &bytes[..cut];
        let expected = verified_records(torn);
        let expected_value = expected
            .iter()
            .filter_map(|r| match r {
                WalRecord::Advance { value, .. } => Some(*value),
                WalRecord::Poison { .. } => None,
            })
            .max()
            .unwrap_or(0);

        let dir = case_dir("trunc");
        std::fs::write(dir.join(WAL_FILE), torn).unwrap();
        let recovery = recover(&dir);
        prop_assert_eq!(recovery.value, expected_value);
        prop_assert!(recovery.value <= max_value, "truncation inflated the value");
        prop_assert_eq!(recovery.records_replayed, expected.len() as u64);
        prop_assert_eq!(
            recovery.tail_bytes_discarded as usize,
            torn.len()
                - expected
                    .iter()
                    .map(|r| r.encode_framed().len())
                    .sum::<usize>()
        );
        // Recovery physically truncated the tail: a second recovery is clean
        // and agrees (monotone across recover cycles).
        let again = recover(&dir);
        prop_assert_eq!(again.value, expected_value);
        prop_assert_eq!(again.tail_bytes_discarded, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping ANY single byte of the log never panics, never errors, and
    /// never recovers a value above the intact max (no inflation) — the
    /// CRC stops the damaged frame and recovery keeps the prefix before it.
    fn single_byte_corruption_never_inflates(
        records in vec(record_strategy(), 1..30),
        pos_frac in 0u64..10_000,
        flip in 1u8..=255,
    ) {
        let (mut bytes, max_value) = build_log(&records);
        let pos = (bytes.len() as u64 * pos_frac / 10_000) as usize % bytes.len();
        bytes[pos] ^= flip;
        let expected = verified_records(&bytes);
        let expected_value = expected
            .iter()
            .filter_map(|r| match r {
                WalRecord::Advance { value, .. } => Some(*value),
                WalRecord::Poison { .. } => None,
            })
            .max()
            .unwrap_or(0);

        let dir = case_dir("flip");
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let recovery = recover(&dir);
        prop_assert_eq!(recovery.value, expected_value);
        prop_assert!(
            recovery.value <= max_value,
            "single-byte corruption inflated the value: {} > {}",
            recovery.value,
            max_value
        );
        prop_assert!(recovery.records_replayed <= records.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Corrupting the snapshot — unlike the log — must produce the typed
/// `WalError::CorruptSnapshot`, not a panic and not silent data loss.
#[test]
fn corrupt_snapshot_yields_typed_error() {
    use mc_durable::{WalError, SNAPSHOT_FILE};
    let dir = case_dir("snap");
    std::fs::write(dir.join(SNAPSHOT_FILE), b"not a snapshot").unwrap();
    match DurableCounter::<Counter>::open(&dir) {
        Err(WalError::CorruptSnapshot(_)) => {}
        Ok(_) => panic!("corrupt snapshot must not open"),
        Err(other) => panic!("expected CorruptSnapshot, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
