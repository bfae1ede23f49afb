//! Property battery for the two-slot log and its recovery: values and
//! poison causes round-trip through a reopen; any two slot images — empty,
//! a whole frame, or a frame cut at any byte — recover the larger value
//! that verifies, the same way twice; a flipped byte never panics or
//! inflates the value; and an older layout is a typed error, never 0.

use mc_counter::{Counter, CounterDiagnostics, FailureInfo, MonotonicCounter};
use mc_durable::{write_frame, CounterRecovery, DurableCounter, WalError, SLOT_LEN, WAL_FILE};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
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

/// A slot's frame: the value as 8 little-endian payload bytes.
fn frame(value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &value.to_le_bytes());
    out
}

/// What one slot of a crashed log can hold.
#[derive(Debug, Clone)]
enum Slot {
    /// Never written: zeros.
    Empty,
    /// A whole frame.
    Whole(u64),
    /// The first `.1` bytes of a frame, over zeros.
    Cut(u64, usize),
}

impl Slot {
    fn bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; SLOT_LEN];
        let (value, len) = match *self {
            Slot::Empty => return out,
            Slot::Whole(v) => (v, frame(v).len()),
            Slot::Cut(v, len) => (v, len),
        };
        out[..len].copy_from_slice(&frame(value)[..len]);
        out
    }

    /// The value the slot verifies as: 0 when empty, the frame's value when
    /// its bytes are the whole frame's (a cut in the value's zero high
    /// bytes leaves the whole frame), else none.
    fn verified(&self) -> Option<u64> {
        match *self {
            Slot::Empty => Some(0),
            Slot::Whole(v) | Slot::Cut(v, _) => {
                (self.bytes() == Slot::Whole(v).bytes()).then_some(v)
            }
        }
    }
}

fn slot_strategy() -> impl Strategy<Value = Slot> {
    // A cut is a strict prefix of the 16-byte frame. Small values have zero
    // high bytes, where a cut leaves the whole frame.
    let cut = |x: u64| Slot::Cut(x / 16, 1 + (x % 15) as usize);
    prop_oneof![
        Just(Slot::Empty),
        (0u64..u64::MAX).prop_map(Slot::Whole),
        (0u64..u64::MAX).prop_map(cut),
        (0u64..4096).prop_map(cut),
    ]
}

fn write_log(dir: &Path, slots: [&[u8]; 2]) {
    std::fs::write(dir.join(WAL_FILE), slots.concat()).unwrap();
}

fn recover(dir: &Path) -> Result<CounterRecovery, WalError> {
    let (counter, recovery) = DurableCounter::<Counter>::open(dir)?;
    assert_eq!(counter.debug_value(), recovery.value);
    drop(counter);
    Ok(recovery)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of strict increments, and a poison cause, read back
    /// exactly after a reopen: the slot and poison codecs round-trip.
    fn values_and_causes_round_trip_through_reopen(
        amounts in vec(1u64..1_000, 0..12),
        poisoned in any::<bool>(),
        word in 0u64..1_000,
    ) {
        let dir = case_dir("round-trip");
        let cause = FailureInfo::new(format!("failure #{word}"))
            .with_thread(format!("worker-{}", word % 7));
        let cause = if word % 3 == 0 { cause.with_level(word) } else { cause };
        {
            let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
            for &a in &amounts {
                c.increment(a);
            }
            if poisoned {
                c.poison(cause.clone());
            }
        }
        let (c, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
        prop_assert_eq!(recovery.value, amounts.iter().sum::<u64>());
        prop_assert_eq!(recovery.poison_restored, poisoned);
        prop_assert_eq!(c.poison_info(), poisoned.then_some(cause));
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Any two slot images recover the larger value that verifies, report
    /// which slots verified, and recover the same way twice; two slots that
    /// both fail are a typed error, never 0.
    fn two_slots_recover_the_larger_verified_value(
        a in slot_strategy(),
        b in slot_strategy(),
    ) {
        let dir = case_dir("slots");
        write_log(&dir, [&a.bytes(), &b.bytes()]);
        let expected = a.verified().max(b.verified());
        let first = recover(&dir);
        match &first {
            Ok(recovery) => {
                prop_assert_eq!(Some(recovery.value), expected);
                prop_assert_eq!(
                    recovery.slots_verified,
                    [a.verified().is_some(), b.verified().is_some()]
                );
            }
            Err(WalError::Corrupt(_)) => prop_assert_eq!(expected, None),
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
        let again = recover(&dir);
        prop_assert_eq!(format!("{again:?}"), format!("{first:?}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping ANY single byte of a log whose slots hold two values never
    /// panics, never errors, and never inflates: a flip inside a frame
    /// fails that slot's CRC and the other slot's value is recovered; a
    /// flip past both frames changes nothing.
    fn single_byte_corruption_never_inflates(
        old in 0u64..u64::MAX,
        new in 0u64..u64::MAX,
        pos in 0usize..2 * SLOT_LEN,
        flip in 1u8..=255,
    ) {
        let (old, new) = (old.min(new), old.max(new));
        let mut log = [Slot::Whole(new).bytes(), Slot::Whole(old).bytes()].concat();
        log[pos] ^= flip;
        let dir = case_dir("flip");
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        let recovery = recover(&dir).expect("one flipped byte leaves a slot that verifies");
        let expected = match (pos / SLOT_LEN, pos % SLOT_LEN < frame(0).len()) {
            (0, true) => old,
            _ => new,
        };
        prop_assert_eq!(recovery.value, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A directory in the older append-log layout, a log of any other length,
/// or a damaged poison file must open as `WalError::Corrupt`, not as a
/// silent 0 and not as a panic.
#[test]
fn older_layouts_and_damaged_files_yield_typed_errors() {
    let fresh_log = vec![0u8; 2 * SLOT_LEN];
    // (the log's bytes, or none; another file's name, or none; its bytes)
    let cases: [(&[u8], &str, &[u8]); 5] = [
        (&frame(3), "", b""),
        (&[0u8; 2 * SLOT_LEN + 1], "", b""),
        (&fresh_log, "snapshot", b"not a snapshot"),
        (&fresh_log, mc_durable::POISON_FILE, b"not a cause"),
        (b"", "snapshot", b"not a snapshot"),
    ];
    for (log, other, other_bytes) in cases {
        let dir = case_dir("typed");
        if !log.is_empty() {
            std::fs::write(dir.join(WAL_FILE), log).unwrap();
        }
        if !other.is_empty() {
            std::fs::write(dir.join(other), other_bytes).unwrap();
        }
        match DurableCounter::<Counter>::open(&dir) {
            Err(WalError::Corrupt(_)) => {}
            Ok(_) => panic!("{} log bytes + {other:?} must not open", log.len()),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
        }
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).ok().as_deref(),
            (!log.is_empty()).then_some(log),
            "a directory that does not open is left as it was"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
