//! The on-disk layout and its recovery: the two-slot log, the poison file,
//! the durable-write helper that creates them, and `recover_dir`, which
//! reads value and poison state back.

use crate::frame::{decode_poison_frame, slot_value};
use crate::wal::WalError;
use mc_chaos::Failpoints;
use mc_counter::{FailureInfo, Value};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

/// File name of the log inside a durable counter's directory: two slots of
/// [`SLOT_LEN`] bytes, each holding one frame.
pub const WAL_FILE: &str = "wal.log";
/// Bytes in one log slot. A slot starts on a 4 KiB boundary, so a slot
/// write never shares a page or a sector with the other slot.
pub const SLOT_LEN: usize = 4096;
/// Bytes in the log: two slots. The log is created at this size and never
/// changes it.
pub(crate) const WAL_LEN: usize = 2 * SLOT_LEN;
/// File name of the poison cause inside a durable counter's directory,
/// written once, when the counter is first poisoned.
pub const POISON_FILE: &str = "poison";

/// Failpoint site hit before creating the poison file's temp file.
pub const SITE_POISON_CREATE: &str = "poison.create";
/// Failpoint site hit before writing the poison file's bytes.
pub const SITE_POISON_WRITE: &str = "poison.write";
/// Failpoint site hit before fsyncing the poison file's temp file.
pub const SITE_POISON_FSYNC: &str = "poison.fsync";
/// Failpoint site hit before the atomic rename into place.
pub const SITE_POISON_RENAME: &str = "poison.rename";
/// Failpoint site hit before the directory fsync sealing the rename.
pub const SITE_POISON_DIRSYNC: &str = "poison.dirsync";
/// Failpoint site hit before reading the poison file during recovery.
pub const SITE_RECOVER_READ_POISON: &str = "recover.read.poison";
/// Failpoint site hit before reading the log during recovery.
pub const SITE_RECOVER_READ_WAL: &str = "recover.read.wal";

/// The outcome of recovering one durable counter from its on-disk state,
/// returned by [`DurableCounter::open`](crate::DurableCounter::open) and
/// its variants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRecovery {
    /// The value the counter was restored to: the larger value of the
    /// log's two slots.
    pub value: Value,
    /// Which of the log's two slots verified. A slot that was never written
    /// verifies (as 0); a slot a crash tore mid-write does not, and the
    /// other slot then holds the round before it.
    pub slots_verified: [bool; 2],
    /// Whether a persisted poison state was restored.
    pub poison_restored: bool,
}

/// The state recovered from a durable counter's directory.
#[derive(Debug)]
pub(crate) struct RecoveredState {
    /// The larger of the slots' values.
    pub value: Value,
    /// Each slot's value, `None` for a slot that does not verify.
    pub slots: [Option<Value>; 2],
    /// The restored poison cause, if the counter was poisoned before the
    /// crash.
    pub poison: Option<FailureInfo>,
}

impl RecoveredState {
    /// The slot the reopened log writes first: the one that does not hold
    /// `value`, so the recovered value survives a crash during that write.
    pub fn next_slot(&self) -> usize {
        usize::from(self.slots[1] <= self.slots[0])
    }
}

/// Writes `bytes` to `dir/name` so that a crash leaves either no file or
/// the whole file under that name: a temp file, fsync, atomic rename,
/// directory fsync. Failpoint site `<name>.<step>` is hit before each step.
/// `Ok` means the file and its name are durable.
pub fn write_durably(dir: &Path, name: &str, bytes: &[u8], fp: &Failpoints) -> io::Result<()> {
    let site = |step: &str| fp.hit(&format!("{name}.{step}"));
    let tmp = dir.join(format!("{name}.tmp"));
    site("create")?;
    let mut f = File::create(&tmp)?;
    site("write")?;
    f.write_all(bytes)?;
    site("fsync")?;
    f.sync_all()?;
    site("rename")?;
    fs::rename(&tmp, dir.join(name))?;
    site("dirsync")?;
    File::open(dir)?.sync_all()
}

/// Recovers a durable counter's directory: reads the poison file, if any,
/// and both log slots, and takes the larger value that verifies. A fresh
/// directory gets its log here, [`WAL_LEN`] written zeros (not a hole, whose
/// first write would allocate a block), through [`write_durably`].
///
/// A slot is only ever overwritten after the other slot's write was
/// fsynced, so a crash tears at most one slot and the other holds the round
/// before. The log is fsynced once after it is read: a killed process can
/// leave a slot write in the page cache that never reached the disk, and
/// the reopened log must not overwrite the other slot before the value it
/// recovered is durable.
///
/// Two slots that both fail to verify, a damaged poison file, a log of any
/// other length, or a `snapshot` file (the append-log layout this one
/// replaced) are [`WalError::Corrupt`]: restarting from 0 would lose
/// acknowledged values.
pub(crate) fn recover_dir(dir: &Path, fp: &Failpoints) -> Result<RecoveredState, WalError> {
    const OLD_LAYOUT: &str = "the older append-log layout, which this version does not read";
    let corrupt = |why: String| WalError::Corrupt(format!("{}: {why}", dir.display()));
    fs::create_dir_all(dir)?;
    if dir.join("snapshot").exists() {
        return Err(corrupt(format!("a `snapshot` file is from {OLD_LAYOUT}")));
    }

    fp.hit(SITE_RECOVER_READ_POISON)?;
    let poison = match fs::read(dir.join(POISON_FILE)) {
        Ok(bytes) => Some(
            decode_poison_frame(&bytes)
                .ok_or_else(|| corrupt(format!("{POISON_FILE} does not verify")))?,
        ),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };

    fp.hit(SITE_RECOVER_READ_WAL)?;
    let mut bytes = Vec::with_capacity(WAL_LEN);
    match File::open(dir.join(WAL_FILE)) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
            f.sync_data()?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            bytes.resize(WAL_LEN, 0);
            write_durably(dir, WAL_FILE, &bytes, fp)?;
        }
        Err(e) => return Err(e.into()),
    }
    if bytes.len() != WAL_LEN {
        return Err(corrupt(format!(
            "{WAL_FILE} is {} bytes, not {WAL_LEN}: {OLD_LAYOUT}",
            bytes.len()
        )));
    }
    let slots = [
        slot_value(&bytes[..SLOT_LEN]),
        slot_value(&bytes[SLOT_LEN..]),
    ];
    let value = slots[0]
        .max(slots[1])
        .ok_or_else(|| corrupt(format!("neither slot of {WAL_FILE} verifies")))?;
    Ok(RecoveredState {
        value,
        slots,
        poison,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{poison_frame, slot_frame};

    /// Failpoints with nothing armed — recovery behaves as in production.
    fn fp() -> Failpoints {
        Failpoints::new(0)
    }

    /// Writes a log whose slots hold `slots` (`None`: never written).
    fn write_log(dir: &Path, slots: [Option<&[u8]>; 2]) {
        let mut bytes = vec![0u8; WAL_LEN];
        for (i, frame) in slots.into_iter().enumerate() {
            if let Some(frame) = frame {
                bytes[i * SLOT_LEN..][..frame.len()].copy_from_slice(frame);
            }
        }
        fs::write(dir.join(WAL_FILE), bytes).unwrap();
    }

    #[test]
    fn poison_failpoints_surface_and_leave_no_torn_file() {
        use mc_chaos::FailConfig;
        let dir = crate::test_dir("recover-poison-fp");
        let fp = fp();
        let info = FailureInfo::new("first");
        // Every site, injected one at a time, must fail the write, and
        // recovery must then read no file or the whole one.
        for site in [
            SITE_POISON_CREATE,
            SITE_POISON_WRITE,
            SITE_POISON_FSYNC,
            SITE_POISON_RENAME,
            SITE_POISON_DIRSYNC,
        ] {
            fp.arm(
                site,
                FailConfig::always(io::ErrorKind::StorageFull).oneshot(),
            );
            let err = write_durably(&dir, POISON_FILE, &poison_frame(&info), &fp).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{site}");
            let state = recover_dir(&dir, &fp).unwrap();
            // The dirsync fires after the rename lands, so the file is in
            // place from that site on; earlier sites leave none.
            assert_eq!(
                state.poison.is_some(),
                site == SITE_POISON_DIRSYNC,
                "{site}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_recovers_to_zero_in_a_fresh_log() {
        let dir = crate::test_dir("recover-empty");
        let state = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(state.value, 0);
        assert_eq!(state.slots, [Some(0), Some(0)]);
        assert!(state.poison.is_none());
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), vec![0u8; WAL_LEN]);
        assert!(!dir.join("wal.log.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_larger_verified_slot_wins_and_the_other_is_written_next() {
        let dir = crate::test_dir("recover-slots");
        let (old, new) = (slot_frame(7), slot_frame(12));
        // Cut inside the CRC: a cut in the payload's zero high bytes would
        // leave the whole frame.
        let torn = &new[..6];
        for (slots, value, next) in [
            ([Some(&old[..]), Some(&new[..])], 12, 0),
            ([Some(&new[..]), Some(&old[..])], 12, 1),
            ([Some(&old[..]), Some(torn)], 7, 1),
            ([Some(torn), Some(&old[..])], 7, 0),
            ([Some(torn), None], 0, 0),
        ] {
            write_log(&dir, slots);
            let state = recover_dir(&dir, &fp()).unwrap();
            assert_eq!((state.value, state.next_slot()), (value, next), "{slots:?}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_torn_slots_are_a_typed_error() {
        let dir = crate::test_dir("recover-two-torn");
        let frame = slot_frame(12);
        write_log(&dir, [Some(&frame[..5]), Some(&frame[..7])]);
        match recover_dir(&dir, &fp()) {
            Err(WalError::Corrupt(why)) => assert!(why.contains("neither slot"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_round_trips_through_its_file() {
        let dir = crate::test_dir("recover-poison");
        let info = FailureInfo::new("producer died")
            .with_thread("worker-7")
            .with_level(9);
        write_durably(&dir, POISON_FILE, &poison_frame(&info), &fp()).unwrap();
        let restored = recover_dir(&dir, &fp()).unwrap().poison;
        assert_eq!(restored, Some(info));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_poison_file_is_a_typed_error() {
        let dir = crate::test_dir("recover-corrupt-poison");
        // Garbage, and a whole poison frame with a byte cut off.
        let info = FailureInfo::new("x");
        let cut = poison_frame(&info)[..10].to_vec();
        for bytes in [b"garbage".to_vec(), cut] {
            fs::write(dir.join(POISON_FILE), bytes).unwrap();
            match recover_dir(&dir, &fp()) {
                Err(WalError::Corrupt(_)) => {}
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slot_and_poison_bytes_keep_their_format() {
        // Pinned bytes: logs and poison files already on disk must stay
        // readable, whatever the codec's code looks like.
        let with_level = FailureInfo::new("producer died")
            .with_thread("worker-3")
            .with_level(42);
        let without_level = FailureInfo::new("stuck").with_thread("main");
        for (bytes, pinned) in [
            (slot_frame(40), "080000008aa6b14f2800000000000000"),
            (poison_frame(&with_level), "26000000e294abf5012a0000000000000008000000776f726b65722d330d00000070726f64756365722064696564"),
            (poison_frame(&without_level), "120000002f2cbedc00040000006d61696e05000000737475636b"),
        ] {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned);
        }
    }
}
