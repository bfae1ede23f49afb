//! Snapshot encoding and directory recovery: replay the verified log
//! prefix over the snapshot baseline, truncate the torn tail, restore
//! value and poison state.

use crate::frame::{
    decode_poison, encode_poison, read_frame, write_frame, FrameRead, WalRecord, FRAME_HEADER,
};
use crate::wal::WalError;
use mc_chaos::Failpoints;
use mc_counter::{FailureInfo, Value};
use std::fs;
use std::io::Write;
use std::path::Path;

/// File name of the append-only log inside a durable counter's directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a durable counter's directory.
pub const SNAPSHOT_FILE: &str = "snapshot";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const SNAPSHOT_MAGIC: &[u8; 4] = b"MCSN";

/// Failpoint site hit before creating the snapshot temp file.
pub const SITE_SNAPSHOT_CREATE: &str = "snapshot.create";
/// Failpoint site hit before writing the snapshot payload.
pub const SITE_SNAPSHOT_WRITE: &str = "snapshot.write";
/// Failpoint site hit before fsyncing the snapshot temp file.
pub const SITE_SNAPSHOT_FSYNC: &str = "snapshot.fsync";
/// Failpoint site hit before the atomic rename into place.
pub const SITE_SNAPSHOT_RENAME: &str = "snapshot.rename";
/// Failpoint site hit before the directory fsync sealing the rename.
pub const SITE_SNAPSHOT_DIRSYNC: &str = "snapshot.dirsync";
/// Failpoint site hit before reading the snapshot during recovery.
pub const SITE_RECOVER_READ_SNAPSHOT: &str = "recover.read.snapshot";
/// Failpoint site hit before reading the log during recovery.
pub const SITE_RECOVER_READ_WAL: &str = "recover.read.wal";
/// Failpoint site hit before physically truncating a torn log tail.
pub const SITE_RECOVER_TRUNCATE: &str = "recover.truncate";

/// The outcome of recovering one durable counter from its on-disk state,
/// returned by [`DurableCounter::open`](crate::DurableCounter::open) and
/// its variants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRecovery {
    /// The value the counter was restored to.
    pub value: Value,
    /// How many intact log records were replayed (on top of any snapshot).
    pub records_replayed: u64,
    /// Bytes discarded from a torn log tail: everything from the first
    /// frame that does not verify to the end of the file. Zero for a clean
    /// shutdown, and for a log that ends in [`FsWal`](crate::FsWal)'s
    /// reserve of zeros, which recovery cuts off but does not count.
    pub tail_bytes_discarded: u64,
    /// Whether a persisted poison state was restored.
    pub poison_restored: bool,
}

/// The state recovered from a durable counter's directory.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecoveredState {
    /// The recovered counter value (max over snapshot and verified log).
    pub value: Value,
    /// The sequence number the next log record must use.
    pub next_seq: u64,
    /// The restored poison cause, if the counter was poisoned before the
    /// crash (first poison wins, exactly as in-process).
    pub poison: Option<FailureInfo>,
    /// Intact log records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Torn-tail bytes discarded (and physically truncated) from the log.
    pub tail_bytes_discarded: u64,
    /// Byte length of the verified log after recovery (the truncation
    /// point). Seeds the flusher's synced-length watermark, which the
    /// append-retry path rewinds to before re-appending.
    pub log_len: u64,
}

/// The persisted poison fields of a snapshot or a replayed record.
fn poison_from_parts(thread: &str, message: &str, level: Option<Value>) -> FailureInfo {
    let info = FailureInfo::new(message).with_thread(thread);
    match level {
        Some(l) => info.with_level(l),
        None => info,
    }
}

/// Snapshot payload: magic, last covered sequence number, value, optional
/// poison (a presence tag, then the poison record's fields).
pub(crate) fn encode_snapshot(seq: u64, value: Value, poison: Option<&FailureInfo>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(SNAPSHOT_MAGIC);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&value.to_le_bytes());
    match poison {
        None => payload.push(0),
        Some(info) => {
            payload.push(1);
            encode_poison(&mut payload, info.thread(), info.message(), info.level());
        }
    }
    let mut framed = Vec::with_capacity(payload.len() + crate::frame::FRAME_HEADER);
    write_frame(&mut framed, &payload);
    framed
}

fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Value, Option<FailureInfo>), WalError> {
    let corrupt = |why: &str| WalError::CorruptSnapshot(why.to_string());
    let FrameRead::Frame { payload, next } = read_frame(bytes, 0) else {
        return Err(corrupt("unreadable frame"));
    };
    if next != bytes.len() {
        return Err(corrupt("trailing bytes after snapshot frame"));
    }
    let Some(body) = payload.strip_prefix(SNAPSHOT_MAGIC.as_slice()) else {
        return Err(corrupt("bad magic"));
    };
    let short = || corrupt("short");
    let (seq, rest) = body.split_first_chunk::<8>().ok_or_else(short)?;
    let (value, rest) = rest.split_first_chunk::<8>().ok_or_else(short)?;
    let poison = match rest {
        [0] => None,
        [1, fields @ ..] => {
            let (thread, message, level) =
                decode_poison(fields).ok_or_else(|| corrupt("bad poison fields"))?;
            Some(poison_from_parts(thread, message, level))
        }
        _ => return Err(corrupt("bad poison tag")),
    };
    Ok((u64::from_le_bytes(*seq), u64::from_le_bytes(*value), poison))
}

/// Durably writes a snapshot: temp file, fsync, atomic rename, directory
/// fsync. A crash at any point leaves either the old or the new snapshot
/// intact, never a torn one.
pub(crate) fn write_snapshot(
    dir: &Path,
    seq: u64,
    value: Value,
    poison: Option<&FailureInfo>,
    fp: &Failpoints,
) -> std::io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let framed = encode_snapshot(seq, value, poison);
    {
        fp.hit(SITE_SNAPSHOT_CREATE)?;
        let mut f = fs::File::create(&tmp)?;
        fp.hit(SITE_SNAPSHOT_WRITE)?;
        f.write_all(&framed)?;
        fp.hit(SITE_SNAPSHOT_FSYNC)?;
        f.sync_all()?;
    }
    fp.hit(SITE_SNAPSHOT_RENAME)?;
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    // Make the rename itself durable. The injectable site fails hard (a
    // chaos schedule must be able to observe a dirsync fault), but the real
    // directory fsync can be unsupported on exotic filesystems; the rename
    // is still atomic there, so the genuine syscall degrades gracefully.
    fp.hit(SITE_SNAPSHOT_DIRSYNC)?;
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Recovers a durable counter's directory: loads the snapshot (if any),
/// replays every verified log record, cuts the file back to the last of
/// them, and returns the reconstructed state.
///
/// Replay is the running **maximum** over absolute-value records, so it is
/// idempotent: records covered by both the snapshot and the log (a crash
/// between snapshot rename and log truncation) cannot inflate the value.
///
/// The log ends at the first frame that does not verify and decode. What
/// follows is either [`FsWal`](crate::FsWal)'s reserve or a torn tail. A
/// zero frame header where a record is due, with zeros to the end of the
/// file, is the reserve: no record encodes to an empty payload, so a WAL
/// frame header is never zero. It is cut off without an fsync (a crash
/// before the next sync leaves a reserve, which recovers the same way) and
/// not counted as discarded. Any other tail is torn: it is counted in
/// `tail_bytes_discarded`, truncated and fsynced. The rule lives here, not
/// in [`read_frame`]: a checkpoint file's frames may carry an empty item,
/// whose frame header is zero.
pub(crate) fn recover_dir(dir: &Path, fp: &Failpoints) -> Result<RecoveredState, WalError> {
    fs::create_dir_all(dir)?;
    // A leftover temp snapshot is an aborted snapshot write: discard.
    let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));

    let mut state = RecoveredState::default();
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    fp.hit(SITE_RECOVER_READ_SNAPSHOT)?;
    match fs::read(&snapshot_path) {
        Ok(bytes) => {
            let (seq, value, poison) = decode_snapshot(&bytes)?;
            state.value = value;
            state.next_seq = seq + 1;
            state.poison = poison;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }

    let wal_path = dir.join(WAL_FILE);
    fp.hit(SITE_RECOVER_READ_WAL)?;
    let bytes = match fs::read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(state),
        Err(e) => return Err(e.into()),
    };
    let mut offset = 0usize;
    loop {
        match read_frame(&bytes, offset) {
            FrameRead::End => break,
            FrameRead::Corrupt => break,
            FrameRead::Frame { payload, next } => {
                // A CRC-verified frame with an undecodable payload is treated
                // exactly like a corrupt frame: the verified prefix ends here.
                let Some(record) = WalRecord::decode(payload) else {
                    break;
                };
                match record {
                    WalRecord::Advance { seq, value } => {
                        state.value = state.value.max(value);
                        state.next_seq = state.next_seq.max(seq + 1);
                    }
                    WalRecord::Poison {
                        seq,
                        thread,
                        message,
                        level,
                    } => {
                        if state.poison.is_none() {
                            state.poison = Some(poison_from_parts(&thread, &message, level));
                        }
                        state.next_seq = state.next_seq.max(seq + 1);
                    }
                }
                state.records_replayed += 1;
                offset = next;
            }
        }
    }
    state.log_len = offset as u64;
    let tail = &bytes[offset..];
    if tail.len() >= FRAME_HEADER && tail.iter().all(|&b| b == 0) {
        // The reserve: cut it so the log ends where the file does, which is
        // where the reopened log appends.
        let f = fs::OpenOptions::new().write(true).open(&wal_path)?;
        f.set_len(state.log_len)?;
    } else if !tail.is_empty() {
        // Physically truncate the torn tail so the next appended frame
        // starts at a verified boundary.
        state.tail_bytes_discarded = tail.len() as u64;
        fp.hit(SITE_RECOVER_TRUNCATE)?;
        let f = fs::OpenOptions::new().write(true).open(&wal_path)?;
        f.set_len(state.log_len)?;
        f.sync_all()?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoints with nothing armed — recovery behaves as in production.
    fn fp() -> Failpoints {
        Failpoints::new(0)
    }

    #[test]
    fn snapshot_failpoints_surface_and_leave_old_snapshot_intact() {
        use mc_chaos::FailConfig;
        let dir = crate::test_dir("recover-snap-fp");
        fs::create_dir_all(&dir).unwrap();
        let fp = fp();
        write_snapshot(&dir, 1, 10, None, &fp).unwrap();

        // Every snapshot site, injected one at a time, must fail the write
        // while leaving the previous snapshot readable (crash atomicity).
        for site in [
            SITE_SNAPSHOT_CREATE,
            SITE_SNAPSHOT_WRITE,
            SITE_SNAPSHOT_FSYNC,
            SITE_SNAPSHOT_RENAME,
            SITE_SNAPSHOT_DIRSYNC,
        ] {
            fp.arm(
                site,
                FailConfig::always(std::io::ErrorKind::StorageFull).oneshot(),
            );
            let err = write_snapshot(&dir, 2, 20, None, &fp).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "{site}");
            let state = recover_dir(&dir, &fp).unwrap();
            // dirsync fires after the rename lands, so the new value is
            // durable from that site onward; earlier sites keep the old one.
            assert!(
                state.value == 10 || site == SITE_SNAPSHOT_DIRSYNC,
                "{site}: recovered {}",
                state.value
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_recovers_to_zero() {
        let dir = crate::test_dir("recover-empty");
        let state = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(state.value, 0);
        assert_eq!(state.next_seq, 0);
        assert!(state.poison.is_none());
        assert_eq!(state.records_replayed, 0);
        assert_eq!(state.tail_bytes_discarded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_replay_is_running_max_and_truncates_torn_tail() {
        let dir = crate::test_dir("recover-replay");
        fs::create_dir_all(&dir).unwrap();
        let mut log = Vec::new();
        for (seq, value) in [(0u64, 3u64), (1, 7), (2, 7), (3, 12)] {
            log.extend_from_slice(&WalRecord::Advance { seq, value }.encode_framed());
        }
        let clean_len = log.len();
        // Torn tail: half a frame.
        let torn = &WalRecord::Advance { seq: 4, value: 99 }.encode_framed();
        log.extend_from_slice(&torn[..torn.len() / 2]);
        fs::write(dir.join(WAL_FILE), &log).unwrap();

        let state = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(state.value, 12, "torn record must not contribute");
        assert_eq!(state.next_seq, 4);
        assert_eq!(state.records_replayed, 4);
        assert_eq!(state.tail_bytes_discarded as usize, log.len() - clean_len);
        // The tail is physically gone: recovering again is clean.
        let again = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(again.tail_bytes_discarded, 0);
        assert_eq!(again.value, 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Three intact `Advance` frames, replaying to 12.
    fn three_frames() -> Vec<u8> {
        [(0u64, 3u64), (1, 7), (2, 12)]
            .into_iter()
            .flat_map(|(seq, value)| WalRecord::Advance { seq, value }.encode_framed())
            .collect()
    }

    #[test]
    fn reserve_after_the_log_is_cut_off_and_not_counted_as_torn() {
        let dir = crate::test_dir("recover-reserve");
        let log = three_frames();
        let mut reserved = log.clone();
        reserved.resize(log.len() + (64 << 10), 0);
        fs::write(dir.join(WAL_FILE), &reserved).unwrap();
        let state = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(
            (state.value, state.next_seq, state.records_replayed),
            (12, 3, 3)
        );
        assert_eq!(state.tail_bytes_discarded, 0);
        assert_eq!(state.log_len, log.len() as u64);
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_frame_inside_the_reserve_is_discarded_and_reported() {
        let dir = crate::test_dir("recover-reserve-torn");
        let log = three_frames();
        let torn = WalRecord::Advance { seq: 3, value: 99 }.encode_framed();
        let mut bytes = log.clone();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        bytes.resize(log.len() + (64 << 10), 0);
        fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let state = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(state.value, 12, "torn record must not contribute");
        assert_eq!(state.records_replayed, 3);
        assert_eq!(state.tail_bytes_discarded as usize, bytes.len() - log.len());
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_stale_log_records_do_not_inflate() {
        let dir = crate::test_dir("recover-snap");
        fs::create_dir_all(&dir).unwrap();
        write_snapshot(&dir, 5, 40, None, &fp()).unwrap();
        // Crash-between-rename-and-truncate: the log still holds records the
        // snapshot already covers, plus one newer record.
        let mut log = Vec::new();
        log.extend_from_slice(&WalRecord::Advance { seq: 4, value: 30 }.encode_framed());
        log.extend_from_slice(&WalRecord::Advance { seq: 6, value: 41 }.encode_framed());
        fs::write(dir.join(WAL_FILE), &log).unwrap();
        let state = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(state.value, 41);
        assert_eq!(state.next_seq, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_round_trips_through_snapshot_and_log() {
        let dir = crate::test_dir("recover-poison");
        fs::create_dir_all(&dir).unwrap();
        let info = FailureInfo::new("producer died")
            .with_thread("worker-7")
            .with_level(9);
        write_snapshot(&dir, 2, 10, Some(&info), &fp()).unwrap();
        let state = recover_dir(&dir, &fp()).unwrap();
        let restored = state.poison.expect("poison restored");
        assert_eq!(restored.thread(), "worker-7");
        assert_eq!(restored.message(), "producer died");
        assert_eq!(restored.level(), Some(9));

        // A later log poison must NOT override the snapshot's (first wins).
        let rec = WalRecord::Poison {
            seq: 3,
            thread: "other".into(),
            message: "second".into(),
            level: None,
        };
        fs::write(dir.join(WAL_FILE), rec.encode_framed()).unwrap();
        let state = recover_dir(&dir, &fp()).unwrap();
        assert_eq!(state.poison.unwrap().message(), "producer died");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = crate::test_dir("recover-corrupt-snap");
        fs::create_dir_all(&dir).unwrap();
        // Garbage, and a checksummed frame too short for its header.
        let mut short = Vec::new();
        write_frame(&mut short, b"MCSN\x01\x02");
        for bytes in [b"garbage".to_vec(), short] {
            fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
            match recover_dir(&dir, &fp()) {
                Err(WalError::CorruptSnapshot(_)) => {}
                other => panic!("expected CorruptSnapshot, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_bytes_keep_their_format() {
        // Pinned bytes: logs and snapshots already on disk must stay
        // readable, whatever the codec's code looks like.
        let poison = |seq, thread: &str, message: &str, level| WalRecord::Poison {
            seq,
            thread: thread.into(),
            message: message.into(),
            level,
        };
        let with_level = poison(7, "worker-3", "producer died", Some(42));
        let without_level = poison(8, "main", "stuck", None);
        let info = FailureInfo::new("disk gone")
            .with_thread("flusher")
            .with_level(9);
        for (bytes, pinned) in [
            (with_level.encode_framed(), "2f000000567674fe020700000000000000012a0000000000000008000000776f726b65722d330d00000070726f64756365722064696564"),
            (without_level.encode_framed(), "1b000000efaaee2902080000000000000000040000006d61696e05000000737475636b"),
            (encode_snapshot(5, 40, Some(&info)), "360000004d4941184d43534e050000000000000028000000000000000101090000000000000007000000666c7573686572090000006469736b20676f6e65"),
        ] {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned);
        }
    }
}
