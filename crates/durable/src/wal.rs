//! The injectable log-file surface: [`WalFile`], its production
//! implementation [`FsWal`], the fault-injecting [`ChaosWal`] used by the
//! kill-9 crash harness to exercise the window *between* write and fsync,
//! and the [`FailpointWal`] wrapper routing every log syscall through named
//! [`mc_chaos::failpoints`] sites.

use crate::frame::FRAME_HEADER;
use mc_chaos::{BufInjection, Failpoints};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Error type for durable-counter operations, classified by recoverability:
/// [`is_transient`](Self::is_transient) tells the retry layer which failures
/// are worth retrying (an interrupted syscall, a disk-full blip an operator
/// may clear) and which are terminal.
#[derive(Debug)]
pub enum WalError {
    /// The disk is out of space (`ENOSPC`). Transient: operators free space
    /// and the counter self-heals, so the retry/degrade machinery treats
    /// this as recoverable rather than terminal.
    DiskFull(io::Error),
    /// An I/O operation was interrupted (`EINTR`). Transient by definition —
    /// the operation can simply be reissued.
    Interrupted(io::Error),
    /// Any other I/O failure on the log, snapshot, or directory.
    Io(io::Error),
    /// The snapshot file exists but fails verification. Unlike a torn log
    /// tail (recoverable by truncation), a corrupt snapshot means the
    /// baseline state is unreadable, so recovery refuses to guess.
    CorruptSnapshot(String),
}

impl WalError {
    /// Whether a retry (or a degraded-mode resync probe) can plausibly
    /// succeed: `true` for [`DiskFull`](Self::DiskFull),
    /// [`Interrupted`](Self::Interrupted), and `Io` errors whose kind is
    /// `WouldBlock`/`TimedOut`; `false` for everything else — in particular
    /// [`CorruptSnapshot`](Self::CorruptSnapshot), where retrying re-reads
    /// the same bad bytes.
    pub fn is_transient(&self) -> bool {
        match self {
            WalError::DiskFull(_) | WalError::Interrupted(_) => true,
            WalError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            WalError::CorruptSnapshot(_) => false,
        }
    }

    /// The underlying [`io::ErrorKind`], when the error wraps an I/O
    /// failure. Lets callers match `ENOSPC` vs `EINTR` without re-parsing
    /// the display string.
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        match self {
            WalError::DiskFull(e) | WalError::Interrupted(e) | WalError::Io(e) => Some(e.kind()),
            WalError::CorruptSnapshot(_) => None,
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::DiskFull(e) => write!(f, "wal disk full [{:?}]: {e}", e.kind()),
            WalError::Interrupted(e) => write!(f, "wal io interrupted [{:?}]: {e}", e.kind()),
            WalError::Io(e) => write!(f, "wal io error [{:?}]: {e}", e.kind()),
            WalError::CorruptSnapshot(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::DiskFull(e) | WalError::Interrupted(e) | WalError::Io(e) => Some(e),
            WalError::CorruptSnapshot(_) => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::StorageFull => WalError::DiskFull(e),
            io::ErrorKind::Interrupted => WalError::Interrupted(e),
            _ => WalError::Io(e),
        }
    }
}

/// The append-only log file surface the durability layer writes through.
///
/// Injectable so the crash harness can substitute [`ChaosWal`], which holds
/// appended bytes in user memory until `sync` — a SIGKILL between `append`
/// and `sync` then drops exactly the tail bytes a power loss between a
/// kernel write and an fsync would, forcing recovery down the torn-tail
/// path.
pub trait WalFile: Send {
    /// Appends `buf` at the end of the log.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Makes every previously appended byte durable before returning.
    fn sync(&mut self) -> io::Result<()>;
    /// Discards the entire log (used after a snapshot supersedes it).
    fn truncate_all(&mut self) -> io::Result<()>;
    /// Restores the log to exactly the state it had at the last successful
    /// [`sync`](Self::sync) (or open/truncate) that left it `len` bytes
    /// long, discarding any partial bytes a failed append or sync left
    /// behind. The flusher calls this before re-appending on retry: without
    /// it, a `write_all` torn mid-frame followed by a retried batch would
    /// leave a corrupt frame mid-log, and recovery truncates everything
    /// after the first corrupt frame — losing records acknowledged durable
    /// by the successful retry.
    fn rewind_to(&mut self, len: u64) -> io::Result<()>;
}

/// How many written zero bytes [`FsWal`] adds past the end of its log at a
/// time: about 2,600 25-byte `Advance` frames, two cycles of the default
/// `snapshot_every` (1,024 records).
const RESERVE_STEP: u64 = 64 << 10;

/// Production [`WalFile`]: a real file that appends into a reserve of
/// written zero bytes past the end of its log, and syncs with `sync_data`.
///
/// On disk the file is the log's frames, then the reserve. Each append is a
/// positional write (seek + `write_all`) at the end of the log. An append
/// that would leave less than one [`FRAME_HEADER`] of reserve first grows
/// it by 64 KiB of zeros. So between extensions the file size never changes,
/// and a `sync_data` flushes the new data without committing a size change
/// (on ext4, an `fdatasync` that changes the size commits the journal). The
/// zeros are written, not left as a hole from `set_len`, because the first
/// write into a hole allocates a block, which again goes through the
/// journal.
///
/// Recovery reads a zero frame header where a record is due, with zeros to
/// the end of the file, as the end of the log and cuts the reserve off (see
/// `recover_dir`). [`truncate_all`](WalFile::truncate_all) and
/// [`rewind_to`](WalFile::rewind_to) cut the file too; the next append
/// regrows the reserve.
pub struct FsWal {
    file: File,
    /// Byte length of the log: where the next append writes.
    len: u64,
    /// Byte length of the file: the log, then `reserved - len` zero bytes.
    reserved: u64,
}

impl FsWal {
    /// Opens (creating if absent) the log at `path` for appending at its
    /// end. The whole file is taken as the log, so a file that may end in a
    /// reserve must be opened after recovery has cut it off, as
    /// [`DurableCounter::open`](crate::DurableCounter::open) and the
    /// degraded-mode resync do.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FsWal {
            file,
            len,
            reserved: len,
        })
    }

    /// Cuts the file, log and reserve, to `len` bytes.
    fn cut(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        self.reserved = len;
        Ok(())
    }
}

impl WalFile for FsWal {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let end = self.len + buf.len() as u64;
        let need = end + FRAME_HEADER as u64;
        if need > self.reserved {
            let grow = (need - self.reserved).div_ceil(RESERVE_STEP) * RESERVE_STEP;
            self.file.seek(SeekFrom::Start(self.reserved))?;
            io::copy(&mut io::repeat(0).take(grow), &mut self.file)?;
            self.reserved += grow;
        }
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(buf)?;
        self.len = end;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate_all(&mut self) -> io::Result<()> {
        self.cut(0)
    }

    fn rewind_to(&mut self, len: u64) -> io::Result<()> {
        self.cut(len)
    }
}

/// Fault-injecting [`WalFile`]: appends accumulate in user memory and only
/// reach the log (followed by an fsync) on [`sync`](WalFile::sync).
///
/// Under SIGKILL this reproduces the crash window between a log write and
/// its fsync: bytes appended but not yet synced vanish entirely, so the
/// on-disk log ends wherever the last `sync` left it — including, when the
/// kill lands mid-`write_all`, a torn partial frame. The bytes are written
/// through an [`FsWal`], so the file has the layout production writes: the
/// log, then its zero reserve.
pub struct ChaosWal {
    wal: FsWal,
    buffered: Vec<u8>,
}

impl ChaosWal {
    /// Opens (creating if absent) the log at `path` for buffered appending,
    /// under the same condition as [`FsWal::open`].
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(ChaosWal {
            wal: FsWal::open(path)?,
            buffered: Vec::new(),
        })
    }

    /// Drops every byte appended since the last `sync`, simulating in
    /// process what a SIGKILL would do to the buffer. For in-process
    /// torn-tail tests.
    pub fn lose_unsynced_tail(&mut self) {
        self.buffered.clear();
    }

    /// Bytes currently buffered (appended but not yet durable).
    pub fn unsynced_len(&self) -> usize {
        self.buffered.len()
    }
}

impl WalFile for ChaosWal {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.buffered.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.wal.append(&self.buffered)?;
        self.buffered.clear();
        self.wal.sync()
    }

    fn truncate_all(&mut self) -> io::Result<()> {
        self.buffered.clear();
        self.wal.truncate_all()
    }

    fn rewind_to(&mut self, len: u64) -> io::Result<()> {
        // At the last successful sync the buffer was empty and the log was
        // `len` bytes, so restoring that state drops both the in-memory
        // tail and any bytes a torn flush pushed past `len`.
        self.buffered.clear();
        self.wal.rewind_to(len)
    }
}

/// A [`WalFile`] wrapper that routes every log operation through a named
/// [`Failpoints`] site before forwarding to the wrapped file:
///
/// | operation | site |
/// |-----------|------|
/// | [`append`](WalFile::append) | `wal.append.write` |
/// | [`sync`](WalFile::sync) | `wal.flush.fsync` |
/// | [`truncate_all`](WalFile::truncate_all) | `wal.truncate` |
/// | [`rewind_to`](WalFile::rewind_to) | `wal.rewind` |
///
/// The append site is buffer-aware: armed with a `partial` config it writes
/// a deterministic prefix of the batch through to the wrapped file before
/// returning the error, reproducing the torn mid-frame shape a real
/// `write_all` leaves when the disk fills partway through.
///
/// The durability layer wraps whatever the [`WalFactory`] produces in one of
/// these, so fault schedules armed via `MC_CHAOS_FAILPOINTS` (or
/// programmatically) hit production and chaos WALs alike. With no sites
/// armed the overhead is a single relaxed atomic load per operation.
pub struct FailpointWal {
    inner: Box<dyn WalFile>,
    fp: Arc<Failpoints>,
}

/// Failpoint site hit before every WAL append.
pub const SITE_WAL_APPEND: &str = "wal.append.write";
/// Failpoint site hit before every WAL fsync.
pub const SITE_WAL_FSYNC: &str = "wal.flush.fsync";
/// Failpoint site hit before every WAL truncation (post-snapshot reset).
pub const SITE_WAL_TRUNCATE: &str = "wal.truncate";
/// Failpoint site hit when (re-)opening a WAL file through a factory.
pub const SITE_WAL_OPEN: &str = "wal.open";
/// Failpoint site hit before rewinding the log to its last synced length
/// (the pre-retry torn-byte repair).
pub const SITE_WAL_REWIND: &str = "wal.rewind";

impl FailpointWal {
    /// Wraps `inner` so its operations consult `fp` first.
    pub fn new(inner: Box<dyn WalFile>, fp: Arc<Failpoints>) -> Self {
        FailpointWal { inner, fp }
    }
}

impl WalFile for FailpointWal {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.fp.hit_buffered(SITE_WAL_APPEND, buf.len()) {
            BufInjection::Pass => self.inner.append(buf),
            BufInjection::Fail(e) => Err(e),
            BufInjection::Partial { prefix, error } => {
                // Best effort: if even the prefix write fails the log is
                // simply torn earlier, which is the same fault shape.
                let _ = self.inner.append(&buf[..prefix]);
                Err(error)
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.fp.hit(SITE_WAL_FSYNC)?;
        self.inner.sync()
    }

    fn truncate_all(&mut self) -> io::Result<()> {
        self.fp.hit(SITE_WAL_TRUNCATE)?;
        self.inner.truncate_all()
    }

    fn rewind_to(&mut self, len: u64) -> io::Result<()> {
        self.fp.hit(SITE_WAL_REWIND)?;
        self.inner.rewind_to(len)
    }
}

/// How log files are opened — lets tests and the crash harness inject
/// [`ChaosWal`] without changing call sites.
pub type WalFactory = dyn Fn(&Path) -> io::Result<Box<dyn WalFile>> + Send + Sync;

/// The environment variable that, when set to `1`, makes
/// [`wal_factory_from_env`] produce [`ChaosWal`] instead of [`FsWal`].
pub const CHAOS_WAL_ENV: &str = "MC_CHAOS_WAL";

/// The default factory: [`FsWal`], or [`ChaosWal`] when [`CHAOS_WAL_ENV`]
/// is `1` (how the crash harness arms torn-tail injection in a child
/// process it re-executes).
pub fn wal_factory_from_env() -> Box<WalFactory> {
    if std::env::var(CHAOS_WAL_ENV).as_deref() == Ok("1") {
        Box::new(|path| Ok(Box::new(ChaosWal::open(path)?) as Box<dyn WalFile>))
    } else {
        Box::new(|path| Ok(Box::new(FsWal::open(path)?) as Box<dyn WalFile>))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log in the file at `path`: its bytes before the zero reserve.
    /// The tests' payloads hold no zero byte, so the reserve is the trailing
    /// run of zeros, and it must hold a whole frame header.
    fn logical_log(path: &Path) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        let end = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let reserve = bytes.len() - end;
        assert!(
            reserve == 0 || reserve >= FRAME_HEADER,
            "a {reserve}-byte reserve would read as a torn tail"
        );
        bytes.truncate(end);
        bytes
    }

    #[test]
    fn chaos_wal_drops_unsynced_tail() {
        let dir = crate::test_dir("chaos-wal");
        let path = dir.join("wal.log");
        let mut wal = ChaosWal::open(&path).unwrap();
        wal.append(b"synced").unwrap();
        wal.sync().unwrap();
        wal.append(b" lost").unwrap();
        assert_eq!(wal.unsynced_len(), 5);
        wal.lose_unsynced_tail();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(logical_log(&path), b"synced");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_wal_rewind_discards_torn_bytes_and_appends_at_boundary() {
        let dir = crate::test_dir("fswal-rewind");
        let path = dir.join("wal.log");
        let mut wal = FsWal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.sync().unwrap();
        // A failed attempt left torn bytes; rewinding to the synced length
        // must drop them, and the retried append must land right after the
        // verified prefix, not after the reserve the torn bytes sat in.
        wal.append(b"to").unwrap();
        wal.rewind_to(4).unwrap();
        wal.append(b"retry").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(logical_log(&path), b"goodretry");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_wal_rewind_drops_buffer_and_torn_file_bytes() {
        let dir = crate::test_dir("chaos-wal-rewind");
        let path = dir.join("wal.log");
        let mut wal = ChaosWal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.sync().unwrap();
        // Simulate a torn flush: bytes past the synced length on disk plus
        // a stale buffer. Rewind restores exactly the last synced state.
        std::fs::write(&path, b"goodTORN").unwrap();
        wal.append(b"stale").unwrap();
        wal.rewind_to(4).unwrap();
        assert_eq!(wal.unsynced_len(), 0);
        wal.append(b"retry").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(logical_log(&path), b"goodretry");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failpoint_partial_append_writes_a_strict_prefix() {
        use mc_chaos::FailConfig;
        let dir = crate::test_dir("fp-partial-append");
        let path = dir.join("wal.log");
        let fp = Arc::new(Failpoints::new(9));
        fp.arm(
            SITE_WAL_APPEND,
            FailConfig::once_at(1, io::ErrorKind::StorageFull).partial(),
        );
        let mut wal = FailpointWal::new(Box::new(FsWal::open(&path).unwrap()), fp);
        let frame = b"0123456789abcdef";
        let err = wal.append(frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        wal.sync().unwrap();
        let torn = logical_log(&path);
        assert!(
            !torn.is_empty() && torn.len() < frame.len(),
            "partial append must leave a strict prefix, got {} bytes",
            torn.len()
        );
        assert_eq!(&frame[..torn.len()], &torn[..]);
        // The disarmed site lets the retry through after a rewind.
        wal.rewind_to(0).unwrap();
        wal.append(frame).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(logical_log(&path), frame);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_error_classifies_io_kinds() {
        // ENOSPC → DiskFull, transient; EINTR → Interrupted, transient.
        let enospc: WalError = io::Error::from_raw_os_error(28).into();
        assert!(matches!(enospc, WalError::DiskFull(_)));
        assert!(enospc.is_transient());
        assert_eq!(enospc.io_kind(), Some(io::ErrorKind::StorageFull));
        assert!(enospc.to_string().contains("StorageFull"));

        let eintr: WalError = io::Error::from(io::ErrorKind::Interrupted).into();
        assert!(matches!(eintr, WalError::Interrupted(_)));
        assert!(eintr.is_transient());

        let hard: WalError = io::Error::from(io::ErrorKind::PermissionDenied).into();
        assert!(matches!(hard, WalError::Io(_)));
        assert!(!hard.is_transient());
        assert!(hard.to_string().contains("PermissionDenied"));

        let soft: WalError = io::Error::from(io::ErrorKind::WouldBlock).into();
        assert!(soft.is_transient());

        let corrupt = WalError::CorruptSnapshot("bad crc".into());
        assert!(!corrupt.is_transient());
        assert_eq!(corrupt.io_kind(), None);
    }

    #[test]
    fn failpoint_wal_injects_per_site() {
        use mc_chaos::FailConfig;
        let dir = crate::test_dir("failpoint-wal");
        let path = dir.join("wal.log");
        let fp = Arc::new(Failpoints::new(7));
        let mut wal = FailpointWal::new(
            Box::new(FsWal::open(&path).unwrap()) as Box<dyn WalFile>,
            Arc::clone(&fp),
        );
        // Nothing armed: all operations pass through.
        wal.append(b"ok").unwrap();
        wal.sync().unwrap();
        // Arm fsync with a one-shot ENOSPC: append still works, one sync
        // fails with StorageFull, the next succeeds.
        fp.arm(
            SITE_WAL_FSYNC,
            FailConfig::always(io::ErrorKind::StorageFull).oneshot(),
        );
        wal.append(b"more").unwrap();
        let err = wal.sync().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        wal.sync().unwrap();
        assert_eq!(fp.injected(SITE_WAL_FSYNC), 1);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_wal_appends_and_truncates() {
        let dir = crate::test_dir("fs-wal");
        let path = dir.join("wal.log");
        let mut wal = FsWal::open(&path).unwrap();
        wal.append(b"abc").unwrap();
        wal.sync().unwrap();
        assert_eq!(logical_log(&path), b"abc");
        // Truncation drops the reserve with the log.
        wal.truncate_all().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_wal_appends_inside_its_reserve_without_growing_the_file() {
        let dir = crate::test_dir("fs-wal-reserve");
        let path = dir.join("wal.log");
        let mut wal = FsWal::open(&path).unwrap();
        let record = b"0123456789abcdefghijklmn";
        wal.append(record).unwrap();
        wal.sync().unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size >= (record.len() + FRAME_HEADER) as u64);
        for _ in 0..100 {
            wal.append(record).unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        // An append that would leave less than a frame header of reserve
        // grows it by one step first.
        let mut log = record.repeat(101);
        let fill = vec![b'x'; (size - log.len() as u64 - 4) as usize];
        wal.append(&fill).unwrap();
        wal.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size + RESERVE_STEP);
        drop(wal);
        log.extend_from_slice(&fill);
        assert_eq!(logical_log(&path), log);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
