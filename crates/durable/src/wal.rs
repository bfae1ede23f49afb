//! The injectable log-file surface: [`WalFile`], its production
//! implementation [`FsWal`], the fault-injecting [`ChaosWal`] used by the
//! kill-9 crash harness to exercise the window *between* write and fsync,
//! and the [`FailpointWal`] wrapper routing every log syscall through named
//! [`mc_chaos::failpoints`] sites.

use crate::recover::SLOT_LEN;
use mc_chaos::{BufInjection, Failpoints};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
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
    /// Any other I/O failure on the log, the poison file, or the directory.
    Io(io::Error),
    /// The directory's durable state does not verify: neither log slot
    /// holds a whole frame, the log or the poison file is damaged, or the
    /// directory is in an older layout. A crash tears at most one slot, so
    /// recovery refuses to guess rather than restart from 0.
    Corrupt(String),
}

impl WalError {
    /// Whether a retry (or a degraded-mode resync probe) can plausibly
    /// succeed: `true` for [`DiskFull`](Self::DiskFull),
    /// [`Interrupted`](Self::Interrupted), and `Io` errors whose kind is
    /// `WouldBlock`/`TimedOut`; `false` for everything else — in particular
    /// [`Corrupt`](Self::Corrupt), where retrying re-reads the same bad
    /// bytes.
    pub fn is_transient(&self) -> bool {
        match self {
            WalError::DiskFull(_) | WalError::Interrupted(_) => true,
            WalError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            WalError::Corrupt(_) => false,
        }
    }

    /// The underlying [`io::ErrorKind`], when the error wraps an I/O
    /// failure. Lets callers match `ENOSPC` vs `EINTR` without re-parsing
    /// the display string.
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        match self {
            WalError::DiskFull(e) | WalError::Interrupted(e) | WalError::Io(e) => Some(e.kind()),
            WalError::Corrupt(_) => None,
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::DiskFull(e) => write!(f, "wal disk full [{:?}]: {e}", e.kind()),
            WalError::Interrupted(e) => write!(f, "wal io interrupted [{:?}]: {e}", e.kind()),
            WalError::Io(e) => write!(f, "wal io error [{:?}]: {e}", e.kind()),
            WalError::Corrupt(why) => write!(f, "corrupt durable state: {why}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::DiskFull(e) | WalError::Interrupted(e) | WalError::Io(e) => Some(e),
            WalError::Corrupt(_) => None,
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

/// The log-file surface the durability layer writes through: a file of two
/// fixed slots, each overwritten in place with one frame.
///
/// Injectable so the crash harness can substitute [`ChaosWal`], which holds
/// a slot write in user memory until `sync` — a SIGKILL between the write
/// and the sync then drops exactly the write a power loss between a kernel
/// write and an fsync would.
pub trait WalFile: Send {
    /// Writes `frame` at the start of slot `slot` (0 or 1).
    fn write_slot(&mut self, slot: usize, frame: &[u8]) -> io::Result<()>;
    /// Makes every previous slot write durable before returning.
    fn sync(&mut self) -> io::Result<()>;
}

/// Production [`WalFile`]: positional writes into the fixed-size log that
/// recovery created, synced with `sync_data`.
///
/// The file is created once as written zeros (see `recover_dir`) and never
/// changes size, so a `sync_data` flushes the new slot without committing a
/// size change (on ext4, an `fdatasync` that changes the size commits the
/// journal), and no write lands in a hole whose first write would allocate
/// a block.
pub struct FsWal {
    file: File,
}

impl FsWal {
    /// Opens the existing log at `path` for slot writes. Recovery creates
    /// the file, so [`DurableCounter::open`](crate::DurableCounter::open)
    /// and the degraded-mode resync open it only after recovering.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        Ok(FsWal { file })
    }
}

impl WalFile for FsWal {
    fn write_slot(&mut self, slot: usize, frame: &[u8]) -> io::Result<()> {
        assert!(
            slot < 2 && frame.len() <= SLOT_LEN,
            "a frame outside the two slots"
        );
        self.file.seek(SeekFrom::Start((slot * SLOT_LEN) as u64))?;
        self.file.write_all(frame)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Fault-injecting [`WalFile`]: slot writes wait in user memory and reach
/// the file (followed by an fsync) only on [`sync`](WalFile::sync).
///
/// Under SIGKILL this reproduces the crash window between a log write and
/// its fsync: a write not yet synced vanishes entirely, and a kill that
/// lands mid-`write_all` leaves a torn slot. The bytes are written through
/// an [`FsWal`], so the file has the layout production writes.
pub struct ChaosWal {
    wal: FsWal,
    pending: Vec<(usize, Vec<u8>)>,
}

impl ChaosWal {
    /// Opens the existing log at `path` for buffered slot writes, under the
    /// same condition as [`FsWal::open`].
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(ChaosWal {
            wal: FsWal::open(path)?,
            pending: Vec::new(),
        })
    }
}

impl WalFile for ChaosWal {
    fn write_slot(&mut self, slot: usize, frame: &[u8]) -> io::Result<()> {
        self.pending.push((slot, frame.to_vec()));
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        for (slot, frame) in self.pending.drain(..) {
            self.wal.write_slot(slot, &frame)?;
        }
        self.wal.sync()
    }
}

/// A [`WalFile`] wrapper that routes every log operation through a named
/// [`Failpoints`] site before forwarding to the wrapped file:
///
/// | operation | site |
/// |-----------|------|
/// | [`write_slot`](WalFile::write_slot) | `wal.append.write` |
/// | [`sync`](WalFile::sync) | `wal.flush.fsync` |
///
/// The write site is buffer-aware: armed with a `partial` config it writes
/// a deterministic prefix of the frame into the slot before returning the
/// error, reproducing the torn slot a real `write_all` leaves when the disk
/// fills partway through.
///
/// The durability layer wraps whatever the [`WalFactory`] produces in one of
/// these, so fault schedules armed via `MC_CHAOS_FAILPOINTS` (or
/// programmatically) hit production and chaos WALs alike. With no sites
/// armed the overhead is a single relaxed atomic load per operation.
pub struct FailpointWal {
    inner: Box<dyn WalFile>,
    fp: Arc<Failpoints>,
}

/// Failpoint site hit before every WAL slot write.
pub const SITE_WAL_APPEND: &str = "wal.append.write";
/// Failpoint site hit before every WAL fsync.
pub const SITE_WAL_FSYNC: &str = "wal.flush.fsync";
/// Failpoint site hit when (re-)opening a WAL file through a factory.
pub const SITE_WAL_OPEN: &str = "wal.open";

impl FailpointWal {
    /// Wraps `inner` so its operations consult `fp` first.
    pub fn new(inner: Box<dyn WalFile>, fp: Arc<Failpoints>) -> Self {
        FailpointWal { inner, fp }
    }
}

impl WalFile for FailpointWal {
    fn write_slot(&mut self, slot: usize, frame: &[u8]) -> io::Result<()> {
        match self.fp.hit_buffered(SITE_WAL_APPEND, frame.len()) {
            BufInjection::Pass => self.inner.write_slot(slot, frame),
            BufInjection::Fail(e) => Err(e),
            BufInjection::Partial { prefix, error } => {
                // Best effort: if even the prefix write fails the slot is
                // simply torn earlier, which is the same fault shape.
                let _ = self.inner.write_slot(slot, &frame[..prefix]);
                Err(error)
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.fp.hit(SITE_WAL_FSYNC)?;
        self.inner.sync()
    }
}

/// How log files are opened — lets tests and the crash harness inject
/// [`ChaosWal`] without changing call sites.
pub type WalFactory = dyn Fn(&Path) -> io::Result<Box<dyn WalFile>> + Send + Sync;

/// The environment variable that, when set to `1`, makes
/// [`wal_factory_from_env`] produce [`ChaosWal`] instead of [`FsWal`].
pub const CHAOS_WAL_ENV: &str = "MC_CHAOS_WAL";

/// The default factory: [`FsWal`], or [`ChaosWal`] when [`CHAOS_WAL_ENV`]
/// is `1` (how the crash harness arms unsynced-write loss in a child
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
    use crate::recover::WAL_LEN;

    /// A fresh log: `WAL_LEN` written zeros, as recovery creates it.
    fn fresh_log(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = crate::test_dir(tag);
        let path = dir.join("wal.log");
        std::fs::write(&path, vec![0u8; WAL_LEN]).unwrap();
        (dir, path)
    }

    /// The bytes at the start of `slot` in the file at `path`.
    fn slot_bytes(path: &Path, slot: usize, len: usize) -> Vec<u8> {
        std::fs::read(path).unwrap()[slot * SLOT_LEN..][..len].to_vec()
    }

    #[test]
    fn fs_wal_overwrites_slots_in_place() {
        let (dir, path) = fresh_log("fs-wal");
        let mut wal = FsWal::open(&path).unwrap();
        wal.write_slot(1, b"first").unwrap();
        wal.write_slot(0, b"other").unwrap();
        wal.write_slot(1, b"again").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(slot_bytes(&path, 0, 5), b"other");
        assert_eq!(slot_bytes(&path, 1, 6), b"again\0");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_LEN as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_wal_opens_only_an_existing_log() {
        let dir = crate::test_dir("fs-wal-missing");
        assert!(FsWal::open(&dir.join("wal.log")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_wal_drops_an_unsynced_write() {
        let (dir, path) = fresh_log("chaos-wal");
        let mut wal = ChaosWal::open(&path).unwrap();
        wal.write_slot(0, b"synced").unwrap();
        wal.sync().unwrap();
        wal.write_slot(1, b"lost").unwrap();
        drop(wal); // what a SIGKILL before the sync leaves
        assert_eq!(slot_bytes(&path, 0, 6), b"synced");
        assert_eq!(slot_bytes(&path, 1, 4), [0; 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failpoint_partial_write_tears_the_slot_and_the_retry_mends_it() {
        use mc_chaos::FailConfig;
        let (dir, path) = fresh_log("fp-partial-write");
        let fp = Arc::new(Failpoints::new(9));
        fp.arm(
            SITE_WAL_APPEND,
            FailConfig::once_at(1, io::ErrorKind::StorageFull).partial(),
        );
        let mut wal = FailpointWal::new(Box::new(FsWal::open(&path).unwrap()), fp);
        let frame = b"0123456789abcdef";
        let err = wal.write_slot(1, frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        wal.sync().unwrap();
        let torn = slot_bytes(&path, 1, frame.len());
        let written = torn.iter().position(|&b| b == 0).unwrap_or(frame.len());
        assert!(
            written > 0 && written < frame.len(),
            "a partial write must leave a strict prefix, got {written} bytes"
        );
        assert_eq!(&torn[..written], &frame[..written]);
        // The disarmed site lets the retry through, into the same slot.
        wal.write_slot(1, frame).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(slot_bytes(&path, 1, frame.len()), frame);
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

        let corrupt = WalError::Corrupt("bad crc".into());
        assert!(!corrupt.is_transient());
        assert_eq!(corrupt.io_kind(), None);
    }

    #[test]
    fn failpoint_wal_injects_per_site() {
        use mc_chaos::FailConfig;
        let (dir, path) = fresh_log("failpoint-wal");
        let fp = Arc::new(Failpoints::new(7));
        let mut wal = FailpointWal::new(
            Box::new(FsWal::open(&path).unwrap()) as Box<dyn WalFile>,
            Arc::clone(&fp),
        );
        // Nothing armed: all operations pass through.
        wal.write_slot(0, b"ok").unwrap();
        wal.sync().unwrap();
        // Arm fsync with a one-shot ENOSPC: the write still works, one sync
        // fails with StorageFull, the next succeeds.
        fp.arm(
            SITE_WAL_FSYNC,
            FailConfig::always(io::ErrorKind::StorageFull).oneshot(),
        );
        wal.write_slot(1, b"more").unwrap();
        let err = wal.sync().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        wal.sync().unwrap();
        assert_eq!(fp.injected(SITE_WAL_FSYNC), 1);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
