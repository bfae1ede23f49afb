//! Crash states of the two-slot log, enumerated from a recorded run.
//!
//! A scripted run records every slot write and every completed sync that
//! reaches the counter's log, and every `durable_value()` the test reads
//! after an increment. At each point of that trace, every 8 KiB image the
//! weakest POSIX order allows is opened in a scratch directory: each slot
//! holds its last synced contents, or any write to it since that sync,
//! whole or cut at any byte over the synced contents. Every image must
//! open, without a panic, to a value at least every value read as durable
//! before that point and at most the largest value written; opening it
//! again must change nothing.
//!
//! The kill-9 harness (`crash_recovery`) and `ChaosWal` sample crashes of
//! longer runs; this test checks every crash of a short one.

use mc_chaos::{FailConfig, Failpoints};
use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter};
use mc_durable::{
    read_frame, DurabilityMode, DurableCounter, DurableOptions, FrameRead, FsWal, PoisonPolicy,
    RetryPolicy, WalFactory, WalFile, SITE_WAL_APPEND, SITE_WAL_FSYNC, SLOT_LEN, WAL_FILE,
};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One step of a recorded run.
#[derive(Debug)]
enum Event {
    /// `bytes` were written at the start of `slot`.
    Write { slot: usize, bytes: Vec<u8> },
    /// A sync completed: every earlier write is durable.
    Sync,
    /// The test read this `durable_value()` after an increment.
    Durable(u64),
}

type Trace = Arc<Mutex<Vec<Event>>>;

fn record(trace: &Trace, event: Event) {
    trace.lock().expect("trace lock").push(event);
}

/// The counter's log, recording what reaches it. It sits inside the
/// counter's `FailpointWal`, so an injected fault never reaches it: a
/// failed sync is not recorded, and a partial write is recorded as the
/// prefix that was written.
struct Recording {
    wal: FsWal,
    trace: Trace,
}

impl WalFile for Recording {
    fn write_slot(&mut self, slot: usize, frame: &[u8]) -> io::Result<()> {
        record(
            &self.trace,
            Event::Write {
                slot,
                bytes: frame.to_vec(),
            },
        );
        self.wal.write_slot(slot, frame)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()?;
        record(&self.trace, Event::Sync);
        Ok(())
    }
}

fn open(dir: &Path, options: DurableOptions, trace: &Trace) -> DurableCounter<Counter> {
    let trace = Arc::clone(trace);
    let factory: Box<WalFactory> = Box::new(move |path| {
        Ok(Box::new(Recording {
            wal: FsWal::open(path)?,
            trace: Arc::clone(&trace),
        }) as Box<dyn WalFile>)
    });
    DurableCounter::<Counter>::open_with_wal(dir, options, factory)
        .expect("open the scripted counter")
        .0
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-crash-states-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Bytes of a slot the enumerator tracks: every write is a frame far
/// shorter, and the rest of the slot stays zero.
const HEAD: usize = 64;

/// The value of the frame at the start of a slot, if it is whole.
fn frame_value(slot: &[u8]) -> Option<u64> {
    match read_frame(slot, 0) {
        FrameRead::Frame { payload, .. } => Some(u64::from_le_bytes(payload.try_into().ok()?)),
        _ => None,
    }
}

fn overlay(base: &[u8], write: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    out[..write.len()].copy_from_slice(write);
    out
}

/// What a crash can leave in one slot: its synced contents, or any write
/// since the sync, whole or cut at any byte, over the synced contents.
fn slot_images(synced: &[u8], pending: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut images = vec![synced.to_vec()];
    for write in pending {
        images.extend((1..=write.len()).map(|cut| overlay(synced, &write[..cut])));
    }
    images
}

/// Opens `image` in `dir` twice and returns the recovered value; the second
/// open must recover the same and leave the log as the first left it.
fn recover_image(dir: &Path, image: &[u8], point: usize) -> u64 {
    let quiet = || DurableOptions {
        failpoints: Some(Arc::new(Failpoints::new(0))),
        ..DurableOptions::default()
    };
    let path = dir.join(WAL_FILE);
    let mut log = vec![0u8; 2 * SLOT_LEN];
    log[..HEAD].copy_from_slice(&image[..HEAD]);
    log[SLOT_LEN..][..HEAD].copy_from_slice(&image[HEAD..]);
    std::fs::write(&path, &log).expect("write crash image");
    let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
    let (c, first) = DurableCounter::<Counter>::open_with(dir, quiet())
        .unwrap_or_else(|e| panic!("point {point}: crash image {hex} does not open: {e}"));
    drop(c);
    let after = std::fs::read(&path).expect("read recovered log");
    let (c, second) = DurableCounter::<Counter>::open_with(dir, quiet()).expect("reopen");
    drop(c);
    assert_eq!(
        second, first,
        "point {point}: reopening {hex} changed recovery"
    );
    let again = std::fs::read(&path).expect("read reopened log");
    assert!(
        again == after,
        "point {point}: reopening {hex} changed the log"
    );
    first.value
}

/// Checks every crash image at every point of `trace` in `dir`; returns
/// how many images it checked. Each distinct image is opened once.
///
/// A value counts as written once a write leaves its whole frame in a
/// slot: a partial write whose missing bytes the slot already holds (the
/// zero high bytes of a small value) writes its value too.
fn check_crash_states(trace: &[Event], dir: &Path) -> usize {
    let mut synced = [vec![0u8; HEAD], vec![0u8; HEAD]];
    let mut current = synced.clone();
    let mut pending: [Vec<Vec<u8>>; 2] = Default::default();
    let (mut acked, mut written) = (0, 0);
    let mut recovered: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut checked = 0;
    for point in 0..=trace.len() {
        match point.checked_sub(1).map(|i| &trace[i]) {
            None => {}
            Some(Event::Write { slot, bytes }) => {
                assert!(bytes.len() <= HEAD, "a slot write longer than a frame");
                pending[*slot].push(bytes.clone());
                current[*slot] = overlay(&current[*slot], bytes);
                written = written.max(frame_value(&current[*slot]).unwrap_or(0));
            }
            Some(Event::Sync) => {
                synced = current.clone();
                pending = Default::default();
            }
            Some(Event::Durable(v)) => acked = acked.max(*v),
        }
        let [first, second] = [0, 1].map(|s| slot_images(&synced[s], &pending[s]));
        for a in &first {
            for b in &second {
                let image = [a.as_slice(), b.as_slice()].concat();
                let value = *recovered
                    .entry(image.clone())
                    .or_insert_with(|| recover_image(dir, &image, point));
                assert!(
                    acked <= value && value <= written,
                    "point {point}: recovered {value}, but {acked} was read as durable and \
                     {written} is the largest value written"
                );
                checked += 1;
            }
        }
    }
    checked
}

/// `n` strict increments, each followed by a recorded `durable_value()`.
fn strict_increments(c: &DurableCounter<Counter>, trace: &Trace, n: usize) {
    for _ in 0..n {
        c.increment(1);
        record(trace, Event::Durable(c.durable_value()));
    }
}

#[test]
fn every_crash_state_of_a_scripted_run_recovers_within_bounds() {
    let dir = scratch("script");
    let trace = Trace::default();
    let fp = Arc::new(Failpoints::new(7));
    let options = |mode| DurableOptions {
        mode,
        retry: RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(50),
        },
        poison_policy: PoisonPolicy::Degrade,
        failpoints: Some(Arc::clone(&fp)),
        resync_interval: Duration::from_millis(5),
        ..DurableOptions::default()
    };
    {
        let c = open(&dir, options(DurabilityMode::Strict), &trace);
        // Strict increments from one writer, then from two.
        strict_increments(&c, &trace, 4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| strict_increments(&c, &trace, 4));
            }
        });
        // A partial slot write and its retry.
        fp.arm(
            SITE_WAL_APPEND,
            FailConfig::once_at(1, io::ErrorKind::StorageFull).partial(),
        );
        strict_increments(&c, &trace, 1);
        assert_eq!(fp.injected(SITE_WAL_APPEND), 1, "the partial write fired");
        // A degraded entry: every fsync fails, so increments are acked
        // from memory while the disk watermark stays put. Then a resync.
        fp.arm(
            SITE_WAL_FSYNC,
            FailConfig::always(io::ErrorKind::StorageFull),
        );
        strict_increments(&c, &trace, 1);
        wait_for("degraded health", || c.health().is_degraded());
        strict_increments(&c, &trace, 1);
        fp.disarm(SITE_WAL_FSYNC);
        wait_for("healthy health", || c.health().is_healthy());
        record(&trace, Event::Durable(c.durable_value()));
        strict_increments(&c, &trace, 2);
        assert_eq!(c.wal_stats().degraded_entries, 1);
    }
    {
        // Batched increments with `sync()`, after a reopen.
        let c = open(&dir, options(DurabilityMode::Batched), &trace);
        for _ in 0..3 {
            for _ in 0..4 {
                c.increment(1);
            }
            c.sync().expect("batched sync");
            record(&trace, Event::Durable(c.durable_value()));
        }
        assert_eq!(c.durable_value(), c.debug_value());
    }
    let trace = std::mem::take(&mut *trace.lock().expect("trace lock"));
    let images = scratch("script-images");
    let checked = check_crash_states(&trace, &images);
    eprintln!("{} events, {checked} crash images checked", trace.len());
    for dir in [dir, images] {
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

/// The enumerator itself: one fault-free writer's `k` rounds are each a
/// slot write, a sync and a read. A point with one unsynced `L`-byte write
/// has `1 + L` images (the synced slot, or the write cut at byte 1..=L); a
/// point with none has one. So the trace has `1 + k(L + 3)` images, and an
/// enumerator that skips states fails here.
#[test]
fn fault_free_rounds_have_the_counted_crash_images() {
    const ROUNDS: usize = 5;
    const FRAME_LEN: usize = 16;
    let dir = scratch("count");
    let trace = Trace::default();
    let options = DurableOptions {
        failpoints: Some(Arc::new(Failpoints::new(0))),
        ..DurableOptions::default()
    };
    let c = open(&dir, options, &trace);
    strict_increments(&c, &trace, ROUNDS);
    drop(c);
    let trace = std::mem::take(&mut *trace.lock().expect("trace lock"));
    assert_eq!(trace.len(), 3 * ROUNDS, "{trace:?}");
    let images = scratch("count-images");
    let checked = check_crash_states(&trace, &images);
    assert_eq!(checked, 1 + ROUNDS * (FRAME_LEN + 3));
    for dir in [dir, images] {
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
