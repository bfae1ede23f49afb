//! `durable`: a strict `DurableCounter<Counter>` with two writers.
//!
//! One op is one acked increment of a seeded amount: it returns only once
//! the WAL holding it is fsynced (group commit shares one fsync between the
//! writers waiting at the time) and the inner counter applied it. The
//! workload is IO-bound and measures group commit. The flusher thread
//! belongs to the library and keeps the process's CPU mask (the counter is
//! opened from the unpinned main thread).

use super::{input, pin, repeat_setup, Config, Outcome};
use crate::sample::{hist_quantile, median, percentile};
use crate::trace::{add_stats, durations, sub_stats, Tracer};
use mc_counter::{Counter, CounterDiagnostics, MetricsSink, MonotonicCounter, StatsSnapshot};
use mc_durable::{DurableCounter, DurableOptions, WalStats};
use mc_metrics::Registry;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Application (writer) threads.
pub const WRITERS: u64 = 2;
/// Acks of the single-writer sequential reference in setup.
pub const SEQ_ACKS: u64 = 256;
/// Length of one two-writer slice of the measured loop.
pub const SLICE_SECONDS: f64 = 1.0;
/// Single-writer acks after each slice.
pub const SEQ_SLICE_ACKS: u64 = 256;
/// Metric-name prefix of the WAL metrics in the traced phase.
const PREFIX: &str = "perfbench";

/// The amount writer `w` adds in its `i`-th op (1..=4).
fn amount(seed: u64, w: u64, i: u64) -> u64 {
    input(seed, 3 + w, i) % 4 + 1
}

fn open(
    dir: &Path,
    registry: Option<&Arc<Registry>>,
) -> Result<(DurableCounter<Counter>, u64), String> {
    let opts = DurableOptions {
        metrics: registry.map(|r| MetricsSink::new(Arc::clone(r), PREFIX)),
        ..DurableOptions::default()
    };
    DurableCounter::<Counter>::open_with(dir, opts)
        .map(|(c, rec)| (c, rec.value))
        .map_err(|e| format!("cannot open WAL in {}: {e}", dir.display()))
}

/// Runs one phase; traced when `tracer` is given.
pub fn run(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    let dir = cfg
        .out_dir
        .join(format!("durable-wal-{}", std::process::id()));
    let registry = tracer.map(|_| Arc::new(Registry::new()));
    let mut recover_ns = Vec::new();
    let ((counter, base_value), setup) = repeat_setup(|| {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let (c, _) = open(&dir, None)?;
        // The sequential reference: one writer's acks, each its own fsync.
        let mut total = 0;
        for i in 0..SEQ_ACKS {
            let a = amount(cfg.seed, WRITERS, i);
            c.increment(a);
            total += a;
        }
        drop(c);
        // Reopen: recovery replays the reference's log.
        let t0 = Instant::now();
        let (c, recovered) = open(&dir, registry.as_ref())?;
        recover_ns.push(t0.elapsed().as_nanos() as f64);
        if recovered != total {
            return Err(format!("setup recovered {recovered}, acked {total}"));
        }
        Ok((c, total))
    })?;

    let (mut out, m) = measure(cfg, &counter, tracer)?;
    out.setup = Some(setup);

    // Every acked increment must survive a clean restart.
    drop(counter);
    let (reopened, recovered) = open(&dir, None)?;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    if recovered != base_value + m.acked {
        out.failed = out.ops;
    }

    if let (Some(t), Some(reg)) = (tracer, registry) {
        out.spans = t.spans();
        let acks = out.ops.max(1) as f64;
        let fsync = reg.histogram(&format!("{PREFIX}.wal.fsync_ns")).snapshot();
        let batch = reg
            .histogram(&format!("{PREFIX}.wal.batch_records"))
            .snapshot();
        let mut ack = durations(&out.spans, "durable.ack");
        let fsync_p50 = hist_quantile(&fsync, 0.5);
        let n = fsync.count();
        out.counter_layer(&m.stats, out.ops);
        let wal = m.wal;
        out.layer.extend([
            (
                "durable.fsyncs_per_ack",
                wal.fsyncs as f64 / acks,
                out.ops,
                String::new(),
            ),
            (
                "durable.batch_records_p50",
                batch.p50() as f64,
                batch.count(),
                String::new(),
            ),
            (
                "durable.fsync_us_p50",
                fsync_p50 / 1e3,
                n,
                "wal.fsync_ns histogram".into(),
            ),
            (
                "durable.fsync_us_p99",
                hist_quantile(&fsync, 0.99) / 1e3,
                n,
                "wal.fsync_ns histogram".into(),
            ),
            (
                "durable.ack_queue_us_p50",
                (percentile(&mut ack, 50.0) - fsync_p50) / 1e3,
                ack.len() as u64,
                "ack p50 minus fsync p50".into(),
            ),
            (
                "durable.snapshots_per_kack",
                wal.snapshots as f64 * 1e3 / acks,
                out.ops,
                String::new(),
            ),
            (
                "durable.retries",
                wal.retries as f64,
                out.ops,
                String::new(),
            ),
            (
                "durable.recover_ms",
                median(&recover_ns) / 1e6,
                recover_ns.len() as u64,
                format!("reopen replaying {SEQ_ACKS} records"),
            ),
        ]);
    }
    Ok(out)
}

/// What the measured loop leaves beside its [`Outcome`].
struct SliceTotals {
    /// Sum of every acked amount, the single-writer references' included.
    acked: u64,
    /// WAL fsyncs, snapshots and retries during the two-writer slices.
    wal: WalStats,
    /// Inner-counter statistics gained during the two-writer slices.
    stats: StatsSnapshot,
}

/// Slices of the writers' closed loops until the deadline, each followed
/// by [`SEQ_SLICE_ACKS`] acks from one thread placed as writer 0, so
/// `speedup_vs_seq` compares the two under the same disk conditions.
fn measure(
    cfg: &Config,
    c: &DurableCounter<Counter>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Outcome, SliceTotals), String> {
    let mut out = Outcome::default();
    let (mut acked, mut ratios, mut seq_ops) = (0, Vec::new(), 0);
    let (mut wal, mut stats) = (WalStats::default(), StatsSnapshot::default());
    let deadline = cfg.deadline(Instant::now());
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let slice = left.min(Duration::from_secs_f64(SLICE_SECONDS));
        let (wal0, stats0) = (c.wal_stats(), c.inner().stats());
        let (ops, wall) = slice_run(cfg, c, out.ops, slice, tracer, &mut out, &mut acked)?;
        let wal1 = c.wal_stats();
        wal.fsyncs += wal1.fsyncs - wal0.fsyncs;
        wal.snapshots += wal1.snapshots - wal0.snapshots;
        wal.retries += wal1.retries - wal0.retries;
        add_stats(&mut stats, &sub_stats(&c.inner().stats(), &stats0));
        out.ops += ops;
        out.wall += wall;
        out.windows.push((ops, wall));
        let (seq_ns, sum) = super::on_app_thread(|| {
            let (t0, mut sum) = (Instant::now(), 0);
            for i in seq_ops..seq_ops + SEQ_SLICE_ACKS {
                let a = amount(cfg.seed, WRITERS + 1, i);
                c.increment(a);
                sum += a;
            }
            Ok((t0.elapsed().as_nanos() as f64 / SEQ_SLICE_ACKS as f64, sum))
        })?;
        acked += sum;
        seq_ops += SEQ_SLICE_ACKS;
        ratios.push(seq_ns / (wall.as_nanos() as f64 / ops.max(1) as f64));
    }
    out.speedup = median(&ratios);
    Ok((out, SliceTotals { acked, wal, stats }))
}

/// One writer's share of a slice.
struct Writer {
    ops: u64,
    /// Sum of the amounts it had acked.
    sum: u64,
    latency_ns: Vec<f64>,
    start_ns: u64,
    end_ns: u64,
    mask: String,
}

/// One slice of both writers' loops; op ids continue from `first_op`.
/// Returns the acks and the slice's wall time; latencies and placement go
/// into `out`, the acked amounts into `acked`.
fn slice_run(
    cfg: &Config,
    c: &DurableCounter<Counter>,
    first_op: u64,
    slice: Duration,
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
    acked: &mut u64,
) -> Result<(u64, Duration), String> {
    let gate = Barrier::new(WRITERS as usize);
    let base = Instant::now();
    let results: Vec<Result<Writer, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let gate = &gate;
                s.spawn(move || {
                    let pinned = pin(w as usize);
                    gate.wait();
                    let start = base.elapsed().as_nanos() as u64;
                    let deadline = Instant::now() + slice;
                    let (mut ops, mut sum) = (0u64, 0u64);
                    let mut lat = Vec::with_capacity(1 << 16);
                    while Instant::now() < deadline {
                        let id = first_op + ops * WRITERS + w;
                        let a = amount(cfg.seed, w, id);
                        let _op = tracer.map(|t| t.op("durable.ack", id, false));
                        let t0 = Instant::now();
                        c.increment(a);
                        lat.push(t0.elapsed().as_nanos() as f64);
                        ops += 1;
                        sum += a;
                    }
                    Ok(Writer {
                        ops,
                        sum,
                        latency_ns: lat,
                        start_ns: start,
                        end_ns: base.elapsed().as_nanos() as u64,
                        mask: pinned?,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("durable writer panicked"))
            .collect()
    });
    let (mut first, mut last, mut acks) = (u64::MAX, 0, 0);
    let mut masks = Vec::new();
    for r in results {
        let w = r?;
        acks += w.ops;
        *acked += w.sum;
        out.latency_ns.extend(w.latency_ns);
        first = first.min(w.start_ns);
        last = last.max(w.end_ns);
        masks.push(w.mask);
    }
    out.placement = super::placement_label(&masks);
    Ok((acks, Duration::from_nanos(last.saturating_sub(first))))
}
