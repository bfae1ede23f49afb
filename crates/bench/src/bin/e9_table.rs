//! **E9** — Durability overhead: group-commit batching vs the in-memory
//! fast path.
//!
//! A durable counter must put every acked increment in the write-ahead log,
//! and the naive protocol (fsync per increment, `strict` mode) costs three
//! orders of magnitude over a CAS. The group-commit design recovers almost
//! all of it in `batched` mode: the increment itself is the in-memory fast
//! path plus one `SeqCst` flag load, while a dedicated flusher — synchronized
//! with writers purely through a monotonic counter — amortizes one fsync
//! over every increment that arrived since the last round.
//!
//! Rows:
//!
//! * in-memory `Counter` (baseline) — the packed-word fast path;
//! * durable, batched, uncontended — the claim under test: **≤ 2×**
//!   baseline per increment;
//! * durable, strict, uncontended — the fsync-per-increment bound, for
//!   scale;
//! * durable, strict, 8 writers — group commit under contention: the
//!   `fsyncs/op` column shows one fsync acking every concurrent writer
//!   (at least 1/8), and the `holds` column the rounds the flusher held
//!   open until all of them had enqueued. A lone writer never holds.
//!
//! A second table times each of a lone strict writer's acks (2,048 in
//! `--quick` mode, 10,000 in full) and reports p99, p99.9 and the maximum,
//! where a round that stalls once in many rounds shows.
//!
//! Each counter's WAL directory is removed after the counter is dropped,
//! outside the timed region.
//!
//! Usage: `cargo run --release -p mc-bench --bin e9_table [--quick] [--json]`

use mc_bench::{Report, Table};
use mc_counter::{Counter, MonotonicCounter};
use mc_durable::{DurabilityMode, DurableCounter, DurableOptions, PoisonPolicy, WalStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Median duration of `runs` invocations of `f`. Unlike
/// [`mc_bench::measure`], the caller times its own region — the durable
/// rows must exclude counter open/close (directory creation, flusher
/// spawn/join), which would otherwise dominate short runs.
fn median(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..runs.max(1)).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Opens a durable counter in a fresh scratch directory, runs `f` on it,
/// then drops the counter and removes the directory, outside whatever `f`
/// times.
fn with_counter<R>(
    tag: &str,
    options: DurableOptions,
    f: impl FnOnce(&DurableCounter<Counter>) -> R,
) -> R {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mc-e9-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (counter, _) =
        DurableCounter::<Counter>::open_with(&dir, options).expect("open durable counter");
    let out = f(&counter);
    drop(counter);
    std::fs::remove_dir_all(&dir).expect("remove the scratch WAL directory");
    out
}

/// Per-op nanoseconds for `ops` uncontended in-memory increments.
fn time_memory(ops: usize, runs: usize) -> f64 {
    let t = median(runs, || {
        let c = Counter::default();
        let start = Instant::now();
        for _ in 0..ops {
            c.increment(1);
        }
        let elapsed = start.elapsed();
        std::hint::black_box(&c);
        elapsed
    });
    t.as_nanos() as f64 / ops as f64
}

/// Per-op nanoseconds (and flusher stats) for `ops` uncontended durable
/// increments in `mode`. Only the increment loop is timed — exactly what a
/// caller of `increment` pays. In batched mode the flusher drains the tail
/// after the loop (completed by drop, outside the timed region), as in a
/// real workload where logging overlaps subsequent compute.
fn time_durable(tag: &str, mode: DurabilityMode, ops: usize, runs: usize) -> (f64, WalStats) {
    time_durable_opts(
        tag,
        DurableOptions {
            mode,
            ..DurableOptions::default()
        },
        ops,
        runs,
    )
}

fn time_durable_opts(
    tag: &str,
    options: DurableOptions,
    ops: usize,
    runs: usize,
) -> (f64, WalStats) {
    let mut stats = WalStats::default();
    let t = median(runs, || {
        with_counter(tag, options.clone(), |c| {
            let start = Instant::now();
            for _ in 0..ops {
                c.increment(1);
            }
            let elapsed = start.elapsed();
            std::hint::black_box(c);
            // Outside the timed region: make the tail durable so the stats
            // reflect the full cost of covering every increment.
            c.sync().expect("durable sync");
            stats = c.wal_stats();
            elapsed
        })
    });
    (t.as_nanos() as f64 / ops as f64, stats)
}

/// Per-op nanoseconds for `threads × ops` strict durable increments from
/// concurrent writers — every ack still requires the increment's record to
/// be fsynced, but one flush round covers every writer that enqueued.
fn time_group_commit(threads: usize, ops: usize, runs: usize) -> (f64, WalStats) {
    let mut stats = WalStats::default();
    let t = median(runs, || {
        with_counter("group", DurableOptions::default(), |c| {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for _ in 0..ops {
                            c.increment(1);
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            stats = c.wal_stats();
            elapsed
        })
    });
    (t.as_nanos() as f64 / (threads * ops) as f64, stats)
}

/// Sorted per-ack microseconds of `acks` strict increments from one writer.
fn lone_ack_us(acks: usize) -> Vec<f64> {
    with_counter("lone", DurableOptions::default(), |c| {
        let mut us: Vec<f64> = (0..acks)
            .map(|_| {
                let start = Instant::now();
                c.increment(1);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        us.sort_by(f64::total_cmp);
        us
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    let ops = if quick { 20_000 } else { 200_000 };
    // Strict mode pays a real fsync per uncontended increment; keep its op
    // count small enough to finish promptly.
    let strict_ops = if quick { 300 } else { 2_000 };
    let runs = if quick { 3 } else { 5 };

    let mut table = Table::new(
        "E9: durable increment overhead vs in-memory fast path",
        &[
            "configuration",
            "per-op",
            "vs memory",
            "fsyncs",
            "fsyncs/op",
            "holds",
            "hold timeouts",
        ],
    );

    let mem_ns = time_memory(ops, runs);
    table.row(vec![
        "in-memory Counter (baseline)".into(),
        format!("{mem_ns:.1}ns"),
        "1.0x".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    let (batched_ns, batched_stats) = time_durable("batched", DurabilityMode::Batched, ops, runs);
    table.row(vec![
        "durable, batched, 1 thread".into(),
        format!("{batched_ns:.1}ns"),
        format!("{:.2}x", batched_ns / mem_ns),
        batched_stats.fsyncs.to_string(),
        format!("{:.4}", batched_stats.fsyncs as f64 / ops as f64),
        batched_stats.holds.to_string(),
        batched_stats.hold_timeouts.to_string(),
    ]);

    // Same batched path under PoisonPolicy::Degrade with failpoints
    // disabled: the degrade machinery (health tracking, replay-budget
    // bookkeeping) must be free when the disk is healthy.
    let (degrade_ns, degrade_stats) = time_durable_opts(
        "batched-degrade",
        DurableOptions {
            mode: DurabilityMode::Batched,
            poison_policy: PoisonPolicy::Degrade,
            ..DurableOptions::default()
        },
        ops,
        runs,
    );
    table.row(vec![
        "durable, batched, Degrade policy".into(),
        format!("{degrade_ns:.1}ns"),
        format!("{:.2}x", degrade_ns / mem_ns),
        degrade_stats.fsyncs.to_string(),
        format!("{:.4}", degrade_stats.fsyncs as f64 / ops as f64),
        degrade_stats.holds.to_string(),
        degrade_stats.hold_timeouts.to_string(),
    ]);

    let (strict_ns, strict_stats) =
        time_durable("strict", DurabilityMode::Strict, strict_ops, runs);
    table.row(vec![
        "durable, strict, 1 thread".into(),
        format!("{strict_ns:.0}ns"),
        format!("{:.0}x", strict_ns / mem_ns),
        strict_stats.fsyncs.to_string(),
        format!("{:.4}", strict_stats.fsyncs as f64 / strict_ops as f64),
        strict_stats.holds.to_string(),
        strict_stats.hold_timeouts.to_string(),
    ]);

    let threads = 8;
    let (group_ns, group_stats) = time_group_commit(threads, strict_ops, runs);
    let group_total = (threads * strict_ops) as f64;
    table.row(vec![
        format!("durable, strict, {threads} threads"),
        format!("{group_ns:.0}ns"),
        format!("{:.0}x", group_ns / mem_ns),
        group_stats.fsyncs.to_string(),
        format!("{:.4}", group_stats.fsyncs as f64 / group_total),
        group_stats.holds.to_string(),
        group_stats.hold_timeouts.to_string(),
    ]);

    let lone_acks = if quick { 2_048 } else { 10_000 };
    let us = lone_ack_us(lone_acks);
    let quantile = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    let mut tail = Table::new(
        "E9: lone strict writer, per-ack latency",
        &["acks", "p50", "p99", "p99.9", "max"],
    );
    let mut row = vec![lone_acks.to_string()];
    row.extend([0.5, 0.99, 0.999, 1.0].map(|q| format!("{:.0}us", quantile(q))));
    tail.row(row);

    let mut report = Report::new("e9", &args);
    report.table(table);
    report.table(tail);

    let ratio = batched_ns / mem_ns;
    let degrade_ratio = degrade_ns / mem_ns;
    let amortized = group_stats.fsyncs as f64 / group_total;
    report.metric("mem_inc_ns", mem_ns);
    report.metric("batched_inc_ns", batched_ns);
    report.metric("batched_ratio", ratio);
    report.metric("degrade_ratio", degrade_ratio);
    report.metric("strict_inc_ns", strict_ns);
    report.metric("strict_holds", strict_stats.holds as f64);
    report.metric("group_fsyncs_per_op", amortized);
    report.metric("lone_ack_p99_us", quantile(0.99));
    report.metric("lone_ack_p999_us", quantile(0.999));
    report.metric("lone_ack_max_us", quantile(1.0));
    report.note(format!(
        "Shape check: batched durable increment is {ratio:.2}x the in-memory fast path \
         ({degrade_ratio:.2}x under PoisonPolicy::Degrade); strict group commit used \
         {amortized:.3} fsyncs per acked increment across {threads} writers (one fsync \
         acks all {threads} once the flusher holds each round for them; 1/{threads} is \
         the least); the lone strict writer held {} rounds (expected 0).",
        strict_stats.holds
    ));
    report.finish();
}
