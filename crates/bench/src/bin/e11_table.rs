//! **E11** — Sharded high-contention increments.
//!
//! The packed-word fast path (E8) makes the *uncontended* increment one CAS,
//! but under all-writer contention every thread still CASes the same word.
//! `ShardedCounter` stripes increments across cache-line-padded per-thread
//! cells and publishes the running sum into the packed word, so the
//! contended-increment cost becomes a fetch-add on a private line.
//!
//! Two tables:
//!
//! 1. **All-writer throughput** — total increments/second with 1, 2, 4, 8
//!    threads hammering one counter, for `ShardedCounter` vs the waitlist
//!    `Counter`.
//! 2. **Waiter latency** — time from the increment that satisfies a waiter's
//!    level to the waiter resuming, sharded vs waitlist: the price the
//!    waiter-aware eager flush pays for the throughput.
//!
//! Shape check (multi-core hosts only): at the highest thread count the
//! sharded counter must beat the waitlist counter by ≥3x on all-writer
//! throughput, while its waiter latency stays within 2x.
//!
//! Usage: `cargo run --release -p mc-bench --bin e11_table [--quick] [--json]`

use mc_bench::{Report, Table};
use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter, ShardedCounter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Total increments/second with `threads` writers hammering one counter.
fn throughput<C: MonotonicCounter + 'static>(
    make: impl Fn() -> C,
    threads: usize,
    ops: u64,
) -> f64 {
    // Median of 3 trials to damp scheduler noise.
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let c = Arc::new(make());
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        for _ in 0..ops {
                            c.increment(1);
                        }
                    });
                }
            });
            (threads as u64 * ops) as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[1]
}

/// Median time from the satisfying increment to the waiter's resumption,
/// with `writers` background threads keeping the counter contended.
fn waiter_latency<C: MonotonicCounter + CounterDiagnostics + 'static>(
    make: impl Fn() -> C,
    writers: usize,
    rounds: u64,
) -> Duration {
    let c = Arc::new(make());
    let stop = Arc::new(AtomicBool::new(false));
    let mut samples = Vec::with_capacity(rounds as usize);
    std::thread::scope(|s| {
        // Background writers: contended cells, but never enough to satisfy
        // the measured level (they increment by 0 — schedule pressure only).
        for _ in 0..writers {
            let (c, stop) = (Arc::clone(&c), Arc::clone(&stop));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    c.increment(0);
                }
            });
        }
        let mut level = 0u64;
        for _ in 0..rounds {
            level += 1_000;
            let waiter = {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    c.check(level);
                    Instant::now()
                })
            };
            while c.stats().live_waiters == 0 {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            c.increment(1_000);
            let resumed = waiter.join().unwrap();
            samples.push(resumed.duration_since(t0));
        }
        stop.store(true, Ordering::Relaxed);
    });
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ops: u64 = if quick { 50_000 } else { 500_000 };
    let rounds: u64 = if quick { 20 } else { 100 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = Table::new(
        "E11: all-writer increment throughput (ops/sec, total across threads)",
        &["threads", "waitlist", "sharded", "sharded vs waitlist"],
    );
    let mut highest_ratio = 0.0f64;
    for &threads in &[1usize, 2, 4, 8] {
        let waitlist = throughput(Counter::default, threads, ops);
        let sharded = throughput(
            || ShardedCounter::builder().shards(threads.max(4)).build(),
            threads,
            ops,
        );
        let ratio = sharded / waitlist;
        if threads == 8 {
            highest_ratio = ratio;
        }
        table.row(vec![
            threads.to_string(),
            format!("{:.1}M/s", waitlist / 1e6),
            format!("{:.1}M/s", sharded / 1e6),
            format!("{ratio:.1}x"),
        ]);
    }
    let mut report = Report::new("e11", &args);
    report.table(table);

    let mut lat = Table::new(
        "E11: waiter wakeup latency under background writers (median)",
        &["impl", "latency"],
    );
    let base_lat = waiter_latency(Counter::default, 2, rounds);
    let shard_lat = waiter_latency(|| ShardedCounter::builder().shards(4).build(), 2, rounds);
    lat.row(vec!["waitlist".into(), format!("{base_lat:?}")]);
    lat.row(vec!["sharded".into(), format!("{shard_lat:?}")]);
    report.table(lat);

    let lat_ratio = shard_lat.as_secs_f64() / base_lat.as_secs_f64().max(1e-9);
    report.metric("sharded_throughput_ratio_8t", highest_ratio);
    report.metric("waiter_latency_ratio", lat_ratio);

    // Shape check: contention relief needs real parallelism to show, and the
    // ≥3x criterion specifically assumes the 8 writers actually run in
    // parallel. Latency degradation is checked wherever the host allows.
    // `SKIPPED(<reason>)` is machine-greppable: the experiments loop and the
    // perf gate distinguish an environment skip from a silent pass.
    if cores < 2 {
        report.note(format!(
            "{cores} hw thread — all-writer contention cannot manifest."
        ));
        report.skip("single-core-host");
        report.finish();
        return;
    }
    report.note(format!(
        "Shape check: sharded vs waitlist at 8 threads: {highest_ratio:.1}x throughput \
         (need >=3x), waiter latency {lat_ratio:.1}x (need <=2x)"
    ));
    if highest_ratio < 3.0 {
        report.note("FAIL: sharded throughput advantage below 3x at 8 threads");
    }
    if lat_ratio > 2.0 {
        report.note("FAIL: sharded waiter latency more than 2x the waitlist");
    }
    report.shape_check(highest_ratio >= 3.0 && lat_ratio <= 2.0);
    report.finish();
}
