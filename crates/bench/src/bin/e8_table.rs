//! **E8** — Zero-contention fast paths (packed-word redesign).
//!
//! The redesigned core counter keeps `(value hint, has-waiters)` packed in
//! one `AtomicU64` so the two operations that dominate real programs stay
//! lock-free: an uncontended `increment` is a single CAS and a satisfied
//! `check` is a single acquire load. This experiment quantifies the claim
//! with an ablation the other tables cannot provide: `Counter::mutex_only()`
//! is the *same* wait-list algorithm with the fast tier disabled, so the
//! speedup column isolates exactly what the packed word buys.
//!
//! Each row also runs a waiter-free workload and reports the counter's own
//! path statistics; the fast-path implementations must finish it with zero
//! slow-path (mutex) entries.
//!
//! The "waitlist cursor" row runs the same operations through one
//! `Cursor` on a fast-path `Counter`: a check at or below the highest value
//! the cursor has observed costs no atomic operation, and neither
//! operation updates the shared statistics until the cursor drops.
//!
//! The "scraped" row runs the fast-path `Counter` registered with a
//! supervisor that has metrics attached and scrapes its stats every 1 ms
//! on its watch thread: the price of exporting a counter's statistics.
//! Its overhead is timed in pairs against the same counter unregistered
//! ([`measure_pair`]), so host drift between rows does not enter it.
//!
//! Usage: `cargo run --release -p mc-bench --bin e8_table [--quick] [--json]`

use mc_bench::{measure, measure_pair, PairRatio, Report, Table};
use mc_counter::{
    BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, NaiveCounter, SpinCounter,
    StatsSnapshot, Supervisor, SupervisorConfig,
};
use mc_metrics::Registry;
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-op nanoseconds for `ops` uncontended `increment(1)` calls.
fn time_increment<C: MonotonicCounter, H: Borrow<C>>(
    make: &dyn Fn() -> H,
    ops: usize,
    runs: usize,
) -> f64 {
    let t = measure(runs, || {
        let c = make();
        for _ in 0..ops {
            c.borrow().increment(1);
        }
        std::hint::black_box(&c);
    });
    t.median.as_nanos() as f64 / ops as f64
}

/// One timed loop of `ops` uncontended `increment(1)` calls on `c`: a
/// half of a [`measure_pair`] pair.
fn time_loop<C: MonotonicCounter>(c: &C, ops: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..ops {
        c.increment(1);
    }
    std::hint::black_box(c);
    t0.elapsed()
}

/// Per-op nanoseconds for `ops` always-satisfied `check(level)` calls.
fn time_check<C: MonotonicCounter, H: Borrow<C>>(
    make: &dyn Fn() -> H,
    ops: usize,
    runs: usize,
) -> f64 {
    let h = make();
    let c = h.borrow();
    c.increment(u64::MAX / 2);
    let t = measure(runs, || {
        for i in 0..ops as u64 {
            c.check(i % 1_000_000);
        }
        std::hint::black_box(c);
    });
    t.median.as_nanos() as f64 / ops as f64
}

/// Runs the waiter-free mixed workload and returns the counter's stats.
fn path_stats<C: MonotonicCounter + CounterDiagnostics, H: Borrow<C>>(
    make: &dyn Fn() -> H,
    ops: usize,
) -> StatsSnapshot {
    let h = make();
    let c = h.borrow();
    for i in 0..ops as u64 {
        c.increment(1);
        c.check(i / 2);
    }
    c.stats()
}

/// [`time_increment`] through one cursor on a fast-path `Counter`.
fn time_cursor_increment(ops: usize, runs: usize) -> f64 {
    let t = measure(runs, || {
        let c = Counter::default();
        let mut cursor = c.cursor();
        for _ in 0..ops {
            cursor.increment(1);
        }
        drop(cursor);
        std::hint::black_box(&c);
    });
    t.median.as_nanos() as f64 / ops as f64
}

/// [`time_check`] through one cursor per run: its first check observes the
/// value, and every later one is at or below it.
fn time_cursor_check(ops: usize, runs: usize) -> f64 {
    let c = Counter::default();
    c.increment(u64::MAX / 2);
    let t = measure(runs, || {
        let mut cursor = c.cursor();
        for i in 0..ops as u64 {
            cursor.check(i % 1_000_000);
        }
        drop(cursor);
        std::hint::black_box(&c);
    });
    t.median.as_nanos() as f64 / ops as f64
}

/// [`path_stats`] through one cursor, read after it drops.
fn cursor_path_stats(ops: usize) -> StatsSnapshot {
    let c = Counter::default();
    let mut cursor = c.cursor();
    for i in 0..ops as u64 {
        cursor.increment(1);
        cursor.check(i / 2);
    }
    drop(cursor);
    c.stats()
}

/// Operations per timed loop.
fn ops(quick: bool) -> usize {
    if quick {
        100_000
    } else {
        1_000_000
    }
}

/// Timed loops per measurement. Quick mode keeps the full run count: the
/// gate bounds these ratios, and a 3-run median dips below the floor on
/// noise.
const RUNS: usize = 5;

/// Pairs behind `scrape_overhead`, in quick mode too.
const PAIRS: usize = 31;

struct Row {
    inc_ns: f64,
    check_ns: f64,
    slow_entries: u64,
}

/// One row for the counters `make` builds, returned bare or, for a counter
/// that must be registered, in an `Arc`.
fn bench_impl<C: MonotonicCounter + CounterDiagnostics, H: Borrow<C>>(
    name: &str,
    make: &dyn Fn() -> H,
    table: &mut Table,
    quick: bool,
    baseline: Option<&Row>,
) -> Row {
    let ops = ops(quick);
    let inc_ns = time_increment(make, ops, RUNS);
    let check_ns = time_check(make, ops, RUNS);
    let paths = path_stats(make, ops);
    push_row(table, name, (inc_ns, check_ns), paths, ops, baseline)
}

/// The "waitlist cursor" row: [`bench_impl`] through a cursor.
fn bench_cursor(table: &mut Table, quick: bool, baseline: &Row) -> Row {
    let ops = ops(quick);
    let inc_ns = time_cursor_increment(ops, RUNS);
    let check_ns = time_cursor_check(ops, RUNS);
    let paths = cursor_path_stats(ops);
    let name = "waitlist cursor";
    push_row(table, name, (inc_ns, check_ns), paths, ops, Some(baseline))
}

/// The "scraped" row: the fast-path counter, registered with a supervisor
/// whose watch thread scrapes its stats into a registry every 1 ms. Also
/// returns its paired ratio to the same counter unregistered (on the heap
/// alike, so that placement does not enter the ratio), the
/// `scrape_overhead` metric, and how many scrapes ran.
fn bench_scraped(table: &mut Table, quick: bool, baseline: &Row) -> (PairRatio, u64) {
    let registry = Arc::new(Registry::new());
    let sup = Supervisor::with_config(SupervisorConfig {
        interval: Duration::from_millis(1),
        ..SupervisorConfig::default()
    });
    sup.attach_metrics(&registry, "e8");
    sup.start();
    let make_scraped = || {
        let c = Arc::new(Counter::default());
        sup.register("scraped", &c);
        c
    };
    bench_impl::<Counter, _>("scraped", &make_scraped, table, quick, Some(baseline));
    let ops = ops(quick);
    let ratio = measure_pair(
        || time_loop(&*Arc::new(Counter::default()), ops),
        || time_loop(&*make_scraped(), ops),
        PAIRS,
    );
    sup.stop();
    (ratio, registry.event("e8.ticks").get())
}

fn push_row(
    table: &mut Table,
    name: &str,
    (inc_ns, check_ns): (f64, f64),
    paths: StatsSnapshot,
    ops: usize,
    baseline: Option<&Row>,
) -> Row {
    let speedup = |base_ns: f64, ns: f64| format!("{:.1}x", base_ns / ns);
    table.row(vec![
        name.to_string(),
        format!("{inc_ns:.1}ns"),
        baseline.map_or_else(|| "1.0x".into(), |b| speedup(b.inc_ns, inc_ns)),
        format!("{check_ns:.1}ns"),
        baseline.map_or_else(|| "1.0x".into(), |b| speedup(b.check_ns, check_ns)),
        format!("{}/{ops}", paths.fast_increments),
        format!("{}/{ops}", paths.fast_checks),
        paths.slow_path_entries.to_string(),
    ]);
    Row {
        inc_ns,
        check_ns,
        slow_entries: paths.slow_path_entries,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    let mut table = Table::new(
        "E8: packed-word fast paths vs mutex-only ablation (waiter-free workload)",
        &[
            "impl",
            "increment",
            "speedup",
            "check",
            "speedup",
            "fast incs",
            "fast checks",
            "slow entries",
        ],
    );

    let base = bench_impl::<Counter, _>(
        "waitlist mutex-only (ablation)",
        &Counter::mutex_only,
        &mut table,
        quick,
        None,
    );
    let fast = bench_impl::<Counter, _>(
        "waitlist fast-path",
        &Counter::default,
        &mut table,
        quick,
        Some(&base),
    );
    let cursor = bench_cursor(&mut table, quick, &base);
    bench_impl::<BTreeCounter, _>(
        "btree",
        &BTreeCounter::default,
        &mut table,
        quick,
        Some(&base),
    );
    bench_impl::<SpinCounter, _>(
        "spin",
        &SpinCounter::default,
        &mut table,
        quick,
        Some(&base),
    );
    bench_impl::<NaiveCounter, _>(
        "naive-broadcast",
        &NaiveCounter::default,
        &mut table,
        quick,
        Some(&base),
    );
    let (scrape, scrapes) = bench_scraped(&mut table, quick, &base);

    let mut report = Report::new("e8", &args);
    report.table(table);

    let inc_speedup = base.inc_ns / fast.inc_ns;
    let check_speedup = base.check_ns / fast.check_ns;
    let cursor_check_speedup = fast.check_ns / cursor.check_ns;
    report.metric("inc_speedup", inc_speedup);
    report.metric("check_speedup", check_speedup);
    report.metric("slow_entries", fast.slow_entries as f64);
    report.metric("fast_inc_ns", fast.inc_ns);
    report.metric("fast_check_ns", fast.check_ns);
    report.metric("cursor_inc_ns", cursor.inc_ns);
    report.metric("cursor_check_ns", cursor.check_ns);
    report.metric("cursor_check_speedup", cursor_check_speedup);
    report.metric("scrape_overhead", scrape.median);
    report.metric("scrape_overhead_q1", scrape.q1);
    report.metric("scrape_overhead_q3", scrape.q3);
    report.note(format!(
        "Shape check: fast-path waitlist vs its own mutex-only ablation: increment \
         {inc_speedup:.1}x, check {check_speedup:.1}x; slow-path entries on the \
         waiter-free workload: {}. Scraped every 1 ms by a supervisor with metrics \
         attached ({scrapes} scrapes): {:.2}x the bare fast-path increment, the median \
         of {PAIRS} paired ratios, quartiles [{:.2}, {:.2}]. Through a cursor: check \
         {cursor_check_speedup:.1}x the fast-path check, increment {:.1}ns against \
         {:.1}ns (not gated); slow-path entries {}.",
        fast.slow_entries,
        scrape.median,
        scrape.q1,
        scrape.q3,
        cursor.inc_ns,
        fast.inc_ns,
        cursor.slow_entries
    ));
    report.finish();
}
