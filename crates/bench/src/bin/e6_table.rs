//! **E6** — Determinacy and sequential equivalence (paper Section 6).
//!
//! Claims: (1) with guarded shared variables, a counter-only program is
//! deterministic across executions; (2) its multithreaded execution equals
//! its sequential execution; (3) the happens-before conditions ("a transitive
//! chain of counter operations between conflicting accesses") are checkable,
//! and the paper's erroneous example is caught.
//!
//! Usage: `cargo run --release -p mc-bench --bin e6_table [--quick] [--json]`

use mc_algos::{accumulate, floyd_warshall as fw, graph, heat};
use mc_bench::{Report, Table};
use mc_detcheck::{Checker, Shared, TrackedCounter};
use std::collections::HashSet;

fn distinct_outcomes(runs: usize, f: impl Fn() -> u64) -> usize {
    (0..runs).map(|_| f()).collect::<HashSet<_>>().len()
}

fn hash_matrix(m: &mc_algos::SquareMatrix) -> u64 {
    // FNV-1a over the row-major weights.
    let mut h = 0xcbf29ce484222325u64;
    for &w in m.as_slice() {
        h ^= w as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let runs = if quick { 8 } else { 25 };

    let mut table = Table::new(
        "E6: determinacy — distinct outcomes across repeated multithreaded runs",
        &["program", "sync", "runs", "distinct", "== sequential"],
    );

    // Floyd-Warshall with counters.
    let edge = graph::random_graph(32, 0.5, 7);
    let seq_hash = hash_matrix(&fw::sequential(&edge));
    let fw_distinct = distinct_outcomes(runs, || hash_matrix(&fw::with_counter(&edge, 4)));
    let fw_equal = (0..runs).all(|_| hash_matrix(&fw::with_counter(&edge, 4)) == seq_hash);
    table.row(vec![
        "floyd-warshall (N=32, 4 thr)".into(),
        "counter".into(),
        runs.to_string(),
        fw_distinct.to_string(),
        fw_equal.to_string(),
    ]);

    // Heat simulation with ragged counters.
    let rod = heat::hot_left_rod(16, 100.0);
    let heat_seq = heat::sequential(&rod, 50);
    let heat_hash = |v: &[f64]| {
        let mut h = 0xcbf29ce484222325u64;
        for x in v {
            h ^= x.to_bits();
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    };
    let heat_distinct = distinct_outcomes(runs, || heat_hash(&heat::with_ragged(&rod, 50)));
    let heat_equal = heat_hash(&heat_seq) == heat_hash(&heat::with_ragged(&rod, 50));
    table.row(vec![
        "heat (16 cells, 50 steps)".into(),
        "counter (ragged)".into(),
        runs.to_string(),
        heat_distinct.to_string(),
        heat_equal.to_string(),
    ]);

    // Ordered accumulation: counter vs lock.
    let n = 64;
    let seq_sum =
        accumulate::sequential(n, 0.0f64, accumulate::skewed_float_yielding, |a, s| *a += s)
            .to_bits();
    let counter_distinct = distinct_outcomes(runs, || {
        accumulate::with_counter(n, 0.0f64, accumulate::skewed_float_yielding, |a, s| *a += s)
            .to_bits()
    });
    let counter_eq = (0..runs).all(|_| {
        accumulate::with_counter(n, 0.0f64, accumulate::skewed_float_yielding, |a, s| *a += s)
            .to_bits()
            == seq_sum
    });
    let lock_distinct = distinct_outcomes(runs, || {
        accumulate::with_lock(n, 0.0f64, accumulate::skewed_float_yielding, |a, s| *a += s)
            .to_bits()
    });
    table.row(vec![
        "float accumulation (64 items)".into(),
        "counter".into(),
        runs.to_string(),
        counter_distinct.to_string(),
        counter_eq.to_string(),
    ]);
    table.row(vec![
        "float accumulation (64 items)".into(),
        "lock".into(),
        runs.to_string(),
        lock_distinct.to_string(),
        "(n/a: order is scheduler-chosen)".into(),
    ]);
    let mut report = Report::new("e6", &args);
    report.table(table);
    let counter_distinct_max = fw_distinct.max(heat_distinct).max(counter_distinct);
    let counter_matches = fw_equal && heat_equal && counter_eq;
    report.metric("counter_distinct_max", counter_distinct_max as f64);
    report.metric(
        "counter_matches_sequential",
        u8::from(counter_matches).into(),
    );

    // Happens-before conditions: the paper's Section 6 example and its
    // erroneous variant, through the dynamic checker.
    let mut table2 = Table::new(
        "E6b: happens-before checker on the paper's Section 6 programs",
        &["program", "verdict"],
    );
    // Correct: Check(0)/Check(1) chain.
    let verdict_ok = {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 3i64);
        let c = TrackedCounter::new();
        let a = root.fork();
        let b = root.fork();
        std::thread::scope(|s| {
            s.spawn(|| {
                c.check(&a, 0);
                x.update(&a, |v| *v += 1);
                c.increment(&a, 1);
            });
            s.spawn(|| {
                c.check(&b, 1);
                x.update(&b, |v| *v *= 2);
                c.increment(&b, 1);
            });
        });
        root.join(a);
        root.join(b);
        checker.report()
    };
    table2.row(vec![
        "{Check(0); x+=1; Inc(1)} || {Check(1); x*=2; Inc(1)}".into(),
        if verdict_ok.is_clean() {
            "clean (deterministic)".into()
        } else {
            format!("{} races", verdict_ok.races.len())
        },
    ]);
    // Erroneous: both Check(0).
    let verdict_racy = {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 3i64);
        let c = TrackedCounter::new();
        let a = root.fork();
        let b = root.fork();
        c.check(&a, 0);
        x.update(&a, |v| *v += 1);
        c.increment(&a, 1);
        c.check(&b, 0);
        x.update(&b, |v| *v *= 2);
        c.increment(&b, 1);
        checker.report()
    };
    table2.row(vec![
        "{Check(0); x+=1; Inc(1)} || {Check(0); x*=2; Inc(1)}".into(),
        if verdict_racy.is_clean() {
            "clean (UNEXPECTED)".into()
        } else {
            format!("RACE detected ({})", verdict_racy.races[0])
        },
    ]);
    report.table(table2);
    let verdicts_right = verdict_ok.is_clean() && !verdict_racy.is_clean();
    report.metric("checker_verdicts_right", u8::from(verdicts_right).into());
    report.note(
        "Shape check (paper): every counter-synchronized program shows exactly 1 distinct\n\
         outcome equal to its sequential execution; the lock program shows several; the\n\
         checker passes the correct Section 6 program and flags the erroneous one. Gated:\n\
         the counter rows and the checker; the lock row is nondeterministic by design.",
    );
    report.shape_check(counter_distinct_max == 1 && counter_matches && verdicts_right);
    report.finish();
}
