//! **E3** — Mutual exclusion with sequential ordering (paper Section 5.2).
//!
//! Claims: (1) the lock version of the accumulation is nondeterministic for
//! non-associative folds; the counter version produces the identical result
//! on every run, equal to the sequential program's. (2) "The counter program
//! has greater determinacy at the cost of less concurrency" — the cost is
//! measurable but bounded when the fold is cheap relative to the compute.
//!
//! Usage: `cargo run --release -p mc-bench --bin e3_table [--quick] [--json]`

use mc_algos::accumulate;
use mc_bench::{fmt_duration, measure, Report, Table};
use std::collections::HashSet;

/// A compute phase heavy enough to dominate the fold, as in the paper's
/// scenario (subresults are "computed concurrently").
fn compute(i: usize) -> f64 {
    let mut acc = accumulate::skewed_float(i);
    for k in 0..2_000u64 {
        acc = (acc * 1.000001).sin() + k as f64 * 1e-9;
    }
    acc + accumulate::skewed_float(i)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (n, det_runs, time_runs) = if quick { (32, 10, 2) } else { (64, 30, 3) };

    // Determinacy: how many distinct f64 results do repeated runs produce?
    // The compute phase contains preemption points so the scheduler genuinely
    // varies thread completion order.
    let lock_outcomes: HashSet<u64> = (0..det_runs)
        .map(|_| {
            accumulate::with_lock(n, 0.0f64, accumulate::skewed_float_yielding, |a, s| *a += s)
                .to_bits()
        })
        .collect();
    let counter_outcomes: HashSet<u64> = (0..det_runs)
        .map(|_| {
            accumulate::with_counter(n, 0.0f64, accumulate::skewed_float_yielding, |a, s| *a += s)
                .to_bits()
        })
        .collect();
    let sequential_result =
        accumulate::sequential(n, 0.0f64, accumulate::skewed_float_yielding, |a, s| *a += s)
            .to_bits();
    let counter_matches = counter_outcomes.iter().all(|&b| b == sequential_result);

    // Throughput: cost of the ordering when compute dominates.
    let t_lock = measure(time_runs, || {
        std::hint::black_box(accumulate::with_lock(n, 0.0f64, compute, |a, s| *a += s));
    });
    let t_counter = measure(time_runs, || {
        std::hint::black_box(accumulate::with_counter(n, 0.0f64, compute, |a, s| *a += s));
    });
    let t_seq = measure(time_runs, || {
        std::hint::black_box(accumulate::sequential(n, 0.0f64, compute, |a, s| *a += s));
    });

    let mut table = Table::new(
        "E3: ordered accumulation — lock vs counter (sequential ordering)",
        &[
            "variant",
            "distinct results over runs",
            "== sequential result",
            "time (median)",
        ],
    );
    table.row(vec![
        format!("lock ({det_runs} runs)"),
        lock_outcomes.len().to_string(),
        lock_outcomes
            .iter()
            .all(|&b| b == sequential_result)
            .to_string(),
        fmt_duration(t_lock.median),
    ]);
    table.row(vec![
        format!("counter ({det_runs} runs)"),
        counter_outcomes.len().to_string(),
        counter_matches.to_string(),
        fmt_duration(t_counter.median),
    ]);
    table.row(vec![
        "sequential".to_string(),
        "1".to_string(),
        "true".to_string(),
        fmt_duration(t_seq.median),
    ]);
    let mut report = Report::new("e3", &args);
    report.table(table);
    report.metric("counter_distinct_results", counter_outcomes.len() as f64);
    report.metric(
        "counter_matches_sequential",
        u8::from(counter_matches).into(),
    );
    report.note(
        "Shape check (paper): counter yields exactly 1 distinct result, always equal to the\n\
         sequential program; the lock version typically yields several; the ordering costs\n\
         little when compute dominates the fold. Gated: the counter row; the lock row is\n\
         nondeterministic by design.",
    );
    report.shape_check(counter_outcomes.len() == 1 && counter_matches);
    report.finish();
}
