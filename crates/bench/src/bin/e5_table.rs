//! **E5** — Storage and time proportional to *levels*, not *threads* (paper
//! Section 7).
//!
//! Claim: "The storage requirements of a counter are proportional to the
//! number of different levels at which threads are waiting ... The time
//! complexity of Check and Increment operations is also proportional to the
//! number of different levels at which threads are waiting, not to the total
//! number of waiting threads."
//!
//! Usage: `cargo run --release -p mc-bench --bin e5_table [--quick] [--json]`

use mc_bench::{fmt_duration, measure, Report, Table};
use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter};
use std::sync::Arc;

/// Parks `threads` waiters spread over `levels` distinct levels, then
/// releases them with unit increments; returns (max_live_nodes, broadcasts,
/// release_time).
fn park_and_release(threads: usize, levels: usize) -> (u64, u64, std::time::Duration) {
    assert!(levels <= threads);
    let c = Arc::new(Counter::default());
    let mut handles = Vec::with_capacity(threads);
    for i in 0..threads {
        let c = Arc::clone(&c);
        // Levels 1..=levels, evenly loaded.
        let level = (i % levels + 1) as u64;
        handles.push(std::thread::spawn(move || c.check(level)));
    }
    while c.stats().live_waiters < threads as u64 {
        std::thread::yield_now();
    }
    let max_nodes = c.stats().live_nodes;
    let t0 = std::time::Instant::now();
    for _ in 0..levels {
        c.increment(1);
    }
    for h in handles {
        h.join().expect("waiter panicked");
    }
    let dt = t0.elapsed();
    (max_nodes, c.stats().notifies, dt)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    let mut table = Table::new(
        "E5: wait-node storage and wakeup work scale with LEVELS, not THREADS",
        &[
            "threads",
            "distinct levels",
            "live wait nodes",
            "broadcasts",
            "release time",
        ],
    );

    // The largest |live wait nodes - levels| and |broadcasts - levels| over
    // the rows: both claims are exact, so both must read 0.
    let (mut node_excess, mut broadcast_excess) = (0, 0);
    // Sweep threads at fixed levels: nodes must stay constant.
    let fixed_levels = 4;
    let thread_sweep: &[usize] = if quick { &[8, 32] } else { &[8, 32, 128] };
    for &t in thread_sweep {
        let (nodes, notifies, dt) = park_and_release(t, fixed_levels);
        node_excess = node_excess.max(nodes.abs_diff(fixed_levels as u64));
        broadcast_excess = broadcast_excess.max(notifies.abs_diff(fixed_levels as u64));
        table.row(vec![
            t.to_string(),
            fixed_levels.to_string(),
            nodes.to_string(),
            notifies.to_string(),
            fmt_duration(dt),
        ]);
    }
    // Sweep levels at fixed threads: nodes must track levels.
    let fixed_threads = if quick { 32 } else { 128 };
    let level_sweep: &[usize] = if quick { &[1, 8, 32] } else { &[1, 8, 32, 128] };
    for &l in level_sweep {
        let (nodes, notifies, dt) = park_and_release(fixed_threads, l);
        node_excess = node_excess.max(nodes.abs_diff(l as u64));
        broadcast_excess = broadcast_excess.max(notifies.abs_diff(l as u64));
        table.row(vec![
            fixed_threads.to_string(),
            l.to_string(),
            nodes.to_string(),
            notifies.to_string(),
            fmt_duration(dt),
        ]);
    }
    let mut report = Report::new("e5", &args);
    report.table(table);
    report.metric("node_excess", node_excess as f64);
    report.metric("broadcast_excess", broadcast_excess as f64);

    // Also time uncontended operations vs list length (the O(levels) walk of
    // the sorted list).
    let mut table2 = Table::new(
        "E5b: uncontended Increment cost vs resident wait-list length",
        &["resident levels", "time per increment(0) probe"],
    );
    let sweep: &[usize] = if quick {
        &[0, 1, 64]
    } else {
        &[0, 1, 16, 256, 1024]
    };
    for &l in sweep {
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for i in 0..l {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || c.check(i as u64 + 1_000_000)));
        }
        while (c.stats().live_waiters as usize) < l {
            std::thread::yield_now();
        }
        // increment(0) traverses nothing but takes the lock; increment(0)
        // with a populated list measures fixed overhead, so instead probe
        // with checks below all levels (list search) via timing increments
        // that satisfy nothing.
        let t = measure(if quick { 3 } else { 5 }, || {
            for _ in 0..1_000 {
                c.increment(0);
            }
        });
        table2.row(vec![l.to_string(), fmt_duration(t.median / 1_000)]);
        c.increment(2_000_000);
        for h in handles {
            h.join().expect("waiter panicked");
        }
    }
    report.table(table2);
    report.note(
        "Shape check (paper): live wait nodes == distinct levels in every row, independent\n\
         of thread count; broadcasts == levels (one notify_all per satisfied level).",
    );
    report.finish();
}
