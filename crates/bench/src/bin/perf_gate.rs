//! **perf_gate** — applies `bench_baselines.json` to the
//! `results/BENCH_<exp>.json` reports on disk.
//!
//! Each report is judged by [`mc_bench::gate::evaluate_report`]: the
//! evaluator its table's `Report::finish` applied, on the metrics the
//! report recorded. So this prints the same `PERF-GATE <exp>: <metric> ...`
//! lines as the tables that wrote the reports, then a final verdict:
//!
//! ```text
//! PERF-GATE: PASS
//! PERF-GATE: FAIL
//! ```
//!
//! `FAIL` exits non-zero. A missing report of a bounded experiment fails:
//! its table crashed before writing it.
//!
//! Usage: `cargo run --release -p mc-bench --bin perf_gate`

use mc_bench::gate::{self, Verdict};
use mc_bench::{results_dir, Shape};

fn main() {
    let baselines = gate::baselines().unwrap_or_else(|e| {
        println!("PERF-GATE: FAIL ({e})");
        std::process::exit(1);
    });
    let Some(experiments) = baselines.as_obj() else {
        println!("PERF-GATE: FAIL (bench_baselines.json is not an object)");
        std::process::exit(1);
    };
    let mut failed = false;
    for (exp, _) in experiments {
        let verdict = match gate::load(&results_dir().join(format!("BENCH_{exp}.json"))) {
            Ok(report) => gate::evaluate_report(exp, &baselines, &report),
            Err(e) => Verdict::fail(exp, &format!("missing report ({e})")),
        };
        for line in &verdict.lines {
            println!("{line}");
        }
        failed |= verdict.shape == Shape::Fail;
    }
    if failed {
        println!("PERF-GATE: FAIL");
        std::process::exit(1);
    }
    println!("PERF-GATE: PASS");
}
