//! **E10** — Static verifier throughput and mutation detection.
//!
//! The determinacy verifier (`mc-verify`) proves race- and deadlock-freedom
//! over *all* interleavings of a synchronization skeleton; monotonicity
//! makes the analyses exact, but the must-happen-before table costs one
//! greedy fixpoint per operation, so whole-program verification is
//! quadratic-ish in skeleton size. Two questions, two tables:
//!
//! 1. **Throughput** — wall time, fixpoint runs, and access pairs proved
//!    for model skeletons at growing sizes: is full verification practical
//!    at the scale of the paper's example programs? (Claim: well under a
//!    second for hundreds of operations.)
//! 2. **Detection** — for every single-operation mutation of the model
//!    corpus (dropped increment, reduced amount, reordered check, dropped
//!    check): how many are rejected, and with which finding? Benign
//!    mutants (protocol slack, e.g. the last arrival of a ragged step)
//!    are cross-checked against 16 seeds of dynamic exploration, so
//!    "certified" never silently means "missed".
//!
//! Usage: `cargo run --release -p mc-bench --bin e10_table [--quick] [--json]`

use mc_bench::{fmt_duration, measure, Report, Table};
use mc_chaos::explore_skeleton;
use mc_verify::{all_mutations, models, verify, Skeleton, Verdict};

fn sized_models(quick: bool) -> Vec<(String, Skeleton)> {
    let scale = if quick { 1 } else { 2 };
    vec![
        ("heat(4, 3)".into(), models::heat(4, 3)),
        (
            format!("heat({}, {})", 8 * scale, 6),
            models::heat(8 * scale, 6),
        ),
        (
            format!("wavefront({}, {})", 4 * scale, 8),
            models::wavefront(4 * scale, 8),
        ),
        (
            format!("odd_even_sort({}, {})", 8 * scale, 8 * scale),
            models::odd_even_sort(8 * scale, 8 * scale),
        ),
        (
            format!("floyd_warshall({}, {})", 4, 8 * scale),
            models::floyd_warshall(4, 8 * scale),
        ),
        (
            format!("broadcast({}, {})", 4 * scale, 12),
            models::broadcast(4 * scale, 12),
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let runs = if quick { 3 } else { 7 };

    // Table 1: verifier throughput on growing skeletons.
    let mut throughput = Table::new(
        "E10a: whole-program verification cost vs skeleton size",
        &[
            "skeleton",
            "threads",
            "ops",
            "fixpoint runs",
            "pairs proved",
            "verify time",
            "ops/ms",
        ],
    );
    let mut slowest = std::time::Duration::ZERO;
    for (name, sk) in sized_models(quick) {
        let cert = match verify(&sk) {
            Verdict::Certified(c) => c,
            Verdict::Rejected(rej) => {
                eprintln!("{name} unexpectedly rejected:\n{}", rej.render(&sk));
                std::process::exit(1);
            }
        };
        let t = measure(runs, || {
            std::hint::black_box(verify(std::hint::black_box(&sk)));
        });
        slowest = slowest.max(t.median);
        throughput.row(vec![
            name,
            cert.threads.to_string(),
            cert.ops.to_string(),
            cert.fixpoint_runs.to_string(),
            cert.pairs_proved.to_string(),
            fmt_duration(t.median),
            format!("{:.0}", cert.ops as f64 / t.median.as_secs_f64() / 1e3),
        ]);
    }
    let mut report = Report::new("e10", &args);
    report.table(throughput);

    // Table 2: mutation detection over the model corpus.
    let mut detection = Table::new(
        "E10b: single-op mutation detection (static verdict per mutant)",
        &[
            "model",
            "mutants",
            "deadlock",
            "race",
            "benign",
            "benign=dynamic-ok",
        ],
    );
    let (mut total, mut caught) = (0usize, 0usize);
    let mut disagreements = 0usize;
    for (name, sk) in models::corpus() {
        let (mut dl, mut race, mut benign, mut benign_ok) = (0usize, 0, 0, 0);
        let muts = all_mutations(&sk);
        for m in &muts {
            let mutant = m.apply(&sk);
            match verify(&mutant) {
                Verdict::Rejected(rej) if rej.deadlock.is_some() => dl += 1,
                Verdict::Rejected(_) => race += 1,
                Verdict::Certified(_) => {
                    benign += 1;
                    // A certified mutant must also look correct dynamically.
                    let outcomes = explore_skeleton(&mutant, 0..16);
                    let ok =
                        outcomes.is_deterministic() && outcomes.iter().all(|(o, _, _)| o.completed);
                    if ok {
                        benign_ok += 1;
                    } else {
                        disagreements += 1;
                    }
                }
            }
        }
        total += muts.len();
        caught += dl + race;
        detection.row(vec![
            name.to_string(),
            muts.len().to_string(),
            dl.to_string(),
            race.to_string(),
            benign.to_string(),
            format!("{benign_ok}/{benign}"),
        ]);
    }
    report.table(detection);

    let rate = caught as f64 / total as f64 * 100.0;
    report.metric("mutants_total", total as f64);
    report.metric("mutants_caught", caught as f64);
    report.metric("detection_rate_pct", rate);
    // Caught minus missed, which is at least 1 exactly when more than half
    // the mutants are caught.
    report.metric("detection_margin", 2.0 * caught as f64 - total as f64);
    report.metric("disagreements", disagreements as f64);
    // Whole microseconds, rounded down: under 2 s exactly when at most
    // 1,999,999.
    report.metric("slowest_verify_us", slowest.as_micros() as f64);
    report.note(format!(
        "Shape check: {caught}/{total} mutants rejected ({rate:.0}%), \
         {disagreements} static/dynamic disagreements, slowest verification {}.",
        fmt_duration(slowest)
    ));
    report.finish();
}
