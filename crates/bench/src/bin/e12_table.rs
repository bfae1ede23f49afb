//! **E12** — Parameterized verification: one cutoff certifies every size.
//!
//! `param_verify` proves a template's verdict for **all** parameter
//! assignments by brute-forcing a small grid (`1..=cutoff+2` per parameter)
//! and validating four stability checks on the band; brute-force enumeration
//! without the cutoff argument must instead re-verify every size it wants
//! covered, and still says nothing about the sizes beyond its bound.
//!
//! Two tables:
//!
//! 1. **Certified corpus** — per template: accepted cutoff, grid size,
//!    small-size exceptions, symbolic (`param_verify`) wall time vs
//!    brute-force enumeration to `N = 16` per parameter.
//! 2. **Seeded-buggy corpus** — per template: the smallest failing
//!    assignment, the findings there, and whether the witness reproduces
//!    through the `mc-chaos` skeleton interpreter.
//!
//! Shape check: every corpus template certifies with a machine-checked
//! cutoff at most `DEFAULT_MAX_CUTOFF`; every seeded-buggy template is
//! rejected with a dynamically-confirmed witness. The report counts the
//! templates and seeded bugs for which this fails.
//!
//! Usage: `cargo run --release -p mc-bench --bin e12_table [--quick] [--json]`

use mc_bench::{fmt_duration, Report, Table};
use mc_chaos::confirm_param_witness;
use mc_verify::{models, param_verify, verify, ParamVerdict, Template, DEFAULT_MAX_CUTOFF};
use std::time::{Duration, Instant};

/// Median-of-`reps` wall time of `f`.
fn timed(reps: u32, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Brute-force every assignment in `[1..=bound]^k` through the concrete
/// verifier; returns the number of instantiations checked.
fn enumerate(t: &Template, bound: u64) -> usize {
    let k = t.num_params();
    let mut assign = vec![1u64; k];
    let mut count = 0usize;
    loop {
        let sk = t.instantiate(&assign).expect("corpus sizes instantiate");
        let _ = verify(&sk);
        count += 1;
        // Odometer over the grid.
        let mut i = 0;
        loop {
            if i == k {
                return count;
            }
            if assign[i] < bound {
                assign[i] += 1;
                break;
            }
            assign[i] = 1;
            i += 1;
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let bound: u64 = if quick { 10 } else { 16 };
    let reps: u32 = if quick { 3 } else { 5 };

    let mut table = Table::new(
        format!("E12: parameterized certificates vs enumeration to N={bound}"),
        &[
            "template",
            "cutoff",
            "grid",
            "exceptions",
            "symbolic",
            "enumerate",
            "covers",
        ],
    );
    let mut not_certified = 0usize;
    for (name, t) in models::template_corpus() {
        let verdict = match param_verify(&t) {
            Ok(v) => v,
            Err(e) => {
                println!("FAIL: {name}: no cutoff established: {e}");
                not_certified += 1;
                continue;
            }
        };
        let proof = verdict.proof().clone();
        if !verdict.is_certified() {
            println!("FAIL: {name}: corpus template rejected");
            not_certified += 1;
        } else if proof.cutoff > DEFAULT_MAX_CUTOFF {
            println!(
                "FAIL: {name}: cutoff {} above the default bound {DEFAULT_MAX_CUTOFF}",
                proof.cutoff
            );
            not_certified += 1;
        }
        let symbolic = timed(reps, || {
            let _ = param_verify(&t);
        });
        let mut checked = 0usize;
        let brute = timed(reps, || {
            checked = enumerate(&t, bound);
        });
        table.row(vec![
            name.to_string(),
            proof.cutoff.to_string(),
            format!("{} pts", proof.instantiations()),
            if proof.exceptions.is_empty() {
                "none".into()
            } else {
                format!("{:?}", proof.exceptions)
            },
            fmt_duration(symbolic),
            format!("{} ({checked} pts)", fmt_duration(brute)),
            format!("all N >= {}", proof.cutoff),
        ]);
    }
    let mut report = Report::new("e12", &args);
    report.table(table);

    let mut buggy = Table::new(
        "E12: seeded-buggy templates — smallest failing size, witness replay",
        &["template", "fails at", "findings", "replay"],
    );
    let mut not_rejected = 0usize;
    for (name, t) in models::buggy_corpus() {
        let verdict = match param_verify(&t) {
            Ok(v) => v,
            Err(e) => {
                println!("FAIL: {name}: no cutoff established: {e}");
                not_rejected += 1;
                continue;
            }
        };
        let ParamVerdict::Rejected { witness, .. } = &verdict else {
            println!("FAIL: {name}: seeded bug certified");
            not_rejected += 1;
            continue;
        };
        let findings = format!(
            "{}{}{}",
            if witness.rejection.deadlock.is_some() {
                "deadlock "
            } else {
                ""
            },
            if witness.rejection.races.is_empty() {
                String::new()
            } else {
                format!("{} races ", witness.rejection.races.len())
            },
            if witness.rejection.seq_eq.is_some() {
                "seq-eq"
            } else {
                ""
            },
        );
        let replay = match confirm_param_witness(witness) {
            Ok(c) if c.total() > 0 => format!("confirmed ({} findings)", c.total()),
            Ok(_) => {
                println!("FAIL: {name}: witness reproduced no findings");
                not_rejected += 1;
                "empty".into()
            }
            Err(e) => {
                println!("FAIL: {name}: witness did not replay: {e}");
                not_rejected += 1;
                "failed".into()
            }
        };
        buggy.row(vec![
            name.to_string(),
            format!("{:?}", witness.assign),
            findings.trim().to_string(),
            replay,
        ]);
    }
    report.table(buggy);

    report.metric("templates_not_certified", not_certified as f64);
    report.metric("seeded_bugs_not_rejected", not_rejected as f64);
    report.note(format!(
        "Shape check: of {} corpus templates, {not_certified} did not certify with a \
         cutoff; of {} seeded bugs, {not_rejected} were not rejected with a replayable \
         witness",
        models::template_corpus().len(),
        models::buggy_corpus().len(),
    ));
    report.finish();
}
