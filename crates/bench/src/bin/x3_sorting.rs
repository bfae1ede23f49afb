//! **X3** — odd–even transposition sort: full barrier per phase vs
//! neighbour-local counter synchronization (extension experiment).
//!
//! Usage: `cargo run --release -p mc-bench --bin x3_sorting [--quick] [--json]`

use mc_algos::sorting;
use mc_bench::{fmt_duration, measure, speedup, Report, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (sizes, runs): (&[usize], usize) = if quick {
        (&[32], 2)
    } else {
        (&[32, 64, 128], 3)
    };

    let mut table = Table::new(
        "X3: odd-even transposition sort — barrier/phase vs neighbour counters",
        &[
            "n",
            "threads",
            "barrier",
            "counters",
            "counter gain",
            "sorted",
        ],
    );
    let mut unsorted = 0usize;
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(7);
        let v: Vec<i64> = (0..n).map(|_| rng.gen_range(-10_000..10_000)).collect();
        let mut want = v.clone();
        want.sort_unstable();
        let t_barrier = measure(runs, || {
            std::hint::black_box(sorting::odd_even_barrier(&v));
        });
        let t_counters = measure(runs, || {
            std::hint::black_box(sorting::odd_even_counters(&v));
        });
        // The sorted input reversed needs all n phases; a random one
        // usually needs fewer, so only the reversed input shows a lost
        // last phase.
        let reversed: Vec<i64> = want.iter().rev().copied().collect();
        let wrong = [&v, &reversed]
            .into_iter()
            .filter(|input| sorting::odd_even_counters(input) != want)
            .count();
        unsorted += wrong;
        let ok = wrong == 0;
        table.row(vec![
            n.to_string(),
            (n / 2 + 1).to_string(),
            fmt_duration(t_barrier.median),
            fmt_duration(t_counters.median),
            speedup(t_barrier.median, t_counters.median),
            ok.to_string(),
        ]);
    }
    let mut report = Report::new("x3", &args);
    report.table(table);
    report.metric("unsorted_outputs", unsorted as f64);
    report.note(
        "Shape check: the counter version replaces n/2-way barrier passes with\n\
         2-neighbour waits; the advantage grows with thread count because barrier\n\
         wakeup storms scale with participants while neighbour waits do not.",
    );
    report.finish();
}
