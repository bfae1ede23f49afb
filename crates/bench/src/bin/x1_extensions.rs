//! **X1** — extension experiments beyond the paper's text: the dataflow-DAG
//! executor, the real Paraffins workload, and `advance_to`.
//!
//! These validate the paper's *thesis* — counters as a general dataflow
//! mechanism — on structures the paper only gestures at (Section 5.3's
//! Paraffins citation, Section 8's dataflow lineage).
//!
//! Usage: `cargo run --release -p mc-bench --bin x1_extensions [--quick] [--json]`

use mc_algos::paraffins;
use mc_bench::{fmt_duration, measure, speedup, Report, Table};
use mc_patterns::DataflowGraph;

/// A layered DAG: `layers x width` nodes, each depending on two nodes of the
/// previous layer, with a small compute per node.
fn layered_graph(layers: usize, width: usize, work: u64) -> DataflowGraph<u64> {
    let mut g = DataflowGraph::new();
    let mut prev: Vec<_> = (0..width as u64)
        .map(|i| g.node(format!("in{i}"), [], move |_| i))
        .collect();
    for layer in 1..layers {
        prev = (0..width)
            .map(|i| {
                let a = prev[i];
                let b = prev[(i + 1) % width];
                g.node(format!("n{layer}_{i}"), [a, b], move |inp| {
                    let mut acc = inp[0].wrapping_add(*inp[1]);
                    for _ in 0..work {
                        acc = acc
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                    }
                    acc
                })
            })
            .collect();
    }
    g
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let runs = if quick { 2 } else { 3 };

    // Dataflow DAG: parallel counter-gated execution vs sequential.
    let (layers, width, work) = if quick {
        (6, 8, 2_000)
    } else {
        (10, 12, 10_000)
    };
    let mut table = Table::new(
        "X1a: counter-gated dataflow DAG vs sequential topological execution",
        &[
            "graph",
            "sequential",
            "counter-gated parallel",
            "determinism",
        ],
    );
    let t_seq = measure(runs, || {
        let g = layered_graph(layers, width, work);
        std::hint::black_box(g.run_sequential());
    });
    let t_par = measure(runs, || {
        let g = layered_graph(layers, width, work);
        std::hint::black_box(g.run());
    });
    let g = layered_graph(layers, width, work);
    let deterministic = g.run() == g.run_sequential();
    table.row(vec![
        format!("{layers}x{width} nodes, 2 deps each"),
        fmt_duration(t_seq.median),
        fmt_duration(t_par.median),
        if deterministic {
            "run == run_sequential".into()
        } else {
            "MISMATCH".into()
        },
    ]);
    let mut report = Report::new("x1", &args);
    report.table(table);
    report.metric("dag_mismatches", u8::from(!deterministic).into());

    // Paraffins: staged generation with one counter.
    let max = if quick { 12 } else { 15 };
    let mut table2 = Table::new(
        "X1b: Paraffins — staged radical generation (1 counter, 1 thread/stage)",
        &[
            "max carbons",
            "sequential",
            "parallel staged",
            "ratio",
            "C_max isomers",
            "determinism",
        ],
    );
    let t_pseq = measure(runs, || {
        std::hint::black_box(paraffins::radicals_sequential(max));
    });
    let t_ppar = measure(runs, || {
        std::hint::black_box(paraffins::radicals_parallel(max));
    });
    let pools = paraffins::radicals_parallel(max);
    let sequential = paraffins::radicals_sequential(max);
    // The carbon sizes whose parallel pool differs from the sequential one.
    let mismatches = (0..max)
        .filter(|&i| pools.get(i) != sequential.get(i))
        .count();
    table2.row(vec![
        max.to_string(),
        fmt_duration(t_pseq.median),
        fmt_duration(t_ppar.median),
        speedup(t_pseq.median, t_ppar.median),
        paraffins::count_alkanes(max, &pools).to_string(),
        if mismatches == 0 {
            "parallel == sequential".into()
        } else {
            format!("MISMATCH at {mismatches} of {max} sizes")
        },
    ]);
    report.table(table2);
    report.metric("radicals_mismatches", mismatches as f64);
    report.note(
        "Shape check: both extension workloads are deterministic (equal to their\n\
         sequential executions), as Section 6 predicts for counter-only programs.\n\
         On a single-core host the parallel columns measure pure synchronization\n\
         overhead; on a multi-core host the DAG width becomes real speedup.",
    );
    report.finish();
}
