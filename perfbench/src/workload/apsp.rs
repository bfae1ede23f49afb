//! `apsp`: Floyd-Warshall over one monotonic counter (paper §4.5).
//!
//! One op is one 2-thread solve of a seeded dense 256-vertex graph. The
//! solve does 256 increments and 512 checks against ~33M relaxations, so
//! it is compute-bound: a counter change should not move it, a kernel
//! change should.

use super::{repeat_setup, Config, Outcome};
use crate::sample::median;
use crate::trace::{self, TracedCounter, Tracer};
use mc_algos::floyd_warshall;
use mc_algos::graph::dense_graph;
use std::sync::Arc;
use std::time::Instant;

/// Vertices of the input graph (a 512 KiB `i64` matrix).
pub const VERTICES: usize = 256;
/// Largest edge weight.
pub const MAX_WEIGHT: i64 = 100;
/// Solver threads.
pub const THREADS: usize = 2;
/// One sequential solve is timed before every `SEQ_EVERY`-th parallel one.
pub const SEQ_EVERY: u64 = 8;
/// Solves per throughput window.
pub const WINDOW: u64 = 32;

/// Runs one phase; traced when `tracer` is given.
pub fn run(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    let ((edge, reference), setup) = repeat_setup(|| {
        let edge = dense_graph(VERTICES, MAX_WEIGHT, cfg.seed);
        let reference = floyd_warshall::sequential(&edge);
        Ok((edge, reference))
    })?;

    let mut out = Outcome {
        setup: Some(setup),
        // The library spawns the solver threads: they keep the process mask.
        placement: format!("free[{}]", crate::place::process_cpus()),
        ..Outcome::default()
    };
    // Sequential solves interleaved with the parallel ones, so both sides
    // of `speedup_vs_seq` see the same host conditions.
    let mut seq_ns = Vec::new();
    trace::set_active(tracer.cloned());
    let deadline = cfg.deadline(Instant::now());
    while Instant::now() < deadline {
        if out.ops.is_multiple_of(SEQ_EVERY) {
            let t0 = Instant::now();
            std::hint::black_box(floyd_warshall::sequential(&edge));
            seq_ns.push(t0.elapsed().as_nanos() as f64);
        }
        let t0 = Instant::now();
        let got = match tracer {
            None => floyd_warshall::with_counter(&edge, THREADS),
            Some(t) => {
                let _op = t.op("apsp.solve", out.ops, true);
                floyd_warshall::with_counter_impl::<TracedCounter>(&edge, THREADS)
            }
        };
        let dt = t0.elapsed();
        out.latency_ns.push(dt.as_nanos() as f64);
        out.wall += dt;
        out.ops += 1;
        match out.windows.last_mut() {
            Some((n, w)) if *n < WINDOW => {
                *n += 1;
                *w += dt;
            }
            _ => out.windows.push((1, dt)),
        }
        if got != reference {
            out.failed += 1;
        }
    }
    trace::set_active(None);
    out.speedup = median(&seq_ns) / median(&out.latency_ns);

    if let Some(t) = tracer {
        out.spans = t.spans();
        out.layer.push((
            "algos.fw_seq_ms",
            median(&seq_ns) / 1e6,
            seq_ns.len() as u64,
            "median interleaved sequential solve".into(),
        ));
        out.counter_layer(&t.stats(), out.ops);
        out.counter_span_layer(out.ops, out.ops, THREADS as u32, out.wall);
    }
    Ok(out)
}
