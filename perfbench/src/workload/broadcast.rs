//! `broadcast`: single-writer single-reader broadcast (paper §5.3), both
//! with block 1, over a seeded sequence of [`ITEMS`] `u64`s per round.
//!
//! One op is one item delivered to the reader: one fast-path increment by
//! the writer and one check by the reader. The reader suspends whenever it
//! catches up, so this workload stresses the fast path and the pattern.
//! A latency sample is the time the reader takes to receive one block of
//! [`BLOCK`] items, waits for the writer included. (The time from a push to
//! its read is not used: the writer never waits for the reader, so that
//! lag measures how far the reader drifted behind within a round.)

use super::{fold, input, pin, repeat_setup, Config, Outcome, FOLD_INIT};
use crate::sample::median;
use crate::trace::{add_stats, durations, Tracer};
use mc_counter::{CounterDiagnostics, StatsSnapshot};
use mc_patterns::Broadcast;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Items per round.
pub const ITEMS: usize = 1 << 20;
/// Items per latency sample and per traced block span.
pub const BLOCK: usize = 4096;

struct Inputs {
    items: Vec<u64>,
    checksum: u64,
}

fn checksum(items: impl IntoIterator<Item = u64>) -> u64 {
    items.into_iter().fold(FOLD_INIT, fold)
}

/// The sequential reference: the same pushes and reads on one thread,
/// into a buffer allocated outside the timed interval. Returns the time
/// and the checksum read back.
fn sequential_round(items: &[u64]) -> (f64, u64) {
    let b = Broadcast::new(items.len());
    let t0 = Instant::now();
    {
        let mut w = b.writer();
        for &x in items {
            w.push(x);
        }
    }
    let h = checksum(b.reader().copied());
    (t0.elapsed().as_nanos() as f64, h)
}

/// Runs one phase; traced when `tracer` is given.
pub fn run(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    let ((inputs, first), setup) = repeat_setup(|| {
        let items: Vec<u64> = (0..ITEMS as u64).map(|i| input(cfg.seed, 1, i)).collect();
        let checksum = checksum(items.iter().copied());
        if sequential_round(&items).1 != checksum {
            return Err("sequential broadcast reference delivered a wrong sequence".into());
        }
        Ok((Inputs { items, checksum }, Broadcast::new(ITEMS)))
    })?;

    let mut out = Outcome {
        setup: Some(setup),
        ..Outcome::default()
    };
    let phase = rounds(cfg, &inputs, first, tracer)?;
    if phase.seq_failed > 0 {
        return Err("sequential broadcast reference delivered a wrong sequence".into());
    }
    for ((block_ns, h), ns) in phase.rounds.into_iter().zip(&phase.round_ns) {
        out.latency_ns.extend(block_ns);
        out.ops += ITEMS as u64;
        if h != inputs.checksum {
            out.failed += ITEMS as u64;
        }
        out.wall += Duration::from_nanos(*ns as u64);
        out.windows
            .push((ITEMS as u64, Duration::from_nanos(*ns as u64)));
    }
    out.placement = super::placement_label(&phase.masks);
    let ratios: Vec<f64> = phase
        .seq_ns
        .iter()
        .zip(&phase.round_ns)
        .map(|(s, p)| s / p)
        .collect();
    out.speedup = median(&ratios);

    if let Some(t) = tracer {
        out.spans = t.spans();
        out.counter_layer(&phase.stats, out.ops);
        for (metric, span) in [
            (
                "patterns.broadcast.writer_ns_per_item",
                "patterns.broadcast.write_block",
            ),
            (
                "patterns.broadcast.reader_ns_per_item",
                "patterns.broadcast.read_block",
            ),
        ] {
            let d = durations(&out.spans, span);
            let per_item = d.iter().sum::<f64>() / (d.len() * BLOCK).max(1) as f64;
            out.layer.push((
                metric,
                per_item,
                d.len() as u64,
                format!("{BLOCK}-item blocks"),
            ));
        }
    }
    Ok(out)
}

/// Per round: the reader's block latencies (ns) and its checksum.
type RoundData = (Vec<f64>, u64);

struct Phase {
    round_ns: Vec<f64>,
    /// A sequential round after each parallel one, for `speedup_vs_seq`.
    seq_ns: Vec<f64>,
    seq_failed: u64,
    rounds: Vec<RoundData>,
    stats: StatsSnapshot,
    masks: Vec<String>,
}

/// Delivery rounds until the deadline. The writer and reader threads live
/// for the whole phase (pinned once); the coordinating thread allocates
/// each round's buffer outside the timed interval, releases both threads
/// through a barrier, and runs a sequential round while they wait.
fn rounds(
    cfg: &Config,
    &Inputs {
        ref items,
        checksum,
    }: &Inputs,
    first: Broadcast<u64>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Phase, String> {
    let slot: Mutex<Option<Arc<Broadcast<u64>>>> = Mutex::new(None);
    let gate = Barrier::new(3);
    let take = || slot.lock().expect("round slot poisoned").clone();
    let (mut round_ns, mut seq_ns, mut seq_failed) = (Vec::new(), Vec::new(), 0);
    let mut stats = StatsSnapshot::default();
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<String, String> {
            let pinned = pin(0);
            for round in 0.. {
                gate.wait();
                let Some(b) = take() else { break };
                {
                    let _op = tracer.map(|t| t.op("broadcast.write", round, false));
                    let mut w = b.writer();
                    for chunk in items.chunks(BLOCK) {
                        let _s = tracer.map(|t| t.span("patterns.broadcast.write_block"));
                        for &x in chunk {
                            w.push(x);
                        }
                    }
                }
                gate.wait();
            }
            pinned
        });
        let reader = s.spawn(|| -> Result<(Vec<RoundData>, String), String> {
            let pinned = pin(1);
            let mut all = Vec::new();
            for round in 0.. {
                gate.wait();
                let Some(b) = take() else { break };
                {
                    let _op = tracer.map(|t| t.op("broadcast.read", round, false));
                    let mut block_ns = Vec::with_capacity(items.len().div_ceil(BLOCK));
                    let mut h = FOLD_INIT;
                    let mut r = b.reader();
                    for chunk in items.chunks(BLOCK) {
                        let _s = tracer.map(|t| t.span("patterns.broadcast.read_block"));
                        let t0 = Instant::now();
                        for _ in chunk {
                            h = fold(h, *r.next().expect("reader ends with the sequence"));
                        }
                        block_ns.push(t0.elapsed().as_nanos() as f64);
                    }
                    all.push((block_ns, h));
                }
                gate.wait();
            }
            Ok((all, pinned?))
        });
        let deadline = cfg.deadline(Instant::now());
        let mut next = Some(first);
        while Instant::now() < deadline {
            let b = Arc::new(next.take().unwrap_or_else(|| Broadcast::new(ITEMS)));
            *slot.lock().expect("round slot poisoned") = Some(Arc::clone(&b));
            gate.wait();
            let t0 = Instant::now();
            gate.wait();
            round_ns.push(t0.elapsed().as_nanos() as f64);
            add_stats(&mut stats, &b.counter().stats());
            *slot.lock().expect("round slot poisoned") = None;
            let (ns, h) = sequential_round(items);
            seq_ns.push(ns);
            seq_failed += u64::from(h != checksum);
        }
        gate.wait(); // the slot is empty: both threads stop
        (
            writer.join().expect("broadcast writer panicked"),
            reader.join().expect("broadcast reader panicked"),
        )
    });
    let wmask = writer?;
    let (rounds, rmask) = reader?;
    Ok(Phase {
        round_ns,
        seq_ns,
        seq_failed,
        rounds,
        stats,
        masks: vec![wmask, rmask],
    })
}
