//! The four workloads and what they share: seeded inputs, the phase
//! outcome, and the counter-layer metrics every traced phase derives.
//!
//! Each workload is a closed loop of at most two application threads: an
//! op starts only after the thread's previous op completed.

pub mod apsp;
pub mod broadcast;
pub mod durable;
pub mod handoff;

use crate::sample::percentile;
use crate::trace::{durations, Span};
use mc_bench::Timing;
use mc_counter::StatsSnapshot;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Setups per run, after one untimed warm-up; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// What one phase needs to know.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload seed: all inputs derive from it.
    pub seed: u64,
    /// How long the phase measures.
    pub seconds: f64,
    /// Where files (WAL directory, spans) go.
    pub out_dir: PathBuf,
}

impl Config {
    /// The instant the measured loop must stop starting new ops.
    pub fn deadline(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds)
    }
}

/// The result of one measured phase of a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run, including failed ones.
    pub ops: u64,
    /// Ops whose result was wrong.
    pub failed: u64,
    /// Wall time of the measured loop.
    pub wall: Duration,
    /// `(ops, wall time)` of consecutive windows of the measured loop
    /// (a slice, a round, a batch of solves), for the throughput median.
    pub windows: Vec<(u64, Duration)>,
    /// Per-op latency samples in nanoseconds (the workload defines which
    /// interval one sample is).
    pub latency_ns: Vec<f64>,
    /// Sequential reference time over parallel time for the same work.
    pub speedup: f64,
    /// Timing of the repeated setup.
    pub setup: Option<Timing>,
    /// Thread placement as it was in force, e.g. `split[0|1]`.
    pub placement: String,
    /// Per-layer metrics: `(name, value, samples, note)`. Traced phases
    /// only.
    pub layer: Vec<(&'static str, f64, u64, String)>,
    /// Spans of a traced phase.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Completed ops per second: the median over the windows of each
    /// window's rate, so a host stall in one window does not move it.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|(ops, wall)| *ops as f64 / wall.as_secs_f64().max(1e-9))
            .collect();
        crate::sample::median(&rates)
    }

    fn layer(&mut self, name: &'static str, value: f64, samples: u64, note: impl Into<String>) {
        self.layer.push((name, value, samples, note.into()));
    }

    /// The counter-layer ratios from `s`, the statistics of every counter
    /// the phase's `ops` ops used.
    pub fn counter_layer(&mut self, s: &StatsSnapshot, ops: u64) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let of_checks = |v: u64| {
            if s.checks == 0 {
                0.0
            } else {
                v as f64 / s.checks as f64
            }
        };
        self.layer("counter.checks_per_op", per_op(s.checks), ops, "");
        self.layer("counter.increments_per_op", per_op(s.increments), ops, "");
        self.layer(
            "counter.fast_check_ratio",
            of_checks(s.fast_checks),
            s.checks,
            "fast checks / checks",
        );
        self.layer(
            "counter.suspend_ratio",
            of_checks(s.suspensions),
            s.checks,
            "suspensions / checks",
        );
        self.layer(
            "counter.slow_entries_per_op",
            per_op(s.slow_path_entries),
            ops,
            "",
        );
        self.layer("counter.notifies_per_op", per_op(s.notifies), ops, "");
        self.layer(
            "counter.max_live_nodes",
            s.max_live_nodes as f64,
            1,
            "high-water mark",
        );
    }

    /// Counter-operation timings from the spans of a [`TracedCounter`]
    /// (crate::trace::TracedCounter). `sampled` of `ops` ops were traced;
    /// `threads` application threads ran for `wall`.
    pub fn counter_span_layer(&mut self, sampled: u64, ops: u64, threads: u32, wall: Duration) {
        let mut blocked = durations(&self.spans, "counter.check_blocked");
        let mut incs = durations(&self.spans, "counter.increment");
        let (nb, ni) = (blocked.len() as u64, incs.len() as u64);
        let scale = ops as f64 / sampled.max(1) as f64;
        let share = blocked.iter().sum::<f64>() * scale / (threads as f64 * wall.as_nanos() as f64);
        self.layer(
            "counter.blocked_check_us_p50",
            percentile(&mut blocked, 50.0) / 1e3,
            nb,
            "",
        );
        self.layer(
            "counter.blocked_check_us_p99",
            percentile(&mut blocked, 99.0) / 1e3,
            nb,
            "",
        );
        self.layer(
            "counter.increment_ns_p50",
            percentile(&mut incs, 50.0),
            ni,
            "",
        );
        self.layer(
            "counter.increment_ns_p99",
            percentile(&mut incs, 99.0),
            ni,
            "",
        );
        self.layer(
            "counter.blocked_share",
            share,
            nb,
            format!("blocked check time / ({threads} threads x wall)"),
        );
    }
}

/// SplitMix64: the seeded input generator (a bijection on `u64`).
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Input `i` of stream `stream` under `seed`.
pub fn input(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix(splitmix(seed ^ stream.rotate_left(32)) ^ i)
}

/// An order-sensitive checksum step (FNV-1a over words): folding the same
/// values in another order gives another result.
pub fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The checksum of an empty sequence.
pub const FOLD_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs `setup` [`SETUP_REPS`] times after one warm-up, timing each, and
/// returns the last state with the timing.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Timing), String> {
    let mut state = None;
    let mut err = None;
    let timing = mc_bench::measure(SETUP_REPS, || match setup() {
        Ok(s) => state = Some(s),
        Err(e) => err = Some(e),
    });
    match (err, state) {
        (Some(e), _) => Err(e),
        (None, Some(s)) => Ok((s, timing)),
        (None, None) => Err("setup produced no state".into()),
    }
}

/// Pins the calling application thread `k` to CPU `k mod nproc`, so the
/// two application threads run on two CPUs, and returns the mask in force.
pub fn pin(k: usize) -> Result<String, String> {
    crate::place::pin_current_thread(k % crate::place::nproc())
}

/// Runs `f` on a thread pinned like application thread 0 and returns its
/// result: how the sequential references run where the workload runs.
pub fn on_app_thread<T: Send>(f: impl FnOnce() -> Result<T, String> + Send) -> Result<T, String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin(0)?;
            f()
        })
        .join()
        .expect("sequential reference thread panicked")
    })
}

/// Describes the masks of the pinned application threads: `split[0|1]`.
pub fn placement_label(masks: &[String]) -> String {
    format!("split[{}]", masks.join("|"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded() {
        assert_eq!(input(1, 2, 3), input(1, 2, 3));
        assert_ne!(input(1, 2, 3), input(2, 2, 3));
        assert_ne!(input(1, 2, 3), input(1, 3, 3));
    }

    #[test]
    fn fold_is_order_sensitive() {
        let ab = fold(fold(FOLD_INIT, 1), 2);
        let ba = fold(fold(FOLD_INIT, 2), 1);
        assert_ne!(ab, ba);
    }
}
