//! # Experiment harness
//!
//! Shared machinery for regenerating every figure and evaluation claim of the
//! paper (see `DESIGN.md` section 3 for the experiment index):
//!
//! * wall-clock measurement helpers with min/median/mean over repetitions,
//!   and paired ratios ([`measure_pair`]) for comparing two variants;
//! * a fixed-width table printer so each `e*_table` binary prints rows in the
//!   same shape the paper argues about ("who wins, by how much");
//! * JSON emission (hand-rolled, no serde dependency) so runs can be archived
//!   via `--json`;
//! * the one gate ([`gate`]): `bench_baselines.json`'s bounds, applied to
//!   each run's named metrics.
//!
//! Each experiment is one `cargo run --release -p mc-bench --bin eN_table`
//! binary that prints the claim-vs-measured table (`--quick` for small
//! sizes, `--json` to archive the run) and exits on its gate's verdict.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gate;
pub mod json;
pub mod report;

pub use report::{results_dir, Report, Shape};

use std::time::{Duration, Instant};

/// Wall-clock statistics over repeated runs of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Fastest observed run.
    pub min: Duration,
    /// Median run.
    pub median: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Number of runs measured.
    pub runs: usize,
}

/// Measures `f` `runs` times (after one untimed warm-up) and reports
/// statistics.
pub fn measure(runs: usize, mut f: impl FnMut()) -> Timing {
    assert!(runs > 0, "need at least one run");
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<Duration>() / runs as u32;
    Timing {
        min,
        median,
        mean,
        runs,
    }
}

/// The spread of the per-pair cost ratios B/A that [`measure_pair`]
/// returns: nearest-rank quartiles and median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairRatio {
    /// The lower quartile.
    pub q1: f64,
    /// The median.
    pub median: f64,
    /// The upper quartile.
    pub q3: f64,
}

/// Runs `a` and `b` in `pairs` back-to-back pairs, A first in even pairs
/// and B first in odd ones, and returns the spread of the ratios of B's
/// time to A's, one ratio per pair. Each call runs its workload once and
/// returns the time it measured.
///
/// A ratio of two rows timed seconds apart carries the host's drift
/// between them; a ratio within one pair carries only the drift between
/// two adjacent runs, and swapping the order cancels what the second run
/// of a pair inherits from the first.
pub fn measure_pair(
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
    pairs: usize,
) -> PairRatio {
    assert!(pairs > 0, "need at least one pair");
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                let ta = a();
                (ta, b())
            } else {
                let tb = b();
                (a(), tb)
            };
            tb.as_secs_f64() / ta.as_secs_f64()
        })
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    let rank = |percent: usize| ratios[(percent * pairs).div_ceil(100).max(1) - 1];
    PairRatio {
        q1: rank(25),
        median: rank(50),
        q3: rank(75),
    }
}

/// Formats a duration compactly for table cells (µs/ms/s with 3 significant
/// figures).
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

/// A simple fixed-width text table, printed by every `e*_table` binary.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (experiment id and claim).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Ratio of two durations as `x.xx` speedup text ("2.10x").
pub fn speedup(baseline: Duration, candidate: Duration) -> String {
    if candidate.is_zero() {
        return "inf".into();
    }
    format!("{:.2}x", baseline.as_secs_f64() / candidate.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_requested_runs() {
        let t = measure(5, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(t.runs, 5);
        assert!(t.min <= t.median && t.median <= t.mean.max(t.median));
    }

    #[test]
    fn measure_pair_alternates_and_reports_nearest_rank_quartiles() {
        use std::cell::RefCell;
        let calls = RefCell::new(String::new());
        // A always takes 10 ns, so pair i's ratio is B's i-th time / 10.
        let mut b_ns = [18, 11, 15, 12, 17, 13, 16, 14].into_iter();
        let r = measure_pair(
            || {
                calls.borrow_mut().push('A');
                Duration::from_nanos(10)
            },
            || {
                calls.borrow_mut().push('B');
                Duration::from_nanos(b_ns.next().unwrap())
            },
            8,
        );
        assert_eq!(calls.into_inner(), "ABBAABBAABBAABBA");
        // Sorted ratios 1.1..=1.8; nearest ranks 2, 4 and 6 of 8.
        for (got, want) in [(r.q1, 1.2), (r.median, 1.4), (r.q3, 1.6)] {
            assert!((got - want).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10ns");
        assert!(fmt_duration(Duration::from_micros(15)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(15)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }

    #[test]
    fn table_renders_with_padding() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        assert!(s.contains("long-header"));
        assert!(s.contains("xxxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn speedup_formats_ratio() {
        assert_eq!(
            speedup(Duration::from_millis(200), Duration::from_millis(100)),
            "2.00x"
        );
    }
}
