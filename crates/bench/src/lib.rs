//! # Experiment harness
//!
//! Shared machinery for regenerating every figure and evaluation claim of the
//! paper (see `DESIGN.md` section 3 for the experiment index):
//!
//! * wall-clock measurement helpers with min/median/mean over repetitions;
//! * a fixed-width table printer so each `e*_table` binary prints rows in the
//!   same shape the paper argues about ("who wins, by how much");
//! * JSON emission (hand-rolled, no serde dependency) so runs can be archived
//!   via `--json`.
//!
//! Each experiment is one `cargo run --release -p mc-bench --bin eN_table`
//! binary that prints the claim-vs-measured table (`--quick` for small
//! sizes, `--json` to archive the run).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
