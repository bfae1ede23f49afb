//! The one gate: the bounds `bench_baselines.json` sets on each
//! experiment's named metrics.
//!
//! [`Report::finish`](crate::Report::finish) applies [`evaluate`] to the
//! metrics a table just measured, which sets the table's verdict line, the
//! `shape` of its `BENCH_<exp>.json` and its exit status. The `perf_gate`
//! binary applies [`evaluate_report`] to the reports on disk, so it prints
//! the same lines as the tables that wrote them.
//!
//! An experiment's entry reads
//! `{"checks": [{"metric": "m", "min": 1, "max": 1}]}`. `min` and `max`
//! are inclusive and either may be left out. A bounded metric that the
//! report lacks, or records as non-finite, fails. An experiment without an
//! entry is [`Shape::Info`].

use crate::json::{self, Json};
use crate::Shape;
use std::path::Path;

/// `bench_baselines.json`, at the workspace root.
const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_baselines.json");

/// An experiment's verdict: its shape and one `PERF-GATE` line per bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// The verdict itself.
    pub shape: Shape,
    /// One `PERF-GATE <exp>: <metric> = <value> (<bound>): <verdict>` line
    /// per bound, or the reason the bounds could not be read.
    pub lines: Vec<String>,
}

impl Verdict {
    /// A failure that no bound reports: `why` the bounds could not be
    /// applied.
    pub fn fail(exp: &str, why: &str) -> Self {
        Verdict {
            shape: Shape::Fail,
            lines: vec![format!("PERF-GATE {exp}: {why}: FAIL")],
        }
    }
}

/// Reads and parses a JSON document.
pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Reads `bench_baselines.json`.
pub fn baselines() -> Result<Json, String> {
    load(Path::new(BASELINES))
}

/// Applies `baselines`' entry for `exp` to the metrics `metric` looks up.
pub fn evaluate(exp: &str, baselines: &Json, metric: impl Fn(&str) -> Option<f64>) -> Verdict {
    let Some(entry) = baselines.get(exp) else {
        return Verdict::default();
    };
    let Some(checks) = entry.get("checks").and_then(Json::as_arr) else {
        return Verdict::fail(exp, "no `checks` array");
    };
    let mut failed = false;
    let mut lines = Vec::new();
    for check in checks {
        let Some(name) = check.get("metric").and_then(Json::as_str) else {
            return Verdict::fail(exp, "a check without a metric name");
        };
        let limit = |key| check.get(key).and_then(Json::as_f64);
        let (min, max) = (limit("min"), limit("max"));
        let bound = match (min, max) {
            (Some(lo), Some(hi)) => format!("{lo} <= x <= {hi}"),
            (Some(lo), None) => format!("x >= {lo}"),
            (None, Some(hi)) => format!("x <= {hi}"),
            (None, None) => return Verdict::fail(exp, &format!("{name} has no `min` or `max`")),
        };
        let value = metric(name).filter(|v| v.is_finite());
        let within =
            value.is_some_and(|v| min.is_none_or(|lo| v >= lo) && max.is_none_or(|hi| v <= hi));
        failed |= !within;
        let verdict = if within { "ok" } else { "FAIL" };
        let shown = value.map_or_else(|| "missing".into(), |v| format!("{v:.4}"));
        lines.push(format!(
            "PERF-GATE {exp}: {name} = {shown} ({bound}): {verdict}"
        ));
    }
    let shape = if failed { Shape::Fail } else { Shape::Pass };
    Verdict { shape, lines }
}

/// [`evaluate`] over a parsed `BENCH_<exp>.json`: its recorded metrics.
pub fn evaluate_report(exp: &str, baselines: &Json, report: &Json) -> Verdict {
    let metrics = report.get("metrics");
    evaluate(exp, baselines, |m| metrics?.get(m)?.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baselines() -> Json {
        json::parse(
            r#"{
                "ex": {"checks": [
                    {"metric": "ratio", "min": 2.5, "max": 4},
                    {"metric": "count", "max": 0}
                ]}
            }"#,
        )
        .unwrap()
    }

    fn run(exp: &str, ratio: Option<f64>, count: Option<f64>) -> Verdict {
        let metric = |m: &str| match m {
            "ratio" => ratio,
            "count" => count,
            _ => None,
        };
        evaluate(exp, &baselines(), metric)
    }

    #[test]
    fn bounds_are_inclusive() {
        for ratio in [2.5, 4.0] {
            let v = run("ex", Some(ratio), Some(0.0));
            assert_eq!(v.shape, Shape::Pass, "{v:?}");
            assert!(v.lines[0].ends_with("(2.5 <= x <= 4): ok"), "{v:?}");
        }
        for ratio in [2.5 - 1e-9, 4.0 + 1e-9] {
            let v = run("ex", Some(ratio), Some(0.0));
            assert_eq!(v.shape, Shape::Fail, "{v:?}");
            assert!(v.lines[0].ends_with(": FAIL"), "{v:?}");
        }
        assert_eq!(run("ex", Some(3.0), Some(1.0)).shape, Shape::Fail);
        assert_eq!(run("ex", Some(f64::NAN), Some(0.0)).shape, Shape::Fail);
    }

    #[test]
    fn a_bounded_metric_missing_from_the_report_fails() {
        let v = run("ex", Some(3.0), None);
        assert_eq!(v.shape, Shape::Fail);
        assert_eq!(v.lines[1], "PERF-GATE ex: count = missing (x <= 0): FAIL");
    }

    #[test]
    fn an_experiment_without_an_entry_is_info() {
        let v = run("none", Some(3.0), Some(0.0));
        assert_eq!(v.shape, Shape::Info);
        assert!(v.lines.is_empty());
    }
}
