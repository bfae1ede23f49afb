//! The committed reports agree with `bench_baselines.json`: every metric it
//! bounds is present in its experiment's committed `results/BENCH_<exp>.json`,
//! so a renamed gated metric fails `cargo test`, and every committed report
//! records the verdict the gate gives on its recorded metrics.

use mc_bench::gate::{self, evaluate_report};
use mc_bench::json::Json;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn every_bounded_metric_is_in_its_committed_report() {
    let baselines = gate::load(&root().join("bench_baselines.json")).unwrap();
    let mut missing = Vec::new();
    for (exp, baseline) in baselines.as_obj().expect("baselines are an object") {
        let report = gate::load(&root().join(format!("results/BENCH_{exp}.json"))).unwrap();
        let checks = baseline.get("checks").and_then(Json::as_arr);
        for check in checks.expect("a checks array") {
            let name = check.get("metric").and_then(Json::as_str);
            let name = name.expect("a metric name");
            let metrics = report.get("metrics");
            if metrics
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .is_none()
            {
                missing.push(format!("{exp}: {name}"));
            }
        }
    }
    assert!(missing.is_empty(), "bounded but not reported: {missing:?}");
}

#[test]
fn every_committed_report_records_the_gates_verdict() {
    let baselines = gate::load(&root().join("bench_baselines.json")).unwrap();
    let mut reports = 0;
    let mut wrong = Vec::new();
    for entry in std::fs::read_dir(root().join("results")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        let Some(exp) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let report = gate::load(&path).unwrap();
        let verdict = evaluate_report(exp, &baselines, &report);
        let recorded = report.get("shape").and_then(Json::as_str);
        if recorded != Some(verdict.shape.label()) {
            wrong.push(format!(
                "{exp}: recorded {recorded:?}, gate {:?}",
                verdict.shape
            ));
        }
        reports += 1;
    }
    assert!(reports >= baselines.as_obj().unwrap().len());
    assert!(wrong.is_empty(), "{wrong:?}");
}
