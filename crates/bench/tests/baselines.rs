//! Every metric that `bench_baselines.json` bounds must be present in the
//! committed `results/BENCH_<exp>.json` of its experiment, so a renamed
//! gated metric fails `cargo test`, not only the CI perf-gate job after
//! every gated table has run.

use mc_bench::json::{self, Json};
use std::path::Path;

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

#[test]
fn every_bounded_metric_is_in_its_committed_report() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baselines = load(&root.join("bench_baselines.json"));
    let mut missing = Vec::new();
    for (exp, baseline) in baselines.as_obj().expect("baselines are an object") {
        let report = load(&root.join(format!("results/BENCH_{exp}.json")));
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
