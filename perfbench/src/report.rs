//! The metric catalog and the result the one command prints.
//!
//! Every run prints, for each metric of its mode, a `metric` line with the
//! value, unit and sample count; then a `record` line (JSON) holding the
//! seed, the CPU placement and every metric with its samples; and last the
//! one-line JSON result: `correct`, `attempted`, `failed` and `metrics`.

use mc_bench::json::{number, quote};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("speedup_vs_seq", "x"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 27] = [
    ("algos.fw_seq_ms", "ms"),
    ("counter.checks_per_op", "count"),
    ("counter.increments_per_op", "count"),
    ("counter.fast_check_ratio", "ratio"),
    ("counter.suspend_ratio", "ratio"),
    ("counter.slow_entries_per_op", "count"),
    ("counter.notifies_per_op", "count"),
    ("counter.max_live_nodes", "count"),
    ("counter.blocked_check_us_p50", "us"),
    ("counter.blocked_check_us_p99", "us"),
    ("counter.increment_ns_p50", "ns"),
    ("counter.increment_ns_p99", "ns"),
    ("counter.blocked_share", "ratio"),
    ("patterns.broadcast.writer_ns_per_item", "ns"),
    ("patterns.broadcast.reader_ns_per_item", "ns"),
    ("patterns.sequencer.enter_us_p50", "us"),
    ("patterns.sequencer.exit_ns_p50", "ns"),
    ("durable.fsyncs_per_ack", "ratio"),
    ("durable.batch_records_p50", "count"),
    ("durable.fsync_us_p50", "us"),
    ("durable.fsync_us_p99", "us"),
    ("durable.ack_queue_us_p50", "us"),
    ("durable.snapshots_per_kack", "count"),
    ("durable.retries", "count"),
    ("durable.recover_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("failed_ops_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The value, in the catalog unit.
    pub value: f64,
    /// How many samples it rests on (ops, spans, runs...).
    pub samples: u64,
    /// Free-form detail, e.g. which percentile a tail is.
    pub note: String,
}

/// A run's result, keyed by catalog name.
pub struct Report {
    catalog: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, Measured>,
    /// Run description for the `record` line (seed, placement, ...), as
    /// `(key, JSON value)` pairs.
    pub context: Vec<(&'static str, String)>,
    /// Ops run, including failed ones.
    pub attempted: u64,
    /// Ops whose result was wrong.
    pub failed: u64,
}

/// The note of a metric whose layer is not on the workload's path.
pub const NOT_ON_PATH: &str = "layer not on this workload's path";

impl Report {
    /// An empty report for the traced (`true`) or untraced catalog. Every
    /// metric starts as 0 with [`NOT_ON_PATH`]; a workload sets the ones
    /// its path exercises.
    pub fn new(traced: bool) -> Self {
        let catalog: &'static [(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let values = catalog
            .iter()
            .map(|&(name, _)| {
                let m = Measured {
                    value: 0.0,
                    samples: 0,
                    note: NOT_ON_PATH.into(),
                };
                (name, m)
            })
            .collect();
        Report {
            catalog,
            values,
            context: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in this report's catalog: a metric the
    /// benchmark does not declare must never be printed.
    pub fn set(&mut self, name: &str, value: f64, samples: u64, note: impl Into<String>) {
        let slot = self
            .values
            .iter_mut()
            .find(|(k, _)| **k == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's catalog"))
            .1;
        *slot = Measured {
            value,
            samples,
            note: note.into(),
        };
    }

    /// Whether every op was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The `metric` lines, the `record` line and the result line, in print
    /// order; the result line is last.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut record = Vec::new();
        let mut result = Vec::new();
        for &(name, unit) in self.catalog {
            let m = &self.values[name];
            out.push(format!(
                "metric {name} = {} {unit} (samples {}{}{})",
                m.value,
                m.samples,
                if m.note.is_empty() { "" } else { "; " },
                m.note
            ));
            record.push(format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{},\"note\":{}}}",
                quote(name),
                number(m.value),
                quote(unit),
                m.samples,
                quote(&m.note)
            ));
            result.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(m.value),
                quote(unit)
            ));
        }
        let mut fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        fields.push(format!("\"attempted\":{}", self.attempted));
        fields.push(format!("\"failed\":{}", self.failed));
        fields.push(format!("\"metrics\":{{{}}}", record.join(",")));
        out.push(format!("record {{{}}}", fields.join(",")));
        out.push(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            result.join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_bench::json::{parse, Json};

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// The catalog is what `BENCHMARK.json` declares, name for name and
    /// unit for unit, so every declared metric is printed by the command.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_is_last_and_has_exactly_the_contract_keys() {
        let mut r = Report::new(false);
        r.set("setup_s", 0.5, 5, "");
        r.attempted = 10;
        let lines = r.lines();
        let last = parse(lines.last().unwrap()).unwrap();
        let keys: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        let metrics = last.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = last.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        // Every metric line states its unit and sample count.
        assert!(lines[..END_TO_END.len()]
            .iter()
            .all(|l| l.starts_with("metric ") && l.contains("(samples ")));
        let record = lines[lines.len() - 2].strip_prefix("record ").unwrap();
        assert!(parse(record).is_ok(), "record line is JSON: {record}");
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut r = Report::new(true);
        r.attempted = 3;
        r.failed = 1;
        assert!(!r.correct());
        assert!(r.lines().last().unwrap().contains("\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not in this run's catalog")]
    fn undeclared_metric_is_refused() {
        Report::new(false).set("counter.suspend_ratio", 1.0, 1, "");
    }
}
