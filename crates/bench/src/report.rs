//! Machine-readable experiment reports.
//!
//! Every `e*_table` / `x*_*` binary funnels its output through a [`Report`]:
//! the human-readable tables and prose go to stdout, and the same run also
//! writes two artifacts into the repository's `results/` directory:
//!
//! * `<exp>_table.txt` — the rendered tables, the `PERF-GATE` lines and the
//!   verdict, byte-for-byte what the run printed (minus any `--json` dump);
//! * `BENCH_<exp>.json` — a machine-readable record: environment capture,
//!   named scalar metrics, the verdict, and the full tables. This is what
//!   the `perf_gate` binary and the workflow artifacts consume.
//!
//! The verdict is `bench_baselines.json`'s, applied by [`gate::evaluate`]
//! to the metrics the run recorded: a table holds no bound of its own.
//!
//! The destination directory is `$MC_BENCH_RESULTS` when set, else
//! `<workspace root>/results`. Write failures are reported to stderr but
//! never fail the benchmark — artifact emission must not mask a measurement.

use crate::gate::{self, Verdict};
use crate::json;
use crate::Table;
use std::path::PathBuf;

/// An experiment's verdict: whether its metrics meet the bounds
/// `bench_baselines.json` sets on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Shape {
    /// No entry in `bench_baselines.json`: the experiment reports numbers
    /// and prose only.
    #[default]
    Info,
    /// Every bound held.
    Pass,
    /// A bound did not hold; the binary exits non-zero.
    Fail,
}

impl Shape {
    /// The `shape` field of a `BENCH_<exp>.json`.
    pub fn label(self) -> &'static str {
        match self {
            Shape::Info => "info",
            Shape::Pass => "pass",
            Shape::Fail => "fail",
        }
    }
}

/// Where report artifacts land: `$MC_BENCH_RESULTS`, else the workspace
/// `results/` directory.
pub fn results_dir() -> PathBuf {
    match std::env::var_os("MC_BENCH_RESULTS") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")),
    }
}

/// Accumulates one experiment run: tables, named metrics, prose, and the
/// verdict. See the module docs for what
/// [`finish`](Report::finish) emits.
#[derive(Debug)]
pub struct Report {
    experiment: String,
    quick: bool,
    json_stdout: bool,
    tables: Vec<Table>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    verdict: Verdict,
}

impl Report {
    /// Starts a report for experiment `exp` ("e8", "x2", ...), reading the
    /// `--quick` / `--json` flags out of `args`.
    pub fn new(exp: impl Into<String>, args: &[String]) -> Self {
        Report {
            experiment: exp.into(),
            quick: args.iter().any(|a| a == "--quick"),
            json_stdout: args.iter().any(|a| a == "--json"),
            tables: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            verdict: Verdict::default(),
        }
    }

    /// Whether this run was invoked with `--quick`.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Adds a finished table (rendered to stdout and both artifacts).
    pub fn table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Records a named scalar — the values `bench_baselines.json` bounds
    /// (`inc_speedup`, `scrape_overhead`, ...).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Adds a prose paragraph (the "Shape check: ..." explanation).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the human-readable output: tables, notes, `PERF-GATE`
    /// lines, verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for line in self.notes.iter().chain(&self.verdict.lines) {
            out.push_str(line);
            out.push('\n');
        }
        match self.verdict.shape {
            Shape::Info => {}
            Shape::Pass => out.push_str("Shape check PASSED.\n"),
            Shape::Fail => out.push_str("Shape check FAILED.\n"),
        }
        out
    }

    /// Renders the machine-readable `BENCH_<exp>.json` document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"experiment\": {},\n",
            json::quote(&self.experiment)
        ));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"shape\": {},\n",
            json::quote(self.verdict.shape.label())
        ));
        out.push_str(&format!(
            "  \"env\": {{\"hw_threads\": {}, \"os\": {}, \"arch\": {}, \"profile\": {}}},\n",
            hw_threads(),
            json::quote(std::env::consts::OS),
            json::quote(std::env::consts::ARCH),
            json::quote(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("    {}: {}", json::quote(k), json::number(*v)))
            .collect();
        if metrics.is_empty() {
            out.push_str("  \"metrics\": {},\n");
        } else {
            out.push_str(&format!(
                "  \"metrics\": {{\n{}\n  }},\n",
                metrics.join(",\n")
            ));
        }
        let notes: Vec<String> = self.notes.iter().map(|n| json::quote(n)).collect();
        out.push_str(&format!("  \"notes\": [{}],\n", notes.join(", ")));
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                let headers: Vec<String> = t.headers.iter().map(|h| json::quote(h)).collect();
                let rows: Vec<String> = t
                    .rows
                    .iter()
                    .map(|r| {
                        let cells: Vec<String> = r.iter().map(|c| json::quote(c)).collect();
                        format!("[{}]", cells.join(", "))
                    })
                    .collect();
                format!(
                    "    {{\"title\": {}, \"headers\": [{}], \"rows\": [\n      {}\n    ]}}",
                    json::quote(&t.title),
                    headers.join(", "),
                    rows.join(",\n      ")
                )
            })
            .collect();
        if tables.is_empty() {
            out.push_str("  \"tables\": []\n");
        } else {
            out.push_str(&format!("  \"tables\": [\n{}\n  ]\n", tables.join(",\n")));
        }
        out.push('}');
        out
    }

    /// Judges the recorded metrics by `bench_baselines.json`, prints the
    /// report, writes both artifacts, and — when a bound failed — exits
    /// non-zero (after the artifacts land, so a CI failure still uploads
    /// the evidence).
    pub fn finish(mut self) {
        let metric = |name: &str| self.metrics.iter().find(|(k, _)| k == name).map(|m| m.1);
        let exp = &self.experiment;
        self.verdict = match gate::baselines() {
            Ok(baselines) => gate::evaluate(exp, &baselines, metric),
            Err(e) => Verdict::fail(exp, &e),
        };
        let text = self.render_text();
        print!("{text}");
        if self.json_stdout {
            println!("{}", self.render_json());
        }
        let dir = results_dir();
        let write = |name: &str, contents: &str| {
            let path = dir.join(name);
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        };
        write(&format!("{}_table.txt", self.experiment), &text);
        write(
            &format!("BENCH_{}.json", self.experiment),
            &format!("{}\n", self.render_json()),
        );
        if self.verdict.shape == Shape::Fail {
            std::process::exit(1);
        }
    }
}

/// The host's hardware threads, as a report records them.
fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(shape: Shape) -> Report {
        let mut r = Report::new("e0", &["--quick".to_string()]);
        let mut t = Table::new("T", &["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        r.table(t);
        r.metric("speedup", 3.5);
        r.note("Shape check: demo.");
        r.verdict = Verdict {
            shape,
            lines: vec!["PERF-GATE e0: speedup = 3.5000 (x >= 3): ok".into()],
        };
        r
    }

    #[test]
    fn text_includes_tables_notes_and_verdict() {
        let s = sample(Shape::Pass).render_text();
        assert!(s.contains("== T =="));
        assert!(s.contains("Shape check: demo."));
        assert!(s
            .trim_end()
            .ends_with("PERF-GATE e0: speedup = 3.5000 (x >= 3): ok\nShape check PASSED."));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let doc = sample(Shape::Fail).render_json();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("e0"));
        assert_eq!(v.get("shape").unwrap().as_str(), Some("fail"));
        assert_eq!(
            v.get("metrics").unwrap().get("speedup").unwrap().as_f64(),
            Some(3.5)
        );
        let tables = v.get("tables").unwrap().as_arr().unwrap();
        assert_eq!(tables[0].get("title").unwrap().as_str(), Some("T"));
        assert!(v.get("env").unwrap().get("hw_threads").is_some());
    }

    #[test]
    fn quick_flag_is_parsed() {
        assert!(Report::new("e0", &["--quick".into()]).quick());
        assert!(!Report::new("e0", &[]).quick());
    }

    #[test]
    fn artifacts_land_in_the_override_dir() {
        let dir = std::env::temp_dir().join(format!("mc-bench-report-{}", std::process::id()));
        // finish() consults the env var; set it only for this test body.
        // Tests in this crate run single-threaded per-process binary, but
        // be defensive: restore afterwards.
        std::env::set_var("MC_BENCH_RESULTS", &dir);
        sample(Shape::Pass).finish();
        std::env::remove_var("MC_BENCH_RESULTS");
        // `bench_baselines.json` has no `e0` entry, so `finish` judged the
        // run `info`, whatever verdict the report held before.
        let txt = std::fs::read_to_string(dir.join("e0_table.txt")).unwrap();
        assert!(txt.contains("== T ==") && !txt.contains("PERF-GATE"));
        let doc = std::fs::read_to_string(dir.join("BENCH_e0.json")).unwrap();
        let doc = json::parse(&doc).unwrap();
        assert_eq!(doc.get("shape").unwrap().as_str(), Some("info"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
