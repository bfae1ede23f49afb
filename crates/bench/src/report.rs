//! Machine-readable experiment reports.
//!
//! Every `e*_table` / `x*_*` binary funnels its output through a [`Report`]:
//! the human-readable tables and shape-check prose go to stdout exactly as
//! before, and the same run also writes two artifacts into the repository's
//! `results/` directory:
//!
//! * `<exp>_table.txt` — the rendered tables + shape verdict, byte-for-byte
//!   what the run printed (minus any `--json` dump);
//! * `BENCH_<exp>.json` — a machine-readable record: environment capture,
//!   named scalar metrics, the shape verdict, and the full tables. This is
//!   what the CI perf gate (`perf_gate` binary) and the workflow artifacts
//!   consume.
//!
//! The destination directory is `$MC_BENCH_RESULTS` when set, else
//! `<workspace root>/results`. Write failures are reported to stderr but
//! never fail the benchmark — artifact emission must not mask a measurement.

use crate::json;
use crate::Table;
use std::path::PathBuf;

/// Outcome of an experiment's shape check (the "does the measured curve
/// have the claimed shape" verdict, not a perf threshold).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// No pass/fail gate: the experiment reports numbers and prose only.
    Info,
    /// The claimed shape held.
    Pass,
    /// The claimed shape did not hold; the binary exits non-zero.
    Fail,
    /// The check could not run here (e.g. a single-core host cannot show
    /// contention relief); the reason is machine-readable.
    Skipped(String),
}

impl Shape {
    fn label(&self) -> &'static str {
        match self {
            Shape::Info => "info",
            Shape::Pass => "pass",
            Shape::Fail => "fail",
            Shape::Skipped(_) => "skipped",
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

/// Accumulates one experiment run: tables, named metrics, shape-check
/// prose, and the verdict. See the module docs for what
/// [`finish`](Report::finish) emits.
#[derive(Debug)]
pub struct Report {
    experiment: String,
    quick: bool,
    json_stdout: bool,
    tables: Vec<Table>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    shape: Shape,
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
            shape: Shape::Info,
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

    /// Records a named scalar — the values the perf gate compares against
    /// baselines (`inc_speedup`, `scrape_overhead`, ...).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Adds a prose paragraph (the "Shape check: ..." explanation).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Sets the verdict from a boolean check.
    pub fn shape_check(&mut self, passed: bool) {
        self.shape = if passed { Shape::Pass } else { Shape::Fail };
    }

    /// Marks the shape check as not runnable here, with a reason that
    /// shows up machine-readable in the JSON artifact.
    pub fn skip(&mut self, reason: impl Into<String>) {
        self.shape = Shape::Skipped(reason.into());
    }

    /// Renders the human-readable output: tables, notes, verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        match &self.shape {
            Shape::Info => {}
            Shape::Pass => out.push_str("Shape check PASSED.\n"),
            Shape::Fail => out.push_str("Shape check FAILED.\n"),
            Shape::Skipped(reason) => out.push_str(&format!("Shape check SKIPPED({reason}).\n")),
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
            json::quote(self.shape.label())
        ));
        if let Shape::Skipped(reason) = &self.shape {
            out.push_str(&format!("  \"skip_reason\": {},\n", json::quote(reason)));
        }
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        out.push_str(&format!(
            "  \"env\": {{\"hw_threads\": {threads}, \"os\": {}, \"arch\": {}, \"profile\": {}}},\n",
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

    /// Prints the report, writes both artifacts, and — when the shape
    /// check failed — exits non-zero (after the artifacts land, so a CI
    /// failure still uploads the evidence).
    pub fn finish(self) {
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
        if self.shape == Shape::Fail {
            std::process::exit(1);
        }
    }
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
        r.shape = shape;
        r
    }

    #[test]
    fn text_includes_tables_notes_and_verdict() {
        let s = sample(Shape::Pass).render_text();
        assert!(s.contains("== T =="));
        assert!(s.contains("Shape check: demo."));
        assert!(s.trim_end().ends_with("Shape check PASSED."));
        let skipped = sample(Shape::Skipped("single-core-host".into())).render_text();
        assert!(skipped.contains("Shape check SKIPPED(single-core-host)."));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let doc = sample(Shape::Skipped("why".into())).render_json();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("e0"));
        assert_eq!(v.get("shape").unwrap().as_str(), Some("skipped"));
        assert_eq!(v.get("skip_reason").unwrap().as_str(), Some("why"));
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
        let txt = std::fs::read_to_string(dir.join("e0_table.txt")).unwrap();
        assert!(txt.contains("Shape check PASSED."));
        let doc = std::fs::read_to_string(dir.join("BENCH_e0.json")).unwrap();
        assert!(json::parse(&doc).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
