//! The repository benchmark: one command, one workload, one seed.
//!
//! ```text
//! perfbench --workload <apsp|broadcast|handoff|durable> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation.
//! `--trace 1` runs the workload untraced for half the time and traced for
//! the other half, and prints the per-layer metrics (plus the tracing
//! overhead, traced over untraced throughput); the spans go to
//! `<out-dir>/spans-<workload>-seed<n>.jsonl`. The last line of standard
//! output is the JSON result; the exit code is 1 when any op produced a
//! wrong result and 2 when the run could not be made. See `README.md`.

mod place;
mod report;
mod sample;
mod trace;
mod workload;

use report::Report;
use std::path::PathBuf;
use std::sync::Arc;
use workload::{Config, Outcome};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["apsp", "broadcast", "handoff", "durable"];

/// Op sampling stride of the traced phase: every op on the workloads with
/// few ops, fewer where millions of ops would not fit in memory as spans.
fn trace_stride(workload: &str) -> u64 {
    match workload {
        "handoff" => 16,
        _ => 1,
    }
}

/// Variables that make the durable layer inject faults.
const FAULT_ENV: [&str; 2] = ["MC_CHAOS_FAILPOINTS", "MC_CHAOS_WAL"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == workload)
        .ok_or_else(|| format!("unknown workload {workload}; one of {WORKLOADS:?}"))?;
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let out_dir =
        PathBuf::from(get("--out-dir").unwrap_or_else(|| ".bench_build/perfbench".into()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn run_phase(
    workload: &str,
    cfg: &Config,
    tracer: Option<&Arc<trace::Tracer>>,
) -> Result<Outcome, String> {
    match workload {
        "apsp" => workload::apsp::run(cfg, tracer),
        "broadcast" => workload::broadcast::run(cfg, tracer),
        "handoff" => workload::handoff::run(cfg, tracer),
        "durable" => workload::durable::run(cfg, tracer),
        w => Err(format!("unknown workload {w}")),
    }
}

/// Sets the end-to-end metrics of an untraced phase.
fn end_to_end(report: &mut Report, out: &Outcome) {
    let n = out.ops;
    report.set(
        "throughput_ops_s",
        out.throughput(),
        n,
        format!("median rate over {} windows", out.windows.len()),
    );
    let samples = out.latency_ns.len() as u64;
    if let Some(t) = sample::chunked_tail(&out.latency_ns, &sample::LADDER) {
        report.set(
            "latency_tail_us",
            t.value / 1e3,
            samples,
            format!(
                "median over {} chunks of p{}..p{}, each with >= {} samples beyond",
                t.chunks, t.percentiles.0, t.percentiles.1, t.beyond
            ),
        );
    }
    if samples > 0 {
        let p50 = sample::median(&out.latency_ns);
        report.set("latency_p50_us", p50 / 1e3, samples, "");
    }
    report.set(
        "speedup_vs_seq",
        out.speedup,
        n,
        "sequential reference time / parallel time",
    );
    if let Some(t) = out.setup {
        report.set(
            "setup_s",
            t.median.as_secs_f64(),
            t.runs as u64,
            format!("median of {} setups after a warm-up", t.runs),
        );
    }
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: args.out_dir.clone(),
    };
    let mut report = Report::new(args.trace);
    let placement;
    if !args.trace {
        let out = run_phase(args.workload, &cfg, None)?;
        end_to_end(&mut report, &out);
        report.attempted = out.ops;
        report.failed = out.failed;
        placement = out.placement;
    } else {
        cfg.seconds = args.seconds / 2.0;
        let plain = run_phase(args.workload, &cfg, None)?;
        let tracer = trace::Tracer::new(trace_stride(args.workload));
        let traced = run_phase(args.workload, &cfg, Some(&tracer))?;
        for (name, value, samples, note) in &traced.layer {
            report.set(name, *value, *samples, note.clone());
        }
        report.set(
            "trace.overhead",
            traced.throughput() / plain.throughput(),
            traced.ops + plain.ops,
            "traced / untraced throughput",
        );
        report.attempted = plain.ops + traced.ops;
        report.failed = plain.failed + traced.failed;
        report.set(
            "failed_ops_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.attempted,
            "",
        );
        let spans_path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_spans(&spans_path, &traced.spans)
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        println!(
            "spans {} written to {} (1 op in {} traced)",
            traced.spans.len(),
            spans_path.display(),
            tracer.stride()
        );
        for (name, t) in trace::self_times(&traced.spans) {
            println!(
                "span {name}: count {} total {:.3} ms self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        placement = traced.placement;
    }
    report.context = vec![
        ("workload", mc_bench::json::quote(args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", mc_bench::json::number(args.seconds)),
        ("nproc", place::nproc().to_string()),
        (
            "cpus_allowed",
            mc_bench::json::quote(&place::process_cpus()),
        ),
        ("placement", mc_bench::json::quote(&placement)),
    ];
    Ok(report)
}

fn main() {
    // Fix the process-wide CPU facts before any thread pins itself.
    place::nproc();
    place::process_cpus();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(v) = FAULT_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {v} set: the durable layer would inject faults");
        std::process::exit(2);
    }
    match run(&args) {
        Ok(report) => {
            for line in report.lines() {
                println!("{line}");
            }
            if !report.correct() {
                eprintln!(
                    "perfbench: {} of {} ops were wrong",
                    report.failed, report.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
