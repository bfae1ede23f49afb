//! CPU placement of workload threads.
//!
//! Wake-to-run latency and group-commit throughput change several-fold
//! with whether two threads share a CPU, so the workloads that measure them
//! pin each of their threads to a fixed CPU and record the result. The
//! standard library cannot set affinity, so a thread pins itself by running
//! `taskset` on its own thread id and reads the mask back from `/proc`.

use std::process::Command;
use std::sync::OnceLock;

/// The CPUs this process may run on, as the kernel lists them (`0-1`).
/// Read once, on first use: call it before any thread pins itself, since
/// the main thread's own mask is what `/proc/self` reports.
pub fn process_cpus() -> String {
    static CPUS: OnceLock<String> = OnceLock::new();
    CPUS.get_or_init(|| cpus_allowed("/proc/self/status"))
        .clone()
}

/// The CPUs the calling thread may run on.
pub fn thread_cpus() -> String {
    cpus_allowed("/proc/thread-self/status")
}

fn cpus_allowed(status: &str) -> String {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The number of CPUs the standard library reports as usable, read once
/// on first use like [`process_cpus`].
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pins the calling thread to `cpu` and returns the mask now in force.
///
/// # Errors
///
/// Fails when the thread id cannot be read or `taskset` does not succeed;
/// a workload whose placement is part of its definition must not run
/// unpinned.
pub fn pin_current_thread(cpu: usize) -> Result<String, String> {
    let link = std::fs::read_link("/proc/thread-self")
        .map_err(|e| format!("cannot read own thread id: {e}"))?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or("malformed /proc/thread-self link")?
        .to_string();
    let out = Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .output()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset -p -c {cpu} {tid} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(thread_cpus())
}
