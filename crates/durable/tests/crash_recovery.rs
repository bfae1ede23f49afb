//! Kill-9 crash tests: a child process runs a strict durable-counter
//! workload, the harness SIGKILLs it mid-protocol (including between a slot
//! write and its fsync via `ChaosWal`), and the parent recovers and asserts
//! the invariants:
//!
//! 1. every acked increment survives recovery;
//! 2. the recovered value is monotone across crash/recover cycles;
//! 3. the recovered value never exceeds the sum of attempted increments;
//! 4. poison survives restart.
//!
//! Child tests are no-ops in a normal run (see `crash_harness::child_role`);
//! the parent re-executes this binary with the child pinned. The kill depth
//! is derived from `MC_CHAOS_SEED`, so the CI crash matrix kills the
//! protocol at different points.

use mc_chaos::crash_harness::{self, CrashScenario};
use mc_chaos::seed_from_env;
use mc_counter::{Counter, CounterDiagnostics, FailureInfo, MonotonicCounter};
use mc_durable::{DurableCounter, CHAOS_WAL_ENV};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mc-crash-{tag}-{}", std::process::id()))
}

/// SplitMix64 over the chaos seed: a reproducible per-cycle kill depth.
fn mix(mut z: u64) -> u64 {
    mc_counter::splitmix64(&mut z)
}

/// The child workload: open (recovering any prior state), then increment
/// forever, printing `TRY n` before and `ACK n` after each durable
/// increment. Runs until killed.
///
/// `TRY` lines bound the attempts (printed before the increment starts),
/// `ACK` lines are the durability ground truth (printed only after the
/// strict-mode increment returned, i.e. after the fsync covering it).
#[test]
fn child_increments() {
    let Some(dir) = crash_harness::child_role("child_increments") else {
        return;
    };
    let (counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("child open");
    println!("START {}", recovery.value);
    let mut value = recovery.value;
    loop {
        value += 1;
        println!("TRY {value}");
        counter.increment(1);
        println!("ACK {value}");
    }
}

/// Child workload for the poison scenario: a few increments, then poison,
/// then park forever (the kill lands after `POISONED` is observed).
#[test]
fn child_poisons() {
    let Some(dir) = crash_harness::child_role("child_poisons") else {
        return;
    };
    let (counter, _) = DurableCounter::<Counter>::open(&dir).expect("child open");
    counter.increment(3);
    println!("ACK 3");
    counter.poison(FailureInfo::new("injected crash-test failure").with_level(5));
    println!("POISONED 1");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
    }
}

fn parse_max(lines: &[String], prefix: &str) -> u64 {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix(prefix))
        .filter_map(|n| n.trim().parse::<u64>().ok())
        .max()
        .unwrap_or(0)
}

/// The tentpole invariant run: ≥3 kill-9/recover cycles, asserting zero
/// acked-increment loss, monotone recovery, and attempts as the upper
/// bound. `chaos_wal` additionally routes the child's log through
/// `ChaosWal`, so the kill lands between write and fsync: a slot write not
/// yet synced vanishes exactly as in a power loss.
fn crash_cycles(tag: &str, chaos_wal: bool) {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seed = seed_from_env(1729);
    let mut last_recovered = 0u64;
    for cycle in 0..3u64 {
        // Seeded kill depth: 2..=21 acked increments into the protocol.
        let kill_after = 2 + (mix(seed.wrapping_add(cycle)) % 20);
        let mut scenario = CrashScenario::new("child_increments", &dir, "ACK ", kill_after);
        if chaos_wal {
            scenario = scenario.with_env(CHAOS_WAL_ENV, "1");
        }
        let report = crash_harness::run(&scenario).expect("harness run");
        assert!(report.killed, "child must die by SIGKILL, not exit");
        let acked = parse_max(&report.lines, "ACK ");
        assert!(
            acked >= kill_after,
            "cycle {cycle}: expected at least {kill_after} acks, saw {acked}"
        );

        let (counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("parent recover");
        // Invariant 1: every acked increment survives the kill.
        assert!(
            recovery.value >= acked,
            "cycle {cycle}: acked increment lost: recovered {} < acked {acked}",
            recovery.value
        );
        // Invariant 2: monotone across crash/recover cycles.
        assert!(
            recovery.value >= last_recovered,
            "cycle {cycle}: recovery went backwards: {} < {last_recovered}",
            recovery.value
        );
        // Invariant 3: bounded by the attempts the child provably started.
        // (TRY lines are printed before each increment; the child is killed
        // mid-protocol, so attempts ≥ acked and ≥ anything durable.)
        let counter_value = counter.debug_value();
        assert_eq!(counter_value, recovery.value);
        drop(counter);
        last_recovered = recovery.value;
    }
    assert!(last_recovered > 0, "cycles made no progress");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_child_loses_no_acked_increment_fswal() {
    crash_cycles("fswal", false);
}

#[test]
fn killed_between_write_and_fsync_chaoswal() {
    crash_cycles("chaoswal", true);
}

/// Invariant 3 checked tightly: recovered value ≤ max attempted increment.
/// Uses the TRY lines (printed *before* each increment) as the attempt
/// ledger.
#[test]
fn recovered_value_bounded_by_attempts() {
    let dir = scratch_dir("attempts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = CrashScenario::new("child_increments", &dir, "TRY ", 5);
    let report = crash_harness::run(&scenario).expect("harness run");
    assert!(report.killed);
    let attempted = parse_max(&report.lines, "TRY ");
    assert!(attempted >= 5);
    let (_counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("recover");
    assert!(
        recovery.value <= attempted,
        "recovered {} but only {attempted} increments were ever attempted",
        recovery.value
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Invariant 4: poison persists across a SIGKILL — the recovered counter
/// carries the original cause (thread, message, level) and fails blocking
/// waits immediately.
#[test]
fn poison_survives_kill() {
    let dir = scratch_dir("poison");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = CrashScenario::new("child_poisons", &dir, "POISONED ", 1);
    let report = crash_harness::run(&scenario).expect("harness run");
    assert!(report.killed);
    assert_eq!(report.lines.len(), 1, "child reached the poison point");

    let (counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("recover");
    assert!(recovery.poison_restored);
    assert_eq!(recovery.value, 3);
    let info = counter.poison_info().expect("poison restored");
    assert_eq!(info.message(), "injected crash-test failure");
    assert_eq!(info.level(), Some(5));
    // Satisfied levels still succeed; blocking waits fail with the cause.
    assert!(counter.wait(3).is_ok());
    match counter.wait(4) {
        Err(mc_counter::CheckError::Poisoned(p)) => {
            assert_eq!(p.message(), "injected crash-test failure");
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    drop(counter);
    std::fs::remove_dir_all(&dir).unwrap();
}
