//! Deadline-runner crash scenarios: a child process working against a
//! durable counter is SIGKILLed mid-protocol, and the parent then runs
//! deadline-supervised programs against the *recovered* state:
//!
//! * a program waiting past the recovered value overruns its deadline, the
//!   watchdog poisons the recovered (supervised, durable) counter, the
//!   blocked wait is released with the cause, and — because the counter is
//!   durable — the deadline poison itself survives into the next recovery;
//! * a program opening a counter whose poison was persisted *before* the
//!   kill fails fast instead of burning its whole deadline.

use mc_chaos::crash_harness::{self, CrashScenario};
use mc_counter::{CheckError, FailureInfo, MonotonicCounter};
use mc_durable::DurableCounter;
use mc_sthreads::run_with_deadline;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mc-crash-deadline-{tag}-{}", std::process::id()))
}

/// Child workload: durable increments forever until killed.
#[test]
fn child_durable_increments() {
    let Some(dir) = crash_harness::child_role("child_durable_increments") else {
        return;
    };
    let (counter, recovery) =
        DurableCounter::<mc_counter::Counter>::open(&dir).expect("child open");
    let mut value = recovery.value;
    loop {
        value += 1;
        counter.increment(1);
        println!("ACK {value}");
    }
}

/// Child workload: increments, persists a poison, then parks until killed.
#[test]
fn child_durable_poison() {
    let Some(dir) = crash_harness::child_role("child_durable_poison") else {
        return;
    };
    let (counter, _) = DurableCounter::<mc_counter::Counter>::open(&dir).expect("child open");
    counter.increment(2);
    counter.poison(FailureInfo::new("persisted pre-crash failure").with_level(7));
    println!("POISONED 1");
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

/// After a kill-9, a deadline-supervised program waiting *past* the
/// recovered value deadlocks; the watchdog poisons the recovered durable
/// counter, terminating the program — and the deadline poison is durably
/// logged, so the *next* recovery of the same directory restores it.
#[test]
fn deadline_poisons_recovered_counter_and_persists() {
    let dir = scratch_dir("wait");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = CrashScenario::new("child_durable_increments", &dir, "ACK ", 4);
    let report = crash_harness::run(&scenario).expect("harness run");
    assert!(report.killed);

    let program_dir = dir.clone();
    let result = run_with_deadline(Duration::from_millis(200), move |supervisor| {
        let (counter, recovery) = DurableCounter::<mc_counter::Counter>::open(&program_dir)
            .expect("recover under supervision");
        let counter = Arc::new(counter);
        supervisor.register("recovered", &counter);
        assert!(recovery.value >= 4, "acked increments must survive");
        // Nothing ever advances the counter again: without the watchdog
        // this wait would hang forever.
        counter.wait(recovery.value + 10)
    });
    let err = result.expect_err("the waiting program must overrun its deadline");
    assert!(
        err.terminated,
        "poisoning the recovered counter must release the blocked wait"
    );

    // The watchdog's poison went through the durable counter, so it is in
    // the log: a fresh recovery of the directory restores it.
    let (_counter, recovery) =
        DurableCounter::<mc_counter::Counter>::open(&dir).expect("post-deadline recover");
    assert!(
        recovery.poison_restored,
        "deadline poison must survive into the next recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A poison persisted before the kill fails the supervised program fast:
/// the program observes `Poisoned` immediately instead of waiting out its
/// deadline.
#[test]
fn recovered_poison_fails_fast_under_deadline() {
    let dir = scratch_dir("poisoned");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = CrashScenario::new("child_durable_poison", &dir, "POISONED ", 1);
    let report = crash_harness::run(&scenario).expect("harness run");
    assert!(report.killed);

    let program_dir = dir.clone();
    // Generous deadline: the point is that the program does NOT need it.
    let result = run_with_deadline(Duration::from_secs(10), move |supervisor| {
        let (counter, recovery) = DurableCounter::<mc_counter::Counter>::open(&program_dir)
            .expect("recover under supervision");
        let counter = Arc::new(counter);
        supervisor.register("poisoned", &counter);
        assert!(recovery.poison_restored);
        counter.wait(recovery.value + 1)
    });
    let inner = result.expect("program finishes well within the deadline");
    match inner {
        Err(CheckError::Poisoned(info)) => {
            assert_eq!(info.message(), "persisted pre-crash failure");
            assert_eq!(info.level(), Some(7));
        }
        other => panic!("expected fast Poisoned result, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
