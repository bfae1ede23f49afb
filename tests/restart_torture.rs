//! Restart torture: supervision trees under composed fault injection.
//!
//! The acceptance battery for the supervision-tree runtime, composing every
//! fault source the workspace has:
//!
//! 1. **Seeded worker panics** (a fresh `ChaosCounter::with_abandon_after`
//!    per run poisons the worker's progress tracker mid-protocol) while the
//!    durable ground-truth counters run with **armed WAL failpoints**
//!    (transient EINTR/EAGAIN absorbed by the retry policy). The program
//!    must complete with *exact* totals — zero lost, zero double-counted
//!    increments — because every replacement run resumes from the counter
//!    value instead of rerunning from zero.
//! 2. **Escalation** when restart intensity is exhausted: the resulting
//!    poison's `FailureInfo` must preserve the original panic cause, and
//!    must survive a durable counter's crash/recover cycle.
//! 3. **Kill-9 during a restart storm**: a child process runs a perpetually
//!    crash-restarting supervised worker over a strict durable counter; the
//!    harness SIGKILLs it mid-storm. Recovery must observe every acked
//!    (`DUR`-claimed) increment, and a follow-up supervised run over the
//!    recovered state must reach an exact final total — quiescence after
//!    the storm.

use mc_chaos::crash_harness::{self, CrashScenario};
use mc_chaos::{seed_from_env, Chaos, ChaosCounter, Failpoints};
use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter, StallVerdict};
use mc_durable::{DurabilityMode, DurableCounter, DurableOptions, PoisonPolicy, RetryPolicy};
use mc_sthreads::{ChildSpec, RestartLimits, SupervisionTree};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mc-restart-torture-{tag}-{}", std::process::id()))
}

fn mix(mut z: u64) -> u64 {
    mc_counter::splitmix64(&mut z)
}

/// Durable options for torture runs: strict acks, transient faults armed on
/// the WAL hot paths, and a retry budget deep enough that a seeded
/// transient streak cannot realistically exhaust it (p = 0.05^11).
fn tortured_options(seed: u64) -> DurableOptions {
    let fp = Failpoints::from_spec(
        seed,
        "wal.flush.fsync=p0.05:eintr,wal.append.write=p0.05:eagain",
    )
    .expect("valid failpoint spec");
    DurableOptions {
        mode: DurabilityMode::Strict,
        retry: RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(1),
        },
        poison_policy: PoisonPolicy::Degrade,
        failpoints: Some(Arc::new(fp)),
        ..DurableOptions::default()
    }
}

/// Invariant 1: exact totals under seeded panics + armed WAL failpoints.
#[test]
fn seeded_panics_and_wal_faults_still_produce_exact_totals() {
    const WORKERS: u64 = 4;
    const K: u64 = 60; // increments owed by each worker

    let seed = seed_from_env(42);
    let mut dirs = Vec::new();
    let mut counters = Vec::new();
    for w in 0..WORKERS {
        let dir = scratch_dir(&format!("exact-{w}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (c, recovery) =
            DurableCounter::<Counter>::open_with(&dir, tortured_options(seed ^ w)).unwrap();
        assert_eq!(recovery.value, 0);
        counters.push(Arc::new(c));
        dirs.push(dir);
    }

    let mut builder = SupervisionTree::builder().seed(seed).limits(RestartLimits {
        max_restarts: 5,
        window: Duration::from_secs(30),
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(5),
    });
    for (w, durable) in counters.iter().enumerate() {
        let name = format!("jobs-{w}");
        let durable_body = Arc::clone(durable);
        let body_name = name.clone();
        let spec = ChildSpec::new(format!("worker-{w}"), move |ctx| {
            // Resume from counter state: the applied prefix is the resume
            // point, and in strict mode the durable watermark equals it.
            let start = ctx.value(&body_name).expect("registered counter");
            assert_eq!(
                ctx.durable_value(&body_name),
                Some(start),
                "strict mode: acked == durable at every (re)start"
            );
            // A fresh seeded fault trigger per run: the worker's progress
            // tracker abandons its nth increment and is poisoned; the
            // abandon point recedes with each attempt, so runs converge.
            let nth = (ctx.attempt() as u64 + 1) * (K / 4);
            let scratch = ChaosCounter::with_abandon_after(
                Counter::default(),
                Arc::new(Chaos::new(mix(seed ^ w as u64) ^ ctx.attempt() as u64)),
                nth,
            );
            let mut progress = 0u64;
            for _ in start..K {
                durable_body.increment(1);
                progress += 1;
                scratch.increment(1);
                if let Err(e) = scratch.wait(progress) {
                    // Not the counter-poisoned cascade prefix: this panic is
                    // the worker's own failure and must be restarted.
                    panic!("worker lost a progress update mid-protocol: {e:?}");
                }
            }
        })
        .counter(name, durable);
        builder = builder.child(spec);
    }
    let tree = builder.build();
    let supervisor = tree.supervisor().clone();
    let report = tree.run().expect("torture run must converge");

    for (w, durable) in counters.iter().enumerate() {
        assert_eq!(
            durable.debug_value(),
            K,
            "worker {w}: exact total required — no lost or double-counted increments"
        );
        assert_eq!(durable.durable_value(), K, "worker {w}: all acks durable");
        assert!(durable.poison_info().is_none());
        // The abandon schedule fires at K/4 and K/2-of-remaining, then
        // recedes past the end: exactly 2 restarts per worker.
        assert_eq!(report.child(&format!("worker-{w}")).unwrap().restarts, 2);
    }
    // Quiescence: nothing waiting, nothing restarting, nothing stuck.
    for c in supervisor.diagnose().counters {
        assert_eq!(c.verdict, StallVerdict::Idle, "'{}' not quiescent", c.name);
    }
    drop(counters);
    for dir in dirs {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Invariant 2: exhausted intensity escalates to a poison that preserves
/// the original panic cause — and the poison survives crash/recovery.
#[test]
fn escalation_poison_preserves_the_original_cause_durably() {
    let dir = scratch_dir("escalate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (durable, _) = DurableCounter::<Counter>::open(&dir).unwrap();
    let durable = Arc::new(durable);

    let failure = SupervisionTree::builder()
        .limits(RestartLimits {
            max_restarts: 2,
            window: Duration::from_secs(30),
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_micros(400),
        })
        .child(
            ChildSpec::new("doomed", |ctx| {
                panic!("payroll batch corrupted (attempt {})", ctx.attempt())
            })
            .counter("payroll", &durable),
        )
        .build()
        .run()
        .unwrap_err();

    assert_eq!(failure.child, "doomed");
    assert_eq!(failure.restarts, 2);
    assert!(
        failure.cause.message().contains("payroll batch corrupted"),
        "escalation must preserve the root cause, got: {}",
        failure.cause.message()
    );
    let poison = durable
        .poison_info()
        .expect("escalation poisons the counter");
    assert!(poison.message().contains("payroll batch corrupted"));

    // The escalation poison is durable state: it survives a process death.
    drop(durable);
    let (recovered, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
    assert!(recovery.poison_restored, "poison must survive recovery");
    let restored = recovered.poison_info().expect("restored poison");
    assert!(
        restored.message().contains("payroll batch corrupted"),
        "recovered cause must still name the original panic, got: {}",
        restored.message()
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The kill-9 child: a supervised worker in a perpetual restart storm over
/// a strict durable counter. Prints `DUR n` (the acked-durable watermark)
/// after each increment; panics every 5 increments. The sliding intensity
/// window out-slides the failures, so the storm restarts until the harness
/// SIGKILLs the process.
#[test]
fn child_restart_storm() {
    let Some(dir) = crash_harness::child_role("child_restart_storm") else {
        return;
    };
    let seed = seed_from_env(7);
    let (counter, recovery) =
        DurableCounter::<Counter>::open_with(&dir, tortured_options(seed)).expect("child open");
    println!("START {}", recovery.value);
    let counter = Arc::new(counter);
    let body_counter = Arc::clone(&counter);
    let tree = SupervisionTree::builder()
        .seed(seed)
        .limits(RestartLimits {
            // The window (200ms) out-slides the failure rate: intensity
            // never exhausts and the storm restarts forever.
            max_restarts: 50,
            window: Duration::from_millis(200),
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(2),
        })
        .child(
            ChildSpec::new("storm-worker", move |ctx| {
                let start = ctx.value("storm").expect("registered");
                for n in start.. {
                    body_counter.increment(1);
                    // Strict mode: the increment returned, so this value is
                    // on disk — the zero-loss claim the parent checks.
                    println!("DUR {}", body_counter.durable_value());
                    if (n + 1) % 5 == 0 {
                        panic!("storm crash at {}", n + 1);
                    }
                }
            })
            .counter("storm", &counter),
        )
        .build();
    let _ = tree.run(); // unreachable: the worker never completes
    unreachable!("the storm child runs until SIGKILL");
}

fn parse_max(lines: &[String], prefix: &str) -> u64 {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix(prefix))
        .filter_map(|n| n.trim().parse::<u64>().ok())
        .max()
        .unwrap_or(0)
}

/// Invariant 3: a SIGKILL landing mid-restart-storm loses no acked-durable
/// increment, and the recovered state supports an exact supervised finish.
#[test]
fn sigkill_during_restart_storm_loses_no_acked_increment() {
    let dir = scratch_dir("kill9");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seed = seed_from_env(1729);
    // Deep enough that at least one restart happened before the kill
    // (crashes land every 5 increments).
    let kill_after = 7 + (mix(seed) % 10);
    let scenario = CrashScenario::new("child_restart_storm", &dir, "DUR ", kill_after);
    let report = crash_harness::run(&scenario).expect("harness run");
    assert!(report.killed, "child must die by SIGKILL, not exit");

    let claimed = parse_max(&report.lines, "DUR ");
    assert!(claimed >= kill_after, "storm made too little progress");
    assert!(
        claimed > 5,
        "kill must land after the first crash/restart cycle (claimed {claimed})"
    );

    let (counter, recovery) = DurableCounter::<Counter>::open(&dir).expect("parent recover");
    assert!(
        recovery.value >= claimed,
        "acked-durable increment lost across SIGKILL: recovered {} < claimed {claimed}",
        recovery.value
    );
    assert!(
        !recovery.poison_restored,
        "restartable deaths must not poison"
    );

    // Eventual quiescence: a supervised run over the recovered state (with
    // one more seeded mid-run panic) finishes at an exact total.
    let target = recovery.value + 20;
    let counter = Arc::new(counter);
    let finish_counter = Arc::clone(&counter);
    let tree_report = SupervisionTree::builder()
        .limits(RestartLimits {
            max_restarts: 3,
            window: Duration::from_secs(30),
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
        })
        .child(
            ChildSpec::new("finisher", move |ctx| {
                let start = ctx.value("storm").expect("registered");
                for n in start..target {
                    finish_counter.increment(1);
                    if ctx.is_first_run() && n == start + 7 {
                        panic!("one last hiccup");
                    }
                }
            })
            .counter("storm", &counter),
        )
        .build()
        .run()
        .expect("post-recovery run must converge");
    assert_eq!(tree_report.child("finisher").unwrap().restarts, 1);
    assert_eq!(
        counter.debug_value(),
        target,
        "exact total after storm + SIGKILL + recovery + supervised finish"
    );
    assert_eq!(counter.durable_value(), target);
    drop(counter);
    std::fs::remove_dir_all(&dir).unwrap();
}
