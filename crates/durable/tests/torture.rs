//! Torture battery for the failpoint-driven fault-injection stack: seeded
//! randomized fault schedules against concurrent strict writers and
//! waiters, asserting the four robustness invariants:
//!
//! 1. **zero acked-durable loss** — every value the counter ever *claimed*
//!    fsync-durable (via `durable_value`) survives reopen;
//! 2. **monotone recovery** — reopening never goes backwards;
//! 3. **no deadlock** — writers and waiters finish within a bounded
//!    deadline even while faults are armed;
//! 4. **eventual self-heal** — once the fault schedule is cleared, the
//!    counter returns to [`HealthStatus::Healthy`] and `sync()` succeeds.
//!
//! Every run is pinned to one of five seeds and replays from its seed
//! alone (`MC_CHAOS_SEED=<seed>` plus the logged `MC_CHAOS_FAILPOINTS`
//! spec). The kill-9 composition at the bottom layers the crash harness on
//! top, so SIGKILL lands *during* degraded-mode resync.

use mc_chaos::crash_harness::{self, CrashScenario};
use mc_chaos::torture::{arm_plan, fault_plan, plan_to_spec};
use mc_chaos::{FailConfig, Failpoints, FAILPOINTS_ENV};
use mc_counter::{
    Counter, CounterDiagnostics, HealthStatus, MonotonicCounter, Supervisor, SupervisorConfig,
};
use mc_durable::{
    DurabilityMode, DurableCounter, DurableOptions, PoisonPolicy, RetryPolicy, SITE_WAL_APPEND,
    SITE_WAL_FSYNC, SITE_WAL_OPEN,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The CI-pinned seeds. A failure against any of them replays exactly with
/// `MC_CHAOS_SEED=<seed> cargo test -p mc-durable --test torture`.
const SEEDS: [u64; 5] = [1, 7, 42, 1729, 99991];

/// Every instrumented site class an unpoisoned counter hits, which the
/// plan draws faults over: slot write, fsync, and (re)open — the last one
/// makes degraded-mode resync itself fail sometimes.
const SITES: [&str; 3] = [SITE_WAL_APPEND, SITE_WAL_FSYNC, SITE_WAL_OPEN];

const WRITERS: u64 = 4;
const PER_WRITER: u64 = 50;
const TOTAL: u64 = WRITERS * PER_WRITER;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mc-torture-{tag}-{}", std::process::id()))
}

fn parse_max(lines: &[String], prefix: &str) -> u64 {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix(prefix))
        .filter_map(|n| n.trim().parse::<u64>().ok())
        .max()
        .unwrap_or(0)
}

fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Degrade-policy options tuned for torture: small fast retries, a replay
/// budget large enough that writers never block on a dead disk for long,
/// and a fast resync probe.
fn torture_options(fp: &Arc<Failpoints>) -> DurableOptions {
    DurableOptions {
        mode: DurabilityMode::Strict,
        retry: RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(500),
        },
        poison_policy: PoisonPolicy::Degrade,
        failpoints: Some(Arc::clone(fp)),
        replay_budget: 64,
        resync_interval: Duration::from_millis(2),
        metrics: None,
    }
}

/// One full torture cycle for a seed: arm the derived fault plan, run
/// concurrent strict writers + waiters to completion under a deadline,
/// clear the plan, and assert self-heal plus zero-loss reopen.
fn torture_cycle(seed: u64) {
    let dir = scratch_dir(&format!("seed{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Open *before* arming: the plan includes `wal.open`, which must hammer
    // the resync path, not the initial open.
    let fp = Arc::new(Failpoints::new(seed));
    let (counter, recovery) =
        DurableCounter::<Counter>::open_with(&dir, torture_options(&fp)).expect("initial open");
    assert_eq!(recovery.value, 0);
    let counter = Arc::new(counter);

    let plan = fault_plan(seed, &SITES);
    // Log the replayable spec so a failure reproduces outside this harness:
    // MC_CHAOS_SEED=<seed> MC_CHAOS_FAILPOINTS=<spec>.
    eprintln!("seed {seed}: MC_CHAOS_FAILPOINTS={}", plan_to_spec(&plan));
    arm_plan(&fp, &plan);

    let mut handles = Vec::new();
    for _ in 0..WRITERS {
        let c = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..PER_WRITER {
                c.increment(1);
            }
        }));
    }
    for _ in 0..2 {
        let c = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            c.wait(TOTAL).expect("waiter must not see poison");
        }));
    }

    // Invariant 3 (no deadlock): everyone finishes under a hard deadline
    // even with the plan armed — degraded mode keeps acking from memory
    // and the resync probe keeps retrying the (sometimes failing) reopen.
    let deadline = Instant::now() + Duration::from_secs(60);
    while handles.iter().any(|h| !h.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: writers/waiters deadlocked under fault schedule"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for h in handles {
        h.join().expect("torture thread panicked");
    }
    assert_eq!(counter.debug_value(), TOTAL);
    assert!(
        fp.total_injected() > 0,
        "seed {seed}: plan injected nothing — torture ran fault-free"
    );

    // End the outage. Invariant 4: the counter self-heals and the full
    // backlog becomes fsync-durable.
    fp.clear();
    wait_for(
        &format!("seed {seed}: return to Healthy"),
        Duration::from_secs(30),
        || matches!(counter.health(), HealthStatus::Healthy),
    );
    counter.sync().expect("sync after heal");
    assert!(counter.durable_value() >= TOTAL);
    let stats = counter.wal_stats();
    let watermark = counter.durable_value();
    eprintln!(
        "seed {seed}: injected={} retries={} degraded_entries={} resyncs={}",
        fp.total_injected(),
        stats.retries,
        stats.degraded_entries,
        stats.resyncs
    );
    drop(counter);

    // Invariants 1 + 2: reopen (faults off) recovers at least every value
    // ever claimed durable, and at least the full acked total.
    let quiet = DurableOptions {
        failpoints: Some(Arc::new(Failpoints::new(0))),
        ..DurableOptions::default()
    };
    let (reopened, recovery) =
        DurableCounter::<Counter>::open_with(&dir, quiet).expect("reopen after torture");
    assert!(
        recovery.value >= watermark,
        "seed {seed}: durable claim lost: recovered {} < claimed {watermark}",
        recovery.value
    );
    assert!(
        recovery.value >= TOTAL,
        "seed {seed}: acked increment lost: recovered {} < acked {TOTAL}",
        recovery.value
    );
    assert!(!recovery.poison_restored);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torture_seed_1() {
    torture_cycle(SEEDS[0]);
}

#[test]
fn torture_seed_7() {
    torture_cycle(SEEDS[1]);
}

#[test]
fn torture_seed_42() {
    torture_cycle(SEEDS[2]);
}

#[test]
fn torture_seed_1729() {
    torture_cycle(SEEDS[3]);
}

#[test]
fn torture_seed_99991() {
    torture_cycle(SEEDS[4]);
}

/// Child workload for the kill-9 composition: a Degrade-policy strict
/// counter under env-armed failpoints (`MC_CHAOS_FAILPOINTS` /
/// `MC_CHAOS_SEED` travel through [`CrashScenario::with_env`]). Prints
/// `DUR <watermark>` after every increment — each line is a *durability
/// claim* the recovery must honor. The initial open retries in a loop
/// because the armed `wal.open` spec can fail it.
#[test]
fn child_degraded_increments() {
    let Some(dir) = crash_harness::child_role("child_degraded_increments") else {
        return;
    };
    let options = || DurableOptions {
        mode: DurabilityMode::Strict,
        retry: RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(1),
        },
        poison_policy: PoisonPolicy::Degrade,
        // None => the process-global registry parsed from the environment.
        failpoints: None,
        replay_budget: 3,
        resync_interval: Duration::from_millis(1),
        metrics: None,
    };
    let counter = loop {
        match DurableCounter::<Counter>::open_with(&dir, options()) {
            Ok((counter, recovery)) => {
                println!("START {}", recovery.value);
                break counter;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    loop {
        counter.increment(1);
        println!("DUR {}", counter.durable_value());
    }
}

/// Kill-9 composed with degraded mode: the child runs under a persistent
/// probabilistic fault mix (so it cycles healthy → degraded → resync), and
/// SIGKILL lands at a seeded depth — frequently mid-resync, with a replay
/// backlog in flight. Recovery must honor every printed durability claim
/// and stay monotone across cycles.
#[test]
fn kill9_during_degraded_resync_loses_no_durable_claim() {
    let dir = scratch_dir("kill9");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = "wal.append.write=p0.25:enospc,wal.flush.fsync=p0.25:eio";
    let mut last_recovered = 0u64;
    for seed in SEEDS {
        let kill_after = 3 + seed % 9;
        let scenario = CrashScenario::new("child_degraded_increments", &dir, "DUR ", kill_after)
            .with_env(FAILPOINTS_ENV, spec)
            .with_env("MC_CHAOS_SEED", seed.to_string());
        let report = crash_harness::run(&scenario).expect("harness run");
        assert!(report.killed, "seed {seed}: child must die by SIGKILL");
        let claimed = parse_max(&report.lines, "DUR ");

        // Recover with fault injection off; the parent must not inherit
        // the child's env-armed plan.
        let quiet = DurableOptions {
            failpoints: Some(Arc::new(Failpoints::new(0))),
            ..DurableOptions::default()
        };
        let (counter, recovery) =
            DurableCounter::<Counter>::open_with(&dir, quiet).expect("parent recover");
        assert!(
            recovery.value >= claimed,
            "seed {seed}: durable claim lost across SIGKILL: recovered {} < claimed {claimed}",
            recovery.value
        );
        assert!(
            recovery.value >= last_recovered,
            "seed {seed}: recovery went backwards: {} < {last_recovered}",
            recovery.value
        );
        last_recovered = recovery.value;
        drop(counter);
    }
    assert!(last_recovered > 0, "kill-9 cycles made no progress");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a transient write fault that tears a frame mid-write (a
/// `write_all` stopped short by ENOSPC) must not lose the value when the
/// retry succeeds. The retry rewrites the torn slot, so the value acked
/// durable by the successful retry is what a reopen recovers, with both
/// slots whole.
#[test]
fn partial_append_fault_retried_without_torn_frame_loss() {
    let dir = scratch_dir("partial-retry");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fp = Arc::new(Failpoints::new(13));
    let options = DurableOptions {
        mode: DurabilityMode::Strict,
        retry: RetryPolicy::default(),
        // Propagate: any durability claim below must come from the retry
        // path alone, not from degraded-mode memory acks.
        poison_policy: PoisonPolicy::Propagate,
        failpoints: Some(Arc::clone(&fp)),
        ..DurableOptions::default()
    };
    let (counter, _) = DurableCounter::<Counter>::open_with(&dir, options).expect("open");

    counter.increment(1);
    assert_eq!(counter.durable_value(), 1);
    // The next slot write tears mid-frame, then the disarmed site lets the
    // retry through; strict mode acks only after the retry fsyncs.
    fp.arm(
        SITE_WAL_APPEND,
        FailConfig::once_at(1, std::io::ErrorKind::StorageFull).partial(),
    );
    counter.increment(1);
    assert_eq!(counter.durable_value(), 2);
    assert_eq!(fp.injected(SITE_WAL_APPEND), 1, "the fault must have fired");
    assert!(
        counter.wal_stats().retries > 0,
        "the retry path must absorb it"
    );
    assert!(
        matches!(counter.health(), HealthStatus::Healthy),
        "a retried transient fault must not degrade or poison"
    );
    drop(counter);

    let quiet = DurableOptions {
        failpoints: Some(Arc::new(Failpoints::new(0))),
        ..DurableOptions::default()
    };
    let (reopened, recovery) = DurableCounter::<Counter>::open_with(&dir, quiet).expect("reopen");
    assert_eq!(
        recovery.value, 2,
        "value acked durable through the retried write was lost"
    );
    assert_eq!(
        recovery.slots_verified,
        [true, true],
        "the retry must overwrite the slot the failed attempt tore"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Supervisor escalation: a counter degraded past
/// [`SupervisorConfig::degrade_deadline`] is force-poisoned by the watch
/// thread — the availability trade is bounded, a disk that never returns
/// becomes a propagated failure.
#[test]
fn supervisor_force_poisons_counter_degraded_past_deadline() {
    let dir = scratch_dir("sup-deadline");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fp = Arc::new(Failpoints::new(0));
    let sup = Supervisor::with_config(SupervisorConfig {
        interval: Duration::from_millis(10),
        poison_stuck: false,
        degrade_deadline: Some(Duration::from_millis(40)),
    });
    let (counter, _) =
        DurableCounter::<Counter>::open_with(&dir, torture_options(&fp)).expect("open");
    let counter = Arc::new(counter);
    sup.register("outage", &counter);

    // A disk that never comes back: every fsync and every reopen fails.
    fp.arm(
        SITE_WAL_FSYNC,
        FailConfig::always(std::io::ErrorKind::Other),
    );
    fp.arm(SITE_WAL_OPEN, FailConfig::always(std::io::ErrorKind::Other));
    counter.increment(1);
    wait_for("degraded entry", Duration::from_secs(20), || {
        matches!(counter.health(), HealthStatus::Degraded { .. })
    });

    sup.start();
    wait_for(
        "deadline force-poison by watch thread",
        Duration::from_secs(20),
        || matches!(counter.health(), HealthStatus::Poisoned),
    );
    let info = counter.poison_info().expect("force-poisoned");
    assert!(
        info.message().contains("degraded"),
        "cause should cite degradation: {info}"
    );
    // The poison propagates like any other: waiters fail with the cause.
    assert!(counter.wait(2).is_err());
    // The aggregate view agrees.
    let report = sup.diagnose();
    assert!(report.counters.iter().any(|c| c.poisoned.is_some()));
    sup.stop();
    drop(counter);
    std::fs::remove_dir_all(&dir).unwrap();
}
