//! Concurrent register/unregister/diagnose churn against a live supervisor.
//!
//! The supervisor's registry is shared mutable state hit from arbitrary
//! threads while its watch thread ticks in the background. This stress
//! battery drives all three surfaces at once and asserts the two properties
//! the locking must provide: the run terminates (no deadlock between the
//! registry lock, diagnose's upgrade-under-lock pass, and the watch
//! thread's tick), and no registration is lost or double-removed. Two more
//! race a diagnosis loop against a counter whose obligations cover every
//! waited level: it must never be diagnosed `NeverSatisfiable`.

use mc_counter::{
    Counter, CounterDiagnostics, MonotonicCounter, StallVerdict, Supervisor, SupervisorConfig,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn concurrent_register_unregister_diagnose_churn() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 200;

    let sup = Supervisor::with_config(SupervisorConfig {
        // Tick fast so the watch thread interleaves with the churn.
        interval: Duration::from_millis(1),
        poison_stuck: false,
        degrade_deadline: None,
    });
    sup.start();

    let stop = Arc::new(AtomicBool::new(false));
    let registered = Arc::new(AtomicUsize::new(0));
    let unregistered = Arc::new(AtomicUsize::new(0));

    thread::scope(|s| {
        // Churn writers: each registers its own namespace of counters, does
        // a little work on them, then unregisters — over and over.
        for w in 0..WRITERS {
            let sup = sup.clone();
            let registered = Arc::clone(&registered);
            let unregistered = Arc::clone(&unregistered);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let name = format!("w{w}-r{round}");
                    let counter = Arc::new(Counter::default());
                    sup.register(name.clone(), &counter);
                    registered.fetch_add(1, Relaxed);
                    counter.increment(1 + (round as u64 % 3));
                    // Exercise the restart-mark path under churn too.
                    if round % 7 == 0 {
                        sup.note_restarting(name.clone(), 1, Duration::from_millis(5));
                    }
                    if sup.unregister(&name) {
                        unregistered.fetch_add(1, Relaxed);
                    }
                }
            });
        }
        // Diagnose readers: hammer the full-registry snapshot (which
        // upgrades every weak entry under the lock) while entries come and
        // go, asserting the snapshot is always internally consistent.
        for _ in 0..2 {
            let sup = sup.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Relaxed) {
                    let report = sup.diagnose();
                    for c in &report.counters {
                        assert!(
                            !c.name.is_empty(),
                            "diagnose must never surface a torn entry"
                        );
                        // Churn counters are never blocked on, so the only
                        // legal verdicts are Idle and (for the round % 7
                        // marks) Restarting.
                        assert!(
                            matches!(
                                c.verdict,
                                StallVerdict::Idle | StallVerdict::Restarting { .. }
                            ),
                            "unexpected verdict for '{}': {:?}",
                            c.name,
                            c.verdict
                        );
                    }
                }
            });
        }
        // An obligation taker racing the same names the writers cycle
        // through: it must either get an obligation (entry was live) or
        // None (already unregistered) — never panic or deadlock.
        {
            let sup = sup.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Relaxed) {
                    let name = format!("w{}-r{}", i % WRITERS, (i * 13) % ROUNDS);
                    if let Some(ob) = sup.restartable_obligation(&name, 1) {
                        ob.rollback();
                    }
                    i = i.wrapping_add(1);
                }
            });
        }
        // Scoped: the writer threads finish on their own; then release the
        // readers. (A panicking writer would hang the readers forever, so
        // give the whole churn a watchdog.)
        let watchdog = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                for _ in 0..600 {
                    if stop.load(Relaxed) {
                        return;
                    }
                    thread::sleep(Duration::from_millis(100));
                }
                eprintln!("supervisor churn watchdog fired: likely deadlock");
                std::process::exit(3);
            })
        };
        // Writers are the first WRITERS spawned threads; scope joins
        // everything, so just flip stop once the registry settles.
        while registered.load(Relaxed) < WRITERS * ROUNDS {
            thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Relaxed);
        drop(watchdog);
    });

    // No lost registrations: every register was observed and every entry
    // the writers created was removed by exactly its own unregister.
    assert_eq!(registered.load(Relaxed), WRITERS * ROUNDS);
    assert_eq!(
        unregistered.load(Relaxed),
        WRITERS * ROUNDS,
        "every registered entry must be found again by its unregister"
    );
    // The registry drained: nothing the churn created remains.
    assert!(
        sup.diagnose().counters.is_empty(),
        "registry must be empty after symmetric register/unregister churn"
    );
}

#[test]
fn watch_thread_keeps_ticking_through_churn() {
    // A register/unregister storm must not wedge the watch thread: after
    // the storm, a genuine stall is still detected.
    let sup = Supervisor::with_config(SupervisorConfig {
        interval: Duration::from_millis(5),
        poison_stuck: false,
        degrade_deadline: None,
    });
    sup.start();

    thread::scope(|s| {
        for w in 0..4 {
            let sup = sup.clone();
            s.spawn(move || {
                for round in 0..100 {
                    let name = format!("storm-{w}-{round}");
                    let c = Arc::new(Counter::default());
                    sup.register(name.clone(), &c);
                    sup.unregister(&name);
                }
            });
        }
    });

    // Post-storm: an unreachable wait must still produce a stall report.
    let stalled = Arc::new(Counter::default());
    sup.register("stalled", &stalled);
    let s2 = Arc::clone(&stalled);
    let waiter = thread::spawn(move || s2.wait(10));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(report) = sup.last_report() {
            let c = report
                .counters
                .iter()
                .find(|c| c.name == "stalled")
                .expect("stalled counter in report");
            assert_eq!(c.value, 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watch thread stopped ticking after churn"
        );
        thread::sleep(Duration::from_millis(5));
    }
    stalled.increment(10);
    waiter.join().unwrap().unwrap();
}

/// Runs `diagnose` on `sup` until `done` is set and returns how many
/// samples of its one counter read `NeverSatisfiable`, and how many samples
/// were taken.
fn count_never_satisfiable(sup: &Supervisor, done: &AtomicBool) -> (usize, usize) {
    let (mut never, mut samples) = (0, 0);
    while !done.load(Relaxed) {
        for c in sup.diagnose().counters {
            samples += 1;
            if c.verdict == StallVerdict::NeverSatisfiable {
                never += 1;
            }
        }
    }
    (never, samples)
}

#[test]
fn fulfilling_obligations_never_reads_as_never_satisfiable() {
    // value + outstanding stays at TOTAL while a producer fulfils its
    // obligations one by one, so the waiter at TOTAL is always reachable.
    const TOTAL: u64 = 200_000;
    let sup = Supervisor::new();
    let c = Arc::new(Counter::default());
    sup.register("fulfilled", &c);
    let owed: Vec<_> = (0..TOTAL)
        .map(|_| sup.obligation("fulfilled", 1).expect("registered"))
        .collect();
    let done = AtomicBool::new(false);
    let (never, samples) = thread::scope(|s| {
        let waiter = s.spawn(|| c.check(TOTAL));
        while c.waiters().is_empty() {
            thread::yield_now();
        }
        let diagnosis = s.spawn(|| count_never_satisfiable(&sup, &done));
        for ob in owed {
            ob.fulfill();
        }
        waiter.join().unwrap();
        done.store(true, Relaxed);
        diagnosis.join().unwrap()
    });
    assert_eq!(
        never, 0,
        "{never} of {samples} samples read NeverSatisfiable"
    );
}

#[test]
fn a_waiter_registered_after_an_increment_is_never_read_as_stuck() {
    // One obligation stays held, so the level one above the value is
    // always reachable; the worker raises the value, then waits there.
    const FOR: Duration = Duration::from_secs(3);
    let sup = Supervisor::new();
    let c = Arc::new(Counter::default());
    sup.register("stepping", &c);
    let _held = sup.obligation("stepping", 1).expect("registered");
    let done = AtomicBool::new(false);
    let (never, samples) = thread::scope(|s| {
        let diagnosis = s.spawn(|| count_never_satisfiable(&sup, &done));
        let t0 = Instant::now();
        let mut value = 0;
        while t0.elapsed() < FOR {
            c.increment(1);
            value += 1;
            assert!(c
                .wait_timeout(value + 1, Duration::from_micros(20))
                .is_err());
        }
        done.store(true, Relaxed);
        diagnosis.join().unwrap()
    });
    assert_eq!(
        never, 0,
        "{never} of {samples} samples read NeverSatisfiable"
    );
}
