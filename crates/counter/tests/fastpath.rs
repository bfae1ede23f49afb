//! Fast-path protocol tests, run against every packed-word implementation.
//!
//! The properties under test are the ones the packed-word design must
//! guarantee (see the `fastpath` module docs in `mc-counter`):
//!
//! 1. **No lost wakeup at the boundary**: a `check(level)` racing an
//!    `increment` that satisfies exactly `level` always terminates.
//! 2. **The waiters bit never sticks**: after all waiters drain, increments
//!    return to the fast path (observable as `fast_increments` growing).
//! 3. **Waiter-free workloads never lock**: `slow_path_entries == 0`.
//! 4. **Stats are consistent across tiers**: fast hits are included in the
//!    operation totals, never double-counted.
//! 5. **Saturated regime stays exact**: above the 62-bit hint cap, values and
//!    checks keep exact `u64` semantics.
//! 6. **Striped tallies stay exact**: concurrent fast-path operations on
//!    different threads are each counted once, and so are the checks that
//!    a spinning counter satisfies while polling before suspending.
//! 7. **Cursors skip what they have seen and tally on drop**: a cursor's
//!    check at or below the highest value it observed touches no atomic,
//!    its poisoned waits match `wait`, its increments wake suspended
//!    waiters, and once it drops every check and increment it made is in
//!    the totals, exactly, across threads.

use mc_counter::{
    BTreeCounter, CheckError, Counter, CounterDiagnostics, FailureInfo, MonotonicCounter,
    ShardedCounter, WaitQueue, WaitlistCounter, POISONED_PANIC_PREFIX,
};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Mirrors `fastpath::FAST_CAP` (private): the packed hint saturates here.
const FAST_CAP: u64 = (1 << 62) - 1;

fn boundary_race<C: MonotonicCounter + Default + 'static>(amounts: Vec<u64>) {
    // One thread performs the increments; one checker waits for exactly the
    // final total — the boundary where a missed wakeup would deadlock. The
    // 5s timeout converts a protocol bug into a test failure, not a hang.
    let c = Arc::new(C::default());
    let total: u64 = amounts.iter().sum();
    std::thread::scope(|s| {
        let waiter = {
            let c = Arc::clone(&c);
            s.spawn(move || c.check_timeout(total, Duration::from_secs(5)))
        };
        let c2 = Arc::clone(&c);
        s.spawn(move || {
            for a in amounts {
                c2.increment(a);
            }
        });
        assert_eq!(
            waiter.join().unwrap(),
            Ok(()),
            "checker missed the wakeup at the exact boundary"
        );
    });
}

fn bit_never_sticks<C: MonotonicCounter + CounterDiagnostics + Default + 'static>() {
    let c = Arc::new(C::default());
    for round in 1..=10u64 {
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.check(round * 10));
        while c.stats().live_waiters == 0 {
            std::thread::yield_now();
        }
        c.increment(10);
        h.join().unwrap();
        // The waiter has drained; the next increment must be a fast one.
        let before = c.stats().fast_increments;
        c.advance_to(round * 10); // no-op, must not disturb anything
        c.increment(0);
        assert_eq!(
            c.stats().fast_increments,
            before + 1,
            "waiters bit stuck after round {round}"
        );
        // Re-align the value for the next round (the increment(0) added 0).
    }
}

fn waiter_free_is_lock_free<C: MonotonicCounter + CounterDiagnostics + Default>() {
    let c = C::default();
    for i in 0..1000u64 {
        c.increment(1);
        c.check(i / 2);
        if i % 100 == 0 {
            c.advance_to(i);
        }
    }
    let s = c.stats();
    assert_eq!(s.slow_path_entries, 0, "locked without any waiter: {s}");
    assert_eq!(s.fast_checks, s.checks);
    assert_eq!(s.fast_increments, s.increments);
}

fn stats_tiers_are_consistent<C: MonotonicCounter + CounterDiagnostics + Default + 'static>() {
    let c = Arc::new(C::default());
    // Mix fast ops with a genuine suspension.
    c.increment(1);
    c.check(1);
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.check(5));
    while c.stats().live_waiters == 0 {
        std::thread::yield_now();
    }
    c.increment(4);
    h.join().unwrap();
    let s = c.stats();
    assert!(s.fast_checks <= s.immediate_checks, "{s}");
    assert!(s.immediate_checks <= s.checks, "{s}");
    assert!(s.fast_increments <= s.increments, "{s}");
    assert_eq!(s.checks, 2, "{s}");
    assert_eq!(s.suspensions, 1, "{s}");
    assert!(s.slow_path_entries >= 2, "waiter + sweeping increment: {s}");
}

fn concurrent_tallies_are_exact<C: MonotonicCounter + CounterDiagnostics + Default>() {
    const THREADS: u64 = 4;
    const OPS: u64 = 10_000;
    let c = C::default();
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                for _ in 0..OPS {
                    c.increment(1);
                    c.check(1);
                }
            });
        }
    });
    let s = c.stats();
    let total = THREADS * OPS;
    assert_eq!(s.fast_increments, total, "{s}");
    assert_eq!(s.fast_checks, total, "{s}");
    assert_eq!(s.increments, total, "{s}");
    assert_eq!(s.checks, total, "{s}");
    assert_eq!(s.slow_path_entries, 0, "{s}");
}

/// The spinning variant of [`concurrent_tallies_are_exact`]: two threads
/// alternate tickets on a counter built with `spin_before_suspend`, so each
/// waits next in line and checks land on every tier, each thread's on its
/// own stripe. Every check or increment that missed its lock-free tier
/// entered the slow path exactly once, so the striped `spin_checks` must
/// balance `slow_path_entries` exactly. When the two threads cannot run at
/// once (other tests hold the CPUs), every poll runs out and the round
/// proves nothing, so rounds repeat until one spin-satisfied check lands.
fn concurrent_spin_tallies_are_exact<C: MonotonicCounter + CounterDiagnostics + Sync>(
    build: impl Fn() -> C,
) {
    const THREADS: u64 = 2;
    const TICKETS: u64 = 10_000;
    const ATTEMPTS: usize = 20;
    for _ in 0..ATTEMPTS {
        let c = build();
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for k in 0..THREADS {
                let (c, start) = (&c, &start);
                s.spawn(move || {
                    start.wait();
                    for ticket in (k..TICKETS).step_by(THREADS as usize) {
                        c.check(ticket);
                        c.increment(1);
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!((s.checks, s.increments), (TICKETS, TICKETS), "{s}");
        assert_eq!(s.immediate_checks + s.suspensions, s.checks, "{s}");
        let slow_checks = s.checks - s.fast_checks - s.spin_checks;
        let slow_increments = s.increments - s.fast_increments;
        assert_eq!(s.slow_path_entries, slow_checks + slow_increments, "{s}");
        if s.spin_checks > 0 {
            return;
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        cpus, 1,
        "no check was satisfied while spinning in {ATTEMPTS} runs"
    );
}

fn saturated_regime_is_exact<C: MonotonicCounter + CounterDiagnostics + Default + 'static>(
    with_value: impl Fn(u64) -> C,
) {
    let c = with_value(FAST_CAP - 1);
    assert_eq!(c.debug_value(), FAST_CAP - 1);
    c.increment(2); // crosses the cap
    assert_eq!(c.debug_value(), FAST_CAP + 1);
    c.check(FAST_CAP + 1); // satisfied in the saturated regime
                           // A waiter above the current value still wakes exactly at its level.
    let c = Arc::new(with_value(u64::MAX - 3));
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.check(u64::MAX));
    while c.stats().live_waiters == 0 {
        std::thread::yield_now();
    }
    c.increment(2);
    std::thread::sleep(Duration::from_millis(20));
    assert!(!h.is_finished(), "woke below u64::MAX");
    c.increment(1);
    h.join().unwrap();
    assert_eq!(c.debug_value(), u64::MAX);
    assert!(c.try_increment(1).is_err(), "overflow must still be exact");
}

fn cursor_check_at_or_below_the_bound_touches_no_atomic<Q: WaitQueue>(c: WaitlistCounter<Q>) {
    c.increment(5);
    let before = c.stats();
    let mut cursor = c.cursor();
    cursor.check(2); // one load observes 5
    for level in [5, 0, 3, 5, 1] {
        cursor.check(level);
        assert_eq!(
            c.stats(),
            before,
            "skipped check at {level} touched the stats"
        );
    }
    assert!(cursor.wait(4).is_ok());
    assert_eq!(c.stats(), before, "live cursors keep their tallies");
    drop(cursor);
    let s = c.stats();
    assert_eq!((s.checks, s.fast_checks), (before.checks + 7, 7), "{s}");
    assert_eq!(s.immediate_checks, before.immediate_checks + 7, "{s}");
    assert_eq!(s.slow_path_entries, 0, "{s}");
}

fn cursor_tallies_reach_the_totals_when_it_drops<Q: WaitQueue>(c: WaitlistCounter<Q>) {
    const OPS: u64 = 1_000;
    let mut cursor = c.cursor();
    for i in 1..=OPS {
        cursor.increment(1);
        cursor.check(i); // above the bound: one load, a new bound
        cursor.check(i / 2); // at or below it: skipped
    }
    cursor.increment(0);
    assert_eq!(c.stats().increments, 0, "live cursors keep their tallies");
    drop(cursor);
    let s = c.stats();
    assert_eq!((s.increments, s.fast_increments), (OPS + 1, OPS + 1), "{s}");
    assert_eq!((s.checks, s.fast_checks), (2 * OPS, 2 * OPS), "{s}");
    assert_eq!(s.slow_path_entries, 0, "{s}");
    assert_eq!(c.debug_value(), OPS);
}

fn cursor_poison_semantics_match_wait<Q: WaitQueue>(c: WaitlistCounter<Q>) {
    c.increment(3);
    let mut seen = c.cursor();
    seen.check(2); // bound 3
    c.poison(FailureInfo::new("writer died"));
    let mut fresh = c.cursor();
    for level in [0, 1, 3] {
        assert_eq!(c.wait(level), Ok(()), "level {level}");
        assert_eq!(seen.wait(level), Ok(()), "bound covers level {level}");
        assert_eq!(fresh.wait(level), Ok(()), "value covers level {level}");
    }
    for cursor in [&mut seen, &mut fresh] {
        match cursor.wait(4) {
            Err(CheckError::Poisoned(info)) => assert_eq!(info.message(), "writer died"),
            other => panic!("wait above the value on a poisoned counter: {other:?}"),
        }
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cursor.check(4)))
            .expect_err("check above the value on a poisoned counter");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.starts_with(POISONED_PANIC_PREFIX), "{message}");
        assert!(message.contains("writer died"), "{message}");
    }
    assert!(matches!(c.wait(4), Err(CheckError::Poisoned(_))));
}

fn cursor_increment_wakes_a_suspended_waiter<Q: WaitQueue>(c: WaitlistCounter<Q>) {
    let c = Arc::new(c);
    let waiter = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || c.check(5))
    };
    while c.stats().live_waiters == 0 {
        std::thread::yield_now();
    }
    let mut cursor = c.cursor();
    cursor.increment(5); // the waiters bit is set: the CAS yields to the slow path
    waiter.join().unwrap();
    drop(cursor);
    let s = c.stats();
    assert_eq!((s.increments, s.fast_increments), (1, 0), "{s}");
    assert_eq!((s.suspensions, s.notifies), (1, 1), "{s}");
    assert_eq!(c.live_nodes(), 0);
}

fn concurrent_cursor_tallies_are_exact<Q: WaitQueue>(c: WaitlistCounter<Q>) {
    const THREADS: u64 = 4;
    const OPS: u64 = 10_000;
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let mut cursor = c.cursor();
                start.wait();
                for i in 1..=OPS {
                    cursor.increment(1);
                    cursor.check(i); // its own increments reach `i`
                }
            });
        }
    });
    let s = c.stats();
    let total = THREADS * OPS;
    assert_eq!((s.increments, s.fast_increments), (total, total), "{s}");
    assert_eq!((s.checks, s.fast_checks), (total, total), "{s}");
    assert_eq!(s.slow_path_entries, 0, "{s}");
    assert_eq!(c.debug_value(), total);
}

/// The cursor cases, run against every queue strategy.
macro_rules! cursor_battery {
    ($module:ident, $ty:ty) => {
        mod $module {
            use super::*;

            #[test]
            fn check_at_or_below_the_bound_touches_no_atomic() {
                super::cursor_check_at_or_below_the_bound_touches_no_atomic(<$ty>::default());
            }
            #[test]
            fn tallies_reach_the_totals_when_it_drops() {
                super::cursor_tallies_reach_the_totals_when_it_drops(<$ty>::default());
            }
            #[test]
            fn poison_semantics_match_wait() {
                super::cursor_poison_semantics_match_wait(<$ty>::default());
            }
            #[test]
            fn increment_wakes_a_suspended_waiter() {
                super::cursor_increment_wakes_a_suspended_waiter(<$ty>::default());
            }
            #[test]
            fn concurrent_tallies_are_exact() {
                super::concurrent_cursor_tallies_are_exact(<$ty>::default());
            }
        }
    };
}

cursor_battery!(waitlist_cursor, Counter);
cursor_battery!(btree_cursor, BTreeCounter);

macro_rules! fastpath_battery {
    ($module:ident, $ty:ty) => {
        mod $module {
            use super::*;

            #[test]
            fn bit_never_sticks() {
                super::bit_never_sticks::<$ty>();
            }
            #[test]
            fn waiter_free_is_lock_free() {
                super::waiter_free_is_lock_free::<$ty>();
            }
            #[test]
            fn stats_tiers_are_consistent() {
                super::stats_tiers_are_consistent::<$ty>();
            }
            #[test]
            fn concurrent_tallies_are_exact() {
                super::concurrent_tallies_are_exact::<$ty>();
            }
            #[test]
            fn saturated_regime_is_exact() {
                super::saturated_regime_is_exact(|v| <$ty>::builder().initial(v).build());
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(32))]

                #[test]
                fn no_lost_wakeup_at_boundary(
                    amounts in proptest::collection::vec(0u64..100, 1..20),
                ) {
                    super::boundary_race::<$ty>(amounts);
                }
            }
        }
    };
}

fastpath_battery!(waitlist, Counter);
fastpath_battery!(btree, BTreeCounter);
fastpath_battery!(sharded, ShardedCounter);

#[test]
fn waitlist_spin_tallies_are_exact() {
    concurrent_spin_tallies_are_exact(|| Counter::builder().spin_before_suspend(true).build());
}

#[test]
fn btree_spin_tallies_are_exact() {
    concurrent_spin_tallies_are_exact(|| BTreeCounter::builder().spin_before_suspend(true).build());
}

/// The ablation counter must do the same work entirely under the mutex,
/// through a cursor too.
#[test]
fn mutex_only_ablation_reports_zero_fast_hits() {
    let c = Counter::mutex_only();
    c.increment(3);
    c.check(2);
    let mut cursor = c.cursor();
    cursor.increment(1);
    cursor.check(2);
    cursor.check(2);
    drop(cursor);
    let s = c.stats();
    assert_eq!(s.fast_increments, 0);
    assert_eq!(s.fast_checks, 0);
    assert_eq!(s.slow_path_entries, 5);
}
