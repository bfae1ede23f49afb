//! Property-based tests of the counter semantics, checking every
//! implementation against a simple reference model.

use mc_counter::{BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, NaiveCounter};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// An operation in a single-threaded semantic script. Checks are always for
/// levels at or below the model value so the script can never suspend.
#[derive(Debug, Clone)]
enum Op {
    Increment(u64),
    CheckSatisfied { below_by: u64 },
    TryIncrement(u64),
    UnsatisfiedCheckTimeout { above_by: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000).prop_map(Op::Increment),
        (0u64..50).prop_map(|below_by| Op::CheckSatisfied { below_by }),
        (0u64..1_000).prop_map(Op::TryIncrement),
        (1u64..50).prop_map(|above_by| Op::UnsatisfiedCheckTimeout { above_by }),
    ]
}

/// Applies the script to an implementation and the model, asserting agreement
/// after every step.
fn run_script<C: MonotonicCounter + CounterDiagnostics + Default>(ops: &[Op]) {
    let c = C::default();
    let mut model: u64 = 0;
    for op in ops {
        match *op {
            Op::Increment(amount) => {
                c.increment(amount);
                model += amount; // amounts bounded: no overflow
            }
            Op::CheckSatisfied { below_by } => {
                let level = model.saturating_sub(below_by);
                c.check(level); // must not block
            }
            Op::TryIncrement(amount) => {
                c.try_increment(amount)
                    .expect("no overflow in bounded script");
                model += amount;
            }
            Op::UnsatisfiedCheckTimeout { above_by } => {
                let level = model + above_by;
                let err = c
                    .check_timeout(level, Duration::from_millis(1))
                    .expect_err("level above value must time out");
                assert_eq!(err.level, level);
            }
        }
        assert_eq!(c.debug_value(), model, "value diverged from model");
    }
    // After a single-threaded script no waiters or nodes may linger.
    let stats = c.stats();
    assert_eq!(stats.live_waiters, 0);
    assert_eq!(stats.nodes_created, stats.nodes_freed);
}

/// Concurrent wakeup completeness: parks one checker per entry of `levels`,
/// then increments past them all; every waiter resumes and node storage is
/// exactly the number of distinct levels, whatever the queue strategy.
fn all_waiters_wake<C: MonotonicCounter + CounterDiagnostics + Default + 'static>(
    levels: &[u64],
    extra: u64,
) {
    let c = Arc::new(C::default());
    let max = *levels.iter().max().unwrap();
    let distinct = {
        let mut d = levels.to_vec();
        d.sort_unstable();
        d.dedup();
        d.len() as u64
    };
    let mut handles = Vec::new();
    for level in levels {
        let c = Arc::clone(&c);
        let level = *level;
        handles.push(std::thread::spawn(move || c.check(level)));
    }
    while c.stats().live_waiters < levels.len() as u64 {
        std::thread::yield_now();
    }
    assert_eq!(c.stats().live_nodes, distinct);
    c.increment(max + extra);
    for h in handles {
        h.join().expect("waiter panicked");
    }
    assert_eq!(c.stats().live_waiters, 0);
    assert_eq!(c.stats().live_nodes, 0);
    // One broadcast per distinct level, not per thread.
    assert_eq!(c.stats().notifies, distinct);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn waitlist_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script::<Counter>(&ops);
    }

    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script::<BTreeCounter>(&ops);
    }

    #[test]
    fn naive_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script::<NaiveCounter>(&ops);
    }

    /// Concurrent wakeup completeness over the sorted-list queue.
    #[test]
    fn concurrent_waiters_all_wake(
        levels in proptest::collection::vec(1u64..100, 1..12),
        extra in 0u64..50,
    ) {
        all_waiters_wake::<Counter>(&levels, extra);
    }

    /// Concurrent wakeup completeness over the `BTreeMap` queue.
    #[test]
    fn btree_waiters_all_wake(
        levels in proptest::collection::vec(1u64..100, 1..12),
        extra in 0u64..50,
    ) {
        all_waiters_wake::<BTreeCounter>(&levels, extra);
    }

    /// Concurrent writers with mixed amounts: no increment is lost or counted
    /// twice, whichever of the fast word and the locked slow path each one
    /// takes.
    #[test]
    fn no_lost_increments_across_writer_threads(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..50, 1..40), 2..5),
    ) {
        let c = Arc::new(Counter::default());
        let total: u64 = per_thread.iter().flatten().sum();
        std::thread::scope(|s| {
            for amounts in per_thread {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for a in amounts {
                        c.increment(a);
                    }
                });
            }
        });
        c.check(total);
        prop_assert_eq!(c.debug_value(), total);
    }

    /// Two writers race a waiter parked at the exact final total: the last
    /// increment, wherever it lands, must wake it.
    #[test]
    fn waiter_at_the_exact_total_always_wakes(
        amounts in proptest::collection::vec(1u64..20, 1..60),
    ) {
        let c = Arc::new(Counter::default());
        let total: u64 = amounts.iter().sum();
        std::thread::scope(|s| {
            let waiter = {
                let c = Arc::clone(&c);
                s.spawn(move || c.check_timeout(total, Duration::from_secs(5)))
            };
            let (front, back) = amounts.split_at(amounts.len() / 2);
            for half in [front.to_vec(), back.to_vec()] {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for a in half {
                        c.increment(a);
                    }
                });
            }
            prop_assert_eq!(waiter.join().unwrap(), Ok(()));
        });
        prop_assert_eq!(c.stats().live_waiters, 0);
    }

    /// Monotonicity means a check satisfied once is satisfied forever: any
    /// subsequent increments keep every earlier check immediate.
    #[test]
    fn satisfied_levels_stay_satisfied(
        initial in 0u64..1000,
        later in proptest::collection::vec(0u64..100, 0..10),
    ) {
        let c = Counter::default();
        c.increment(initial);
        c.check(initial);
        for amount in later {
            c.increment(amount);
            c.check(initial); // still immediate, value only grew
        }
        prop_assert_eq!(c.stats().suspensions, 0);
    }

    /// `check_all` over multiple counters terminates whenever each level is
    /// individually satisfied, regardless of order.
    #[test]
    fn check_all_order_independent(
        values in proptest::collection::vec(0u64..50, 1..6),
        perm_seed in 0usize..1000,
    ) {
        use mc_counter::check_all;
        let counters: Vec<Counter> = values.iter().map(|&v| {
            let c = Counter::default();
            c.increment(v);
            c
        }).collect();
        let mut pairs: Vec<(&Counter, u64)> =
            counters.iter().zip(values.iter().copied()).collect();
        // A cheap deterministic permutation.
        let len = pairs.len();
        pairs.rotate_left(perm_seed % len);
        check_all(pairs);
    }
}
