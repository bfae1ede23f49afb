//! ShardedCounter-specific properties, beyond the shared conformance and
//! fast-path batteries: the striped cells must never lose or invent an
//! increment, publication must stay exact under races, and waiters must see
//! eager publication regardless of how the combiner is scheduled.

use mc_counter::{CounterDiagnostics, MonotonicCounter, ShardedCounter};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential: whatever mix of increments and interleaved observations,
    /// published + pending always equals the arithmetic sum.
    #[test]
    fn observed_value_is_the_sum_of_increments(
        amounts in proptest::collection::vec(0u64..1_000, 1..200),
        shards in 1usize..16,
    ) {
        let c = ShardedCounter::builder().shards(shards).build();
        let mut sum = 0u64;
        for (i, &a) in amounts.iter().enumerate() {
            c.increment(a);
            sum += a;
            if i % 7 == 0 {
                // Observation must never run ahead of the sum, and checking
                // the logical value must self-serve pending deltas.
                c.check(sum);
                prop_assert_eq!(c.debug_value(), sum);
            }
        }
        c.check(sum);
        prop_assert_eq!(c.debug_value(), sum);
    }

    /// Concurrent writers: no increment is lost or double-published across
    /// cells, whatever the shard count and thread mix.
    #[test]
    fn no_lost_increments_across_writer_threads(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..50, 1..40), 2..5),
        shards in 1usize..8,
    ) {
        let c = Arc::new(ShardedCounter::builder().shards(shards).build());
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

    /// Writers race a waiter pinned at the exact final total: the waiter must
    /// always be woken (eager publication), never stranded on a lazy cell.
    #[test]
    fn waiter_at_the_exact_total_always_wakes(
        amounts in proptest::collection::vec(1u64..20, 1..60),
        shards in 1usize..8,
    ) {
        let c = Arc::new(ShardedCounter::builder().shards(shards).build());
        let total: u64 = amounts.iter().sum();
        std::thread::scope(|s| {
            let waiter = {
                let c = Arc::clone(&c);
                s.spawn(move || c.check_timeout(total, Duration::from_secs(5)))
            };
            let mid = amounts.len() / 2;
            let (front, back) = amounts.split_at(mid);
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
    }
}

/// Many writers, many waiters at staggered levels, one counter: every waiter
/// resumes and the final value is exact. This is the high-contention shape
/// the sharding exists for.
#[test]
fn staggered_waiters_drain_under_contended_writes() {
    let writers = 4u64;
    let per_writer = 500u64;
    let total = writers * per_writer;
    let c = Arc::new(ShardedCounter::builder().shards(4).build());
    std::thread::scope(|s| {
        let mut waiters = Vec::new();
        for i in 1..=8u64 {
            let c = Arc::clone(&c);
            let level = total * i / 8;
            waiters.push(s.spawn(move || c.check_timeout(level, Duration::from_secs(10))));
        }
        for _ in 0..writers {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for _ in 0..per_writer {
                    c.increment(1);
                }
            });
        }
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(()));
        }
    });
    assert_eq!(c.debug_value(), total);
    let s = c.stats();
    assert_eq!(s.live_waiters, 0, "stranded waiter: {s}");
}

/// The adaptive threshold must not leak across a waiter's lifetime: once the
/// waiter drains, throughput increments return to the lazy regime.
#[test]
fn threshold_relaxes_again_after_waiters_leave() {
    let c = Arc::new(ShardedCounter::builder().shards(1).build());
    // Push the threshold up.
    for _ in 0..4096 {
        c.increment(1);
    }
    let relaxed = c.flush_threshold();
    assert!(relaxed > 8, "threshold never adapted up: {relaxed}");
    // A waiter snaps it back down.
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.check_timeout(5000, Duration::from_secs(5)));
    while c.stats().live_waiters == 0 {
        std::thread::yield_now();
    }
    assert_eq!(c.flush_threshold(), 8);
    for _ in 0..1000 {
        c.increment(1);
    }
    assert_eq!(h.join().unwrap(), Ok(()));
    // And throughput traffic relaxes it again.
    for _ in 0..4096 {
        c.increment(1);
    }
    assert!(c.flush_threshold() > 8, "threshold stuck eager after drain");
}
