//! Concurrency stress tests: many threads, all counter implementations,
//! randomized schedules. These tests assert *safety* invariants (every
//! waiter wakes, values add up, storage is reclaimed) under load.

use mc_counter::{
    BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, NaiveCounter, ShardedCounter,
    SpinCounter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Base seed for the hammer runs: CI's fault matrix pins `MC_CHAOS_SEED` so
/// each job stresses a distinct, reproducible slice of the schedule space.
fn seed_base() -> u64 {
    mc_chaos::seed_from_env(0)
}

fn hammer<C: MonotonicCounter + CounterDiagnostics + Default + 'static>(seed: u64) {
    hammer_on(C::default(), seed);
}

/// Runs `waiters` checkers and `incrementers` incrementers on `counter` with
/// seeded random levels/amounts; verifies everyone terminates and the final
/// value is the sum of all increments.
fn hammer_on<C: MonotonicCounter + CounterDiagnostics + 'static>(counter: C, seed: u64) {
    let waiters = 24;
    let incrementers = 8;
    let per_incrementer = 50u64;
    let mut rng = StdRng::seed_from_u64(seed);

    let total: u64 = incrementers as u64 * per_incrementer; // unit increments
    let levels: Vec<u64> = (0..waiters).map(|_| rng.gen_range(0..=total)).collect();

    let c = Arc::new(counter);
    let mut handles = Vec::new();
    for level in levels {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.check(level)));
    }
    for _ in 0..incrementers {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            for _ in 0..per_incrementer {
                c.increment(1);
            }
        }));
    }
    for h in handles {
        h.join().expect("stressed thread panicked");
    }
    assert_eq!(c.debug_value(), total);
    let stats = c.stats();
    assert_eq!(stats.live_waiters, 0, "all waiters must have resumed");
    assert_eq!(
        stats.nodes_created, stats.nodes_freed,
        "all wait nodes must be reclaimed"
    );
}

#[test]
fn hammer_waitlist() {
    for seed in 0..3 {
        hammer::<Counter>(seed_base() + seed);
    }
}

#[test]
fn hammer_btree() {
    for seed in 0..3 {
        hammer::<BTreeCounter>(seed_base() + seed);
    }
}

/// The fast path switched off: every operation goes through the mutex.
#[test]
fn hammer_mutex_only() {
    for seed in 0..3 {
        hammer_on(Counter::mutex_only(), seed_base() + seed);
    }
}

#[test]
fn hammer_sharded() {
    for seed in 0..3 {
        hammer::<ShardedCounter>(seed_base() + seed);
    }
}

#[test]
fn hammer_naive() {
    for seed in 0..3 {
        hammer::<NaiveCounter>(seed_base() + seed);
    }
}

/// Waiters that poll before suspending: the counter `Sequencer::new()`
/// builds.
#[test]
fn hammer_spinning() {
    for seed in 0..3 {
        hammer_on(
            Counter::builder().spin_before_suspend(true).build(),
            seed_base() + seed,
        );
    }
}

#[test]
fn hammer_spin() {
    // Fewer seeds: 24 spinning waiters on few cores is deliberately the
    // implementation's worst case.
    hammer::<SpinCounter>(seed_base());
}

/// Two hundred threads on one counter, one level each: a worst case for the
/// suspension-queue structure.
fn distinct_levels<C: MonotonicCounter + CounterDiagnostics + Default + 'static>() {
    let n = 200u64;
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for i in 1..=n {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.check(i)));
    }
    while c.stats().live_waiters < n {
        std::thread::yield_now();
    }
    assert_eq!(c.stats().live_nodes, n, "one node per distinct level");
    c.increment(n); // one increment satisfies everyone
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.stats().notifies, n);
    assert_eq!(c.stats().live_nodes, 0);
}

#[test]
fn two_hundred_distinct_levels() {
    distinct_levels::<Counter>();
}

#[test]
fn two_hundred_distinct_levels_btree() {
    distinct_levels::<BTreeCounter>();
}

/// Broadcast under pressure: a slow writer, fast readers, tiny buffer of
/// levels exercised thousands of times.
#[test]
fn broadcast_stress() {
    use mc_patterns::Broadcast;
    let n = 5_000;
    let b = Arc::new(Broadcast::new(n));
    std::thread::scope(|s| {
        let bw = Arc::clone(&b);
        s.spawn(move || {
            let mut w = bw.writer_with_block(7);
            for i in 0..n as u64 {
                w.push(i);
            }
        });
        for r in 0..6 {
            let b = Arc::clone(&b);
            s.spawn(move || {
                let block = 1 + r * 13;
                let mut expected = 0u64;
                for &item in b.reader_with_block(block) {
                    assert_eq!(item, expected, "reader {r} out of order");
                    expected += 1;
                }
                assert_eq!(expected, n as u64);
            });
        }
    });
}

/// Sequencers chained across two counters, interleaved: deterministic
/// composite order regardless of scheduling.
#[test]
fn chained_sequencers_stress() {
    use mc_patterns::Sequencer;
    for _ in 0..5 {
        let first = Arc::new(Sequencer::new());
        let second = Arc::new(Sequencer::new());
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for i in (0..16u64).rev() {
                let (first, second, log) =
                    (Arc::clone(&first), Arc::clone(&second), Arc::clone(&log));
                s.spawn(move || {
                    first.execute(i, || log.lock().unwrap().push(("a", i)));
                    second.execute(i, || log.lock().unwrap().push(("b", i)));
                });
            }
        });
        let log = log.lock().unwrap().clone();
        // Per-phase order is strict.
        let phase_a: Vec<u64> = log
            .iter()
            .filter(|(p, _)| *p == "a")
            .map(|&(_, i)| i)
            .collect();
        let phase_b: Vec<u64> = log
            .iter()
            .filter(|(p, _)| *p == "b")
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(phase_a, (0..16).collect::<Vec<_>>());
        assert_eq!(phase_b, (0..16).collect::<Vec<_>>());
        // And b_i never precedes a_i.
        for i in 0..16u64 {
            let pos_a = log.iter().position(|&(p, j)| p == "a" && j == i).unwrap();
            let pos_b = log.iter().position(|&(p, j)| p == "b" && j == i).unwrap();
            assert!(pos_a < pos_b, "ticket {i} entered phase b before phase a");
        }
    }
}
