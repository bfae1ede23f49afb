//! The Section 6 determinacy claims, tested across perturbed schedules.

use mc_chaos::{explore, Chaos, ChaosCounter};
use mc_counter::{Counter, CounterExt, MonotonicCounter};
use std::sync::{Arc, Mutex};

/// The Section 5.2 ordered accumulation, run under a chaos-wrapped counter:
/// one distinct outcome across every perturbed schedule.
#[test]
fn ordered_accumulation_deterministic_across_seeds() {
    let outcomes = explore(0..40, |seed| {
        let chaos = Arc::new(Chaos::new(seed));
        let counter = Arc::new(ChaosCounter::new(Counter::default(), chaos));
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for i in (0..12u64).rev() {
                let (counter, log) = (Arc::clone(&counter), Arc::clone(&log));
                s.spawn(move || {
                    counter.sequenced(i, || log.lock().unwrap().push(i));
                });
            }
        });
        Arc::try_unwrap(log).unwrap().into_inner().unwrap()
    });
    assert!(outcomes.is_deterministic(), "{outcomes}");
    assert_eq!(outcomes.unique(), Some(&(0..12u64).collect::<Vec<_>>()));
}

/// The Section 6 two-thread example under perturbation: always (3+1)*2.
#[test]
fn section6_example_deterministic_across_seeds() {
    let outcomes = explore(0..60, |seed| {
        let chaos = Arc::new(Chaos::new(seed));
        let c = Arc::new(ChaosCounter::new(Counter::default(), chaos));
        let x = Arc::new(Mutex::new(3i64));
        std::thread::scope(|s| {
            let (c1, x1) = (Arc::clone(&c), Arc::clone(&x));
            s.spawn(move || {
                c1.check(0);
                *x1.lock().unwrap() += 1;
                c1.increment(1);
            });
            let (c2, x2) = (Arc::clone(&c), Arc::clone(&x));
            s.spawn(move || {
                c2.check(1);
                *x2.lock().unwrap() *= 2;
                c2.increment(1);
            });
        });
        let result = *x.lock().unwrap();
        result
    });
    assert!(outcomes.is_deterministic(), "{outcomes}");
    assert_eq!(outcomes.unique(), Some(&8));
}

/// Contrast: the same program with the counter chain removed (both threads
/// check 0) is schedule-sensitive — perturbation exposes both interleavings
/// within a modest seed budget.
#[test]
fn unchained_variant_shows_both_interleavings() {
    let outcomes = explore(0..200, |seed| {
        let chaos = Arc::new(Chaos::new(seed));
        let c = Arc::new(ChaosCounter::new(Counter::default(), Arc::clone(&chaos)));
        let x = Arc::new(Mutex::new(3i64));
        std::thread::scope(|s| {
            let (c1, x1, ch1) = (Arc::clone(&c), Arc::clone(&x), Arc::clone(&chaos));
            s.spawn(move || {
                c1.check(0);
                ch1.point();
                *x1.lock().unwrap() += 1;
                c1.increment(1);
            });
            let (c2, x2, ch2) = (Arc::clone(&c), Arc::clone(&x), Arc::clone(&chaos));
            s.spawn(move || {
                c2.check(0); // no ordering against the other thread
                ch2.point();
                *x2.lock().unwrap() *= 2;
                c2.increment(1);
            });
        });
        let result = *x.lock().unwrap();
        result
    });
    // (3+1)*2 = 8 and 3*2+1 = 7 are the two legal interleavings.
    for (outcome, _, _) in outcomes.iter() {
        assert!(
            *outcome == 7 || *outcome == 8,
            "impossible result {outcome}"
        );
    }
    assert_eq!(
        outcomes.distinct(),
        2,
        "perturbation should expose both interleavings: {outcomes}"
    );
}

/// The broadcast pattern under chaos: every reader sees the exact sequence
/// regardless of perturbation (uses the chaos points manually around a
/// plain Broadcast, since Broadcast owns its internal counter).
#[test]
fn broadcast_delivery_deterministic_across_seeds() {
    use mc_patterns::Broadcast;
    let outcomes = explore(0..20, |seed| {
        let chaos = Arc::new(Chaos::new(seed));
        let b = Arc::new(Broadcast::new(100));
        let sums = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            let (bw, ch) = (Arc::clone(&b), Arc::clone(&chaos));
            s.spawn(move || {
                let mut w = bw.writer_with_block(8);
                for i in 0..100u64 {
                    ch.point();
                    w.push(i * 3);
                }
            });
            for _ in 0..3 {
                let (br, ch, sums) = (Arc::clone(&b), Arc::clone(&chaos), Arc::clone(&sums));
                s.spawn(move || {
                    let mut sum = 0u64;
                    for &item in br.reader() {
                        ch.point();
                        sum += item;
                    }
                    sums.lock().unwrap().push(sum);
                });
            }
        });
        let mut sums = Arc::try_unwrap(sums).unwrap().into_inner().unwrap();
        sums.sort_unstable();
        sums
    });
    assert!(outcomes.is_deterministic(), "{outcomes}");
    let expected: u64 = (0..100u64).map(|i| i * 3).sum();
    assert_eq!(outcomes.unique(), Some(&vec![expected; 3]));
}

/// Floyd-Warshall with chaos-wrapped counters: identical matrices across
/// seeds.
#[test]
fn floyd_warshall_like_chain_deterministic() {
    // A reduced row-publication chain (the FW sync skeleton) under chaos:
    // each "iteration" publishes the next row value.
    let outcomes = explore(0..25, |seed| {
        let chaos = Arc::new(Chaos::new(seed));
        let c = Arc::new(ChaosCounter::new(Counter::default(), chaos));
        let rows = Arc::new(Mutex::new(vec![0u64; 9]));
        std::thread::scope(|s| {
            for t in 0..3 {
                let (c, rows) = (Arc::clone(&c), Arc::clone(&rows));
                s.spawn(move || {
                    for k in 0..8u64 {
                        c.check(k);
                        let prev = rows.lock().unwrap()[k as usize];
                        // Owner of "row k+1" publishes it.
                        if k % 3 == t {
                            rows.lock().unwrap()[k as usize + 1] = prev * 2 + k;
                            c.increment(1);
                        }
                    }
                });
            }
        });
        Arc::try_unwrap(rows).unwrap().into_inner().unwrap()
    });
    assert!(outcomes.is_deterministic(), "{outcomes}");
}
