//! Integration across crates: patterns over alternative counter
//! implementations, counters beside traditional primitives, pipelines
//! feeding accumulations.

use monotonic_counters::prelude::*;
use std::sync::{Arc, Mutex};

/// Every counter implementation drives the Sequencer correctly.
#[test]
fn sequencer_over_every_counter_impl() {
    fn run<C: MonotonicCounter + CounterDiagnostics + Default>() {
        let seq: Sequencer<C> = Sequencer::with_counter();
        let log = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for i in (0..8u64).rev() {
                let (seq, log) = (&seq, &log);
                s.spawn(move || seq.execute(i, || log.lock().unwrap().push(i)));
            }
        });
        assert_eq!(log.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }
    run::<Counter>();
    run::<BTreeCounter>();
    run::<NaiveCounter>();
    run::<ShardedCounter>();
}

/// Every counter implementation drives the ragged barrier correctly.
#[test]
fn ragged_barrier_over_every_counter_impl() {
    fn run<C: MonotonicCounter + CounterDiagnostics + Default>() {
        let rb: RaggedBarrier<C> = RaggedBarrier::with_counter(4);
        std::thread::scope(|s| {
            for i in 0..4usize {
                let rb = &rb;
                s.spawn(move || {
                    for step in 1..=20u64 {
                        if i > 0 {
                            rb.wait(i - 1, step - 1);
                        }
                        if i + 1 < 4 {
                            rb.wait(i + 1, step - 1);
                        }
                        rb.arrive(i);
                    }
                });
            }
        });
        for i in 0..4 {
            assert_eq!(rb.progress(i), 20);
        }
    }
    run::<Counter>();
    run::<BTreeCounter>();
    run::<NaiveCounter>();
}

/// Counters and traditional primitives coexisting in one program: a counter
/// gates startup, a counter sequences the work, a barrier closes the phase,
/// an event signals completion.
#[test]
fn mixed_primitive_program() {
    let n = 6;
    let start = Arc::new(Counter::default());
    let order = Arc::new(Counter::default());
    let phase_end = Arc::new(Barrier::new(n));
    let done = Arc::new(Event::new());
    let log = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        for i in 0..n as u64 {
            let (start, order, phase_end, done, log) = (
                Arc::clone(&start),
                Arc::clone(&order),
                Arc::clone(&phase_end),
                Arc::clone(&done),
                Arc::clone(&log),
            );
            s.spawn(move || {
                start.check(1);
                order.sequenced(i, || log.lock().unwrap().push(i));
                if phase_end.pass() {
                    done.set();
                }
            });
        }
        start.increment(1);
        done.check();
    });
    assert_eq!(*log.lock().unwrap(), (0..n as u64).collect::<Vec<_>>());
}

/// A pipeline stage's output accumulated in deterministic order: Broadcast
/// feeding a counter-sequenced fold.
#[test]
fn broadcast_into_ordered_fold() {
    let n = 100;
    let b = Arc::new(Broadcast::new(n));
    let order = Arc::new(Counter::default());
    let folded = Arc::new(Mutex::new(String::new()));
    std::thread::scope(|s| {
        let bw = Arc::clone(&b);
        s.spawn(move || {
            let mut w = bw.writer_with_block(8);
            for i in 0..n {
                w.push(i % 10);
            }
        });
        // Each worker consumes one item index and folds it in index order.
        for i in 0..n as u64 {
            let (b, order, folded) = (Arc::clone(&b), Arc::clone(&order), Arc::clone(&folded));
            s.spawn(move || {
                let item = *b.get(i as usize);
                order.sequenced(i, || folded.lock().unwrap().push_str(&item.to_string()));
            });
        }
    });
    let got = folded.lock().unwrap().clone();
    let want: String = (0..n).map(|i| char::from(b'0' + (i % 10) as u8)).collect();
    assert_eq!(got, want);
}

/// `check_all` as a join of RaggedBarrier dependencies mixed with a plain
/// counter.
#[test]
fn check_all_spans_heterogeneous_sources() {
    use mc_counter::check_all;
    let a = Arc::new(Counter::default());
    let b = Arc::new(Counter::default());
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let waiter = std::thread::spawn(move || {
        check_all([(&*a2, 2u64), (&*b2, 3u64)]);
        "joined"
    });
    a.increment(2);
    b.increment(1);
    b.increment(2);
    assert_eq!(waiter.join().unwrap(), "joined");
}

/// The facade prelude exposes everything the README promises.
#[test]
fn prelude_surface() {
    let _c: Counter = Counter::default();
    let _n: NaiveCounter = NaiveCounter::default();
    let _b: BTreeCounter = BTreeCounter::default();
    let _sh: ShardedCounter = ShardedCounter::builder().shards(4).build();
    let _dyn: DynCounter = Arc::new(Counter::builder().build());
    let _bar = Barrier::new(1);
    let _ev = Event::new();
    let _rb = RaggedBarrier::new(1);
    let _sq = Sequencer::new();
    let _bc: Broadcast<u8> = Broadcast::new(0);
    let _pl: Pipeline<u8> = Pipeline::new();
    multithreaded_for(ExecutionMode::Sequential, 0..2, |_| {});
}

/// The unified `Error` lets one function `?` across synchronization,
/// overflow, and durability failures.
#[test]
fn unified_error_spans_layers() {
    use std::time::Duration;

    fn mixed(c: &Counter) -> Result<&'static str, Error> {
        c.try_increment(2)?;
        c.check_timeout(2, Duration::from_secs(5))?;
        c.wait(2)?;
        Ok("all layers consulted")
    }
    let c = Counter::default();
    assert_eq!(mixed(&c).unwrap(), "all layers consulted");

    // Timeout converts (from both the bare and the enum form).
    let t = c.check_timeout(10, Duration::from_millis(10)).unwrap_err();
    assert!(matches!(Error::from(t), Error::Timeout(_)));
    let t = c.wait_timeout(10, Duration::from_millis(10)).unwrap_err();
    assert!(matches!(Error::from(t), Error::Timeout(_)));

    // Overflow converts.
    c.advance_to(u64::MAX);
    let o = c.try_increment(1).unwrap_err();
    assert!(matches!(Error::from(o), Error::Overflow(_)));

    // Poison converts and the cause survives.
    let p = Counter::default();
    p.poison(FailureInfo::new("producer died"));
    let e: Error = p.wait(1).unwrap_err().into();
    match e {
        Error::Poisoned(info) => assert!(info.to_string().contains("producer died")),
        other => panic!("expected Poisoned, got {other}"),
    }

    // Durability errors convert, including via io::Error, and Display/source
    // forward to the underlying layer's reporting.
    let io = std::io::Error::other("disk gone");
    let e: Error = io.into();
    assert!(matches!(e, Error::Wal(_)));
    assert!(e.to_string().contains("disk gone"));
    assert!(std::error::Error::source(&e).is_some());
}

/// The `io::ErrorKind` survives the facade: an ENOSPC and an EINTR arriving
/// as raw `io::Error`s stay distinguishable through `mc::Error::Wal` —
/// classified variant, `io_kind()`, transience, and Display all preserve it.
#[test]
fn wal_error_kind_is_preserved_through_the_facade() {
    use std::io::ErrorKind;

    // ENOSPC (errno 28) classifies as DiskFull: transient, kind preserved.
    let enospc: Error = std::io::Error::from_raw_os_error(28).into();
    match &enospc {
        Error::Wal(w @ WalError::DiskFull(_)) => {
            assert_eq!(w.io_kind(), Some(ErrorKind::StorageFull));
            assert!(w.is_transient());
        }
        other => panic!("expected DiskFull, got {other}"),
    }
    assert!(enospc.to_string().contains("disk full"), "{enospc}");

    // EINTR (errno 4) classifies as Interrupted: transient, kind preserved.
    let eintr: Error = std::io::Error::from_raw_os_error(4).into();
    match &eintr {
        Error::Wal(w @ WalError::Interrupted(_)) => {
            assert_eq!(w.io_kind(), Some(ErrorKind::Interrupted));
            assert!(w.is_transient());
        }
        other => panic!("expected Interrupted, got {other}"),
    }

    // A permanent kind stays a plain (non-transient) Io error, and its
    // kind shows up in the Display output for callers matching on text.
    let eio: Error = std::io::Error::new(ErrorKind::PermissionDenied, "ro fs").into();
    match &eio {
        Error::Wal(w @ WalError::Io(_)) => {
            assert_eq!(w.io_kind(), Some(ErrorKind::PermissionDenied));
            assert!(!w.is_transient());
        }
        other => panic!("expected Io, got {other}"),
    }
    assert!(eio.to_string().contains("PermissionDenied"), "{eio}");

    // So a caller can branch on the cause across the facade boundary:
    let kind_of = |e: &Error| match e {
        Error::Wal(w) => w.io_kind(),
        _ => None,
    };
    assert_ne!(kind_of(&enospc), kind_of(&eintr));
}
