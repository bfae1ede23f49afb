//! A durable counter surviving a simulated disk outage.
//!
//! With `PoisonPolicy::Degrade`, an exhausted IO retry budget does not
//! poison the counter: it enters an explicit *degraded* mode — increments
//! keep serving from the in-memory fast path, the unsynced backlog
//! collapses into a bounded replay buffer, and a background probe keeps
//! trying to reopen the log. When the "disk" comes back, the counter
//! resyncs and returns to `Healthy` on its own; nothing acked is lost.
//!
//! The outage is injected through the failpoint registry — the same
//! seed-deterministic mechanism the CI torture matrix drives via
//! `MC_CHAOS_FAILPOINTS` (see the "Chaos knobs" table in
//! `docs/IMPLEMENTATION.md`).
//!
//! Run with: `cargo run --release --example degraded_mode`

use monotonic_counters::durable::{SITE_WAL_FSYNC, SITE_WAL_OPEN};
use monotonic_counters::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-example-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "example timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() {
    let dir = scratch();
    // A private failpoint registry plays the part of the flaky disk.
    let fp = Arc::new(Failpoints::new(42));
    let (counter, _) = DurableCounter::<Counter>::open_with(
        &dir,
        DurableOptions {
            mode: DurabilityMode::Strict,
            poison_policy: PoisonPolicy::Degrade,
            failpoints: Some(Arc::clone(&fp)),
            retry: RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_millis(1),
            },
            replay_budget: 1024,
            resync_interval: Duration::from_millis(5),
            ..DurableOptions::default()
        },
    )
    .expect("open");

    counter.increment(10);
    println!(
        "healthy:  value {}, durable on disk {}, health {:?}",
        counter.debug_value(),
        counter.durable_value(),
        counter.health()
    );

    // ── The disk goes away: every fsync and every reopen attempt fails.
    // ENOSPC is transient, so the retry layer burns its budget first. ──
    fp.arm(
        SITE_WAL_FSYNC,
        FailConfig::always(std::io::ErrorKind::StorageFull),
    );
    fp.arm(SITE_WAL_OPEN, FailConfig::always(std::io::ErrorKind::Other));
    counter.increment(5); // retries exhaust → degrade → acked from memory
    wait_until(Duration::from_secs(10), || {
        matches!(counter.health(), HealthStatus::Degraded { .. })
    });
    for _ in 0..5 {
        counter.increment(1); // still fast: the in-memory path serves
    }
    println!(
        "outage:   value {}, durable on disk {}, health {:?}",
        counter.debug_value(),
        counter.durable_value(),
        counter.health()
    );
    assert_eq!(counter.debug_value(), 20);
    assert!(
        counter.durable_value() < 20,
        "the backlog is not on disk yet"
    );
    // `sync()` is honest about it: the ack came from memory, not the disk.
    let degraded_notice = counter.sync().expect_err("sync must flag degradation");
    println!("sync():   Err({degraded_notice})");

    // ── The disk comes back: the resync probe heals the counter. ────────
    fp.clear();
    wait_until(Duration::from_secs(10), || {
        matches!(counter.health(), HealthStatus::Healthy)
    });
    counter.sync().expect("healthy again: everything fsynced");
    println!(
        "healed:   value {}, durable on disk {}, health {:?}",
        counter.debug_value(),
        counter.durable_value(),
        counter.health()
    );
    let stats = counter.wal_stats();
    println!(
        "stats:    {} retries, {} degraded entries, {} resyncs",
        stats.retries, stats.degraded_entries, stats.resyncs
    );

    // Proof of zero loss: a fresh process recovers the full value.
    drop(counter);
    let (counter, recovery) = DurableCounter::<Counter>::open_with(
        &dir,
        DurableOptions {
            failpoints: Some(Arc::new(Failpoints::new(0))),
            ..DurableOptions::default()
        },
    )
    .expect("reopen");
    println!(
        "restart:  recovered value {}, log slots verified: {:?}",
        recovery.value, recovery.slots_verified
    );
    assert_eq!(recovery.value, 20);
    drop(counter);
    let _ = std::fs::remove_dir_all(&dir);
}
