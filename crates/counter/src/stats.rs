//! Always-on, low-overhead counter instrumentation.
//!
//! The paper's Section 7 claims that storage and time are "proportional to the
//! number of different levels on which threads are waiting, not to the total
//! number of waiting threads". These statistics make that claim *measurable*:
//! experiment E5 reads them to show live wait-node counts tracking the number
//! of distinct levels.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Fast-path tally stripes per stats block. Threads pick one by
/// [`thread_slot`] modulo this count, so threads with consecutive slots bump
/// distinct cache lines; threads sharing a stripe cost contention, never
/// counts.
const STRIPES: usize = 8;

/// A value padded and aligned to 128 bytes, so values in neighbouring slots
/// never share a cache line (two 64-byte lines: x86's adjacent-line
/// prefetcher pulls them in pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The calling thread's stripe slot: assigned round-robin, process-wide, on
/// the thread's first call, and reused for every counter. Callers reduce it
/// modulo their stripe count — the stats tier to pick a tally stripe,
/// [`crate::ShardedCounter`] to pick an increment cell — so a thread stays
/// on one line per counter without per-counter registration.
pub(crate) fn thread_slot() -> usize {
    static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // `usize::MAX` until assigned. Const-initialized, so std keeps no
        // lazy-init state beside it: the hot path is one TLS load and one
        // compare.
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            s = NEXT_SLOT.fetch_add(1, Relaxed);
            slot.set(s);
        }
        s
    })
}

/// One stripe's fast-path tallies.
#[derive(Debug, Default)]
struct FastTallies {
    increments: AtomicU64,
    checks: AtomicU64,
    spin_checks: AtomicU64,
}

/// Internal statistics accumulator shared by all counter implementations.
///
/// All fields are updated with relaxed atomics; the counters' own locks
/// already order the updates, and readers only need eventually-consistent
/// aggregate numbers.
///
/// Slow-path and fast-path operations bump *separate* counters and the
/// totals are derived at snapshot time. The three lock-free tallies are
/// striped: a fast increment, satisfied check or spin-satisfied check is
/// one `fetch_add` on the calling thread's own 128-byte stripe, so
/// lock-free operations on different threads share no stats line, and
/// [`snapshot`](Self::snapshot) sums the stripes, so the counts stay
/// exact. The stripes cost a fixed 1 KiB per counter, and the E8 tables
/// measure the fast path with them.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    /// The fast-path tallies, one stripe per [`thread_slot`] modulo
    /// [`STRIPES`].
    stripes: Box<[CachePadded<FastTallies>; STRIPES]>,
    slow_increments: AtomicU64,
    slow_checks: AtomicU64,
    slow_immediate_checks: AtomicU64,
    suspensions: AtomicU64,
    nodes_created: AtomicU64,
    nodes_freed: AtomicU64,
    live_nodes: AtomicU64,
    max_live_nodes: AtomicU64,
    live_waiters: AtomicU64,
    max_live_waiters: AtomicU64,
    notifies: AtomicU64,
    slow_path_entries: AtomicU64,
}

fn bump_max(max: &AtomicU64, candidate: u64) {
    let mut cur = max.load(Relaxed);
    while candidate > cur {
        match max.compare_exchange_weak(cur, candidate, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
}

impl Stats {
    /// The calling thread's tally stripe.
    fn stripe(&self) -> &FastTallies {
        &self.stripes[thread_slot() % STRIPES]
    }

    /// Every stripe's tallies.
    fn tallies(&self) -> impl Iterator<Item = &FastTallies> {
        self.stripes.iter().map(|t| &t.0)
    }

    pub(crate) fn record_increment(&self) {
        self.slow_increments.fetch_add(1, Relaxed);
    }

    pub(crate) fn record_check_immediate(&self) {
        self.slow_checks.fetch_add(1, Relaxed);
        self.slow_immediate_checks.fetch_add(1, Relaxed);
    }

    pub(crate) fn record_check_suspended(&self) {
        self.slow_checks.fetch_add(1, Relaxed);
        self.suspensions.fetch_add(1, Relaxed);
        let live = self.live_waiters.fetch_add(1, Relaxed) + 1;
        bump_max(&self.max_live_waiters, live);
    }

    pub(crate) fn record_waiter_resumed(&self) {
        self.live_waiters.fetch_sub(1, Relaxed);
    }

    pub(crate) fn record_node_created(&self) {
        self.nodes_created.fetch_add(1, Relaxed);
        let live = self.live_nodes.fetch_add(1, Relaxed) + 1;
        bump_max(&self.max_live_nodes, live);
    }

    pub(crate) fn record_node_freed(&self) {
        self.nodes_freed.fetch_add(1, Relaxed);
        self.live_nodes.fetch_sub(1, Relaxed);
    }

    pub(crate) fn record_notify(&self) {
        self.notifies.fetch_add(1, Relaxed);
    }

    /// An `increment`/`advance_to` that completed on the lock-free fast path.
    ///
    /// One `fetch_add` on the caller's stripe; the snapshot folds it into the
    /// `increments` total.
    pub(crate) fn record_fast_increment(&self) {
        self.stripe().increments.fetch_add(1, Relaxed);
    }

    /// A `check` satisfied by a single atomic load, without the lock.
    ///
    /// One `fetch_add` on the caller's stripe; the snapshot folds it into
    /// the `checks` and `immediate_checks` totals.
    pub(crate) fn record_fast_check(&self) {
        self.stripe().checks.fetch_add(1, Relaxed);
    }

    /// A `check` that missed the fast tier but saw its level satisfied
    /// while polling before suspending, without the lock.
    ///
    /// One `fetch_add` on the caller's stripe, like a fast check, because it
    /// sits on the hand-off path that spinning exists to shorten: a shared
    /// tally there costs about a fifth of the gain. The snapshot folds it
    /// into `checks` and `immediate_checks`, not into `fast_checks`.
    pub(crate) fn record_spin_check(&self) {
        self.stripe().spin_checks.fetch_add(1, Relaxed);
    }

    /// A dropped [`Cursor`](crate::Cursor)'s fast increments and fast
    /// checks (skipped ones included), added to the caller's stripe at
    /// once: two `fetch_add`s for the cursor's whole life.
    pub(crate) fn record_cursor(&self, increments: u64, checks: u64) {
        let stripe = self.stripe();
        stripe.increments.fetch_add(increments, Relaxed);
        stripe.checks.fetch_add(checks, Relaxed);
    }

    /// Any operation that acquired the slow-path mutex.
    pub(crate) fn record_slow_entry(&self) {
        self.slow_path_entries.fetch_add(1, Relaxed);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let fast_increments = self.tallies().map(|t| t.increments.load(Relaxed)).sum();
        let fast_checks = self.tallies().map(|t| t.checks.load(Relaxed)).sum();
        let spin_checks = self.tallies().map(|t| t.spin_checks.load(Relaxed)).sum();
        let lock_free_checks = fast_checks + spin_checks;
        StatsSnapshot {
            increments: self.slow_increments.load(Relaxed) + fast_increments,
            checks: self.slow_checks.load(Relaxed) + lock_free_checks,
            immediate_checks: self.slow_immediate_checks.load(Relaxed) + lock_free_checks,
            suspensions: self.suspensions.load(Relaxed),
            nodes_created: self.nodes_created.load(Relaxed),
            nodes_freed: self.nodes_freed.load(Relaxed),
            live_nodes: self.live_nodes.load(Relaxed),
            max_live_nodes: self.max_live_nodes.load(Relaxed),
            live_waiters: self.live_waiters.load(Relaxed),
            max_live_waiters: self.max_live_waiters.load(Relaxed),
            notifies: self.notifies.load(Relaxed),
            fast_increments,
            fast_checks,
            spin_checks,
            slow_path_entries: self.slow_path_entries.load(Relaxed),
            io_retries: 0,
        }
    }
}

/// A point-in-time copy of a counter's internal statistics.
///
/// Obtained from
/// [`CounterDiagnostics::stats`](crate::CounterDiagnostics::stats).
/// The node counts expose the paper's Section 7 complexity claim: a counter's
/// storage is one wait node per **distinct level** currently waited on,
/// regardless of how many threads wait at each level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total `increment` operations performed.
    pub increments: u64,
    /// Total `check` operations performed. A
    /// [`NaiveCounter`](crate::NaiveCounter) waiter re-tests its level
    /// after each change, and each re-test counts as one more check.
    pub checks: u64,
    /// `check` operations that were satisfied without suspending.
    pub immediate_checks: u64,
    /// `check` operations that suspended the calling thread. A naive
    /// waiter that sleeps again after a change counts one more, and a
    /// [`SpinCounter`](crate::SpinCounter) waiter's polling counts as one.
    pub suspensions: u64,
    /// Wait nodes (distinct-level suspension queues) ever created.
    pub nodes_created: u64,
    /// Wait nodes freed after their last waiter resumed.
    pub nodes_freed: u64,
    /// Wait nodes currently alive (waiting or draining).
    pub live_nodes: u64,
    /// High-water mark of simultaneously alive wait nodes.
    pub max_live_nodes: u64,
    /// Threads currently suspended (or, on a
    /// [`SpinCounter`](crate::SpinCounter), polling) in `check`.
    pub live_waiters: u64,
    /// High-water mark of simultaneously suspended threads.
    pub max_live_waiters: u64,
    /// Condition-variable broadcast (`notify_all`) events issued.
    pub notifies: u64,
    /// `increment`/`advance_to` operations completed on the lock-free fast
    /// path (single CAS, wait list untouched). Zero for implementations
    /// without a fast path. Increments made through a
    /// [`Cursor`](crate::Cursor) are added when the cursor drops, so a live
    /// cursor's are not counted yet.
    pub fast_increments: u64,
    /// `check` operations satisfied by a single atomic load, without the
    /// lock. Always `<= immediate_checks`. Includes the checks a
    /// [`Cursor`](crate::Cursor) skipped because an earlier load already
    /// satisfied them, added when the cursor drops.
    pub fast_checks: u64,
    /// `check` operations that missed the fast tier but saw their level
    /// satisfied while polling before suspending
    /// ([`CounterBuilder::spin_before_suspend`](crate::CounterBuilder::spin_before_suspend)),
    /// without the lock. Counted in `checks` and `immediate_checks`, never
    /// in `fast_checks` or `suspensions`. Zero for counters that do not
    /// spin.
    pub spin_checks: u64,
    /// Operations (of any kind) that acquired the slow-path mutex. A
    /// waiter-free workload on a fast-path counter reports **zero** here —
    /// the acceptance criterion of the E8 experiment.
    pub slow_path_entries: u64,
    /// IO operations that were retried after a transient failure. Always
    /// zero for in-memory counters; filled in by wrappers backed by fallible
    /// external resources (the durability layer's retry policy).
    pub io_retries: u64,
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inc {} | chk {} ({} immediate, {} suspended) | nodes {}/{} live/max \
             (created {}, freed {}) | waiters {}/{} live/max | broadcasts {} | \
             fast {} inc / {} chk | spin {} chk | slow entries {} | io retries {}",
            self.increments,
            self.checks,
            self.immediate_checks,
            self.suspensions,
            self.live_nodes,
            self.max_live_nodes,
            self.nodes_created,
            self.nodes_freed,
            self.live_waiters,
            self.max_live_waiters,
            self.notifies,
            self.fast_increments,
            self.fast_checks,
            self.spin_checks,
            self.slow_path_entries,
            self.io_retries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_display_is_compact_one_liner() {
        let s = Stats::default();
        s.record_increment();
        s.record_check_immediate();
        let text = s.snapshot().to_string();
        assert!(text.contains("inc 1"), "{text}");
        assert!(text.contains("chk 1"), "{text}");
        assert!(!text.contains('\n'));
    }

    #[test]
    fn snapshot_starts_zeroed() {
        let s = Stats::default();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn immediate_check_counts() {
        let s = Stats::default();
        s.record_check_immediate();
        s.record_check_immediate();
        let snap = s.snapshot();
        assert_eq!(snap.checks, 2);
        assert_eq!(snap.immediate_checks, 2);
        assert_eq!(snap.suspensions, 0);
    }

    #[test]
    fn node_lifecycle_tracks_live_and_max() {
        let s = Stats::default();
        s.record_node_created();
        s.record_node_created();
        s.record_node_freed();
        s.record_node_created();
        let snap = s.snapshot();
        assert_eq!(snap.nodes_created, 3);
        assert_eq!(snap.nodes_freed, 1);
        assert_eq!(snap.live_nodes, 2);
        assert_eq!(snap.max_live_nodes, 2);
    }

    #[test]
    fn waiter_lifecycle_tracks_live_and_max() {
        let s = Stats::default();
        s.record_check_suspended();
        s.record_check_suspended();
        s.record_check_suspended();
        s.record_waiter_resumed();
        let snap = s.snapshot();
        assert_eq!(snap.suspensions, 3);
        assert_eq!(snap.live_waiters, 2);
        assert_eq!(snap.max_live_waiters, 3);
    }

    #[test]
    fn fast_and_slow_path_counters() {
        let s = Stats::default();
        s.record_fast_increment();
        s.record_fast_increment();
        s.record_fast_check();
        s.record_slow_entry();
        s.record_increment();
        let snap = s.snapshot();
        assert_eq!(snap.fast_increments, 2);
        assert_eq!(snap.increments, 3, "fast increments count as increments");
        assert_eq!(snap.fast_checks, 1);
        assert_eq!(snap.immediate_checks, 1, "fast checks are immediate");
        assert_eq!(snap.slow_path_entries, 1);
    }

    #[test]
    fn spin_checks_are_immediate_but_not_fast() {
        let s = Stats::default();
        s.record_spin_check();
        s.record_fast_check();
        let snap = s.snapshot();
        assert_eq!(snap.spin_checks, 1);
        assert_eq!(snap.fast_checks, 1);
        assert_eq!((snap.checks, snap.immediate_checks), (2, 2));
        assert_eq!((snap.suspensions, snap.slow_path_entries), (0, 0));
        assert!(snap.to_string().contains("spin 1 chk"), "{snap}");
    }

    #[test]
    fn threads_with_different_slots_record_on_different_lines() {
        let s = Stats::default();
        let a = std::thread::scope(|sc| {
            sc.spawn(|| {
                s.record_fast_increment();
                thread_slot()
            })
            .join()
            .unwrap()
        });
        // Other tests take slots concurrently, so the next thread's slot is
        // not necessarily `a + 1`: retry until one lands on another stripe.
        let b = (0..64)
            .find_map(|_| {
                std::thread::scope(|sc| {
                    sc.spawn(|| {
                        let b = thread_slot();
                        (b % STRIPES != a % STRIPES).then(|| {
                            s.record_fast_check();
                            b
                        })
                    })
                    .join()
                    .unwrap()
                })
            })
            .expect("a thread on a different stripe");
        let inc = &s.stripes[a % STRIPES].increments;
        let chk = &s.stripes[b % STRIPES].checks;
        assert_eq!((inc.load(Relaxed), chk.load(Relaxed)), (1, 1));
        let line = |word: &AtomicU64| word as *const AtomicU64 as usize / 128;
        assert_ne!(line(inc), line(chk), "slots {a} and {b} share a line");
        let snap = s.snapshot();
        assert_eq!((snap.fast_increments, snap.fast_checks), (1, 1));
    }

    #[test]
    fn bump_max_is_monotonic() {
        let m = AtomicU64::new(5);
        bump_max(&m, 3);
        assert_eq!(m.load(Relaxed), 5);
        bump_max(&m, 9);
        assert_eq!(m.load(Relaxed), 9);
    }
}
