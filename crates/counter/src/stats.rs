//! Always-on, low-overhead counter instrumentation.
//!
//! The paper's Section 7 claims that storage and time are "proportional to the
//! number of different levels on which threads are waiting, not to the total
//! number of waiting threads". These statistics make that claim *measurable*:
//! experiment E5 reads them to show live wait-node counts tracking the number
//! of distinct levels.
//!
//! They come in two halves. What the slow path records ([`Tallies`]) is
//! plain fields of the counter's locked state, bumped under the lock the
//! step already holds; what the lock-free tiers record ([`Stats`]) is
//! relaxed per-thread stripes. A snapshot copies the first under the lock
//! and sums the second, so it agrees with itself.

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

/// A counter's lock-free tallies: the fast increments, fast checks, spin
/// checks and cursor flushes, which no lock orders.
///
/// Each is one relaxed `fetch_add` on the calling thread's own 128-byte
/// stripe, so lock-free operations on different threads share no stats
/// line, and [`snapshot`](Self::snapshot) sums the stripes, so the counts
/// stay exact. The stripes cost a fixed 1 KiB per counter, and the E8
/// tables measure the fast path with them.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    /// The fast-path tallies, one stripe per [`thread_slot`] modulo
    /// [`STRIPES`].
    stripes: Box<[CachePadded<FastTallies>; STRIPES]>,
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

    /// The totals: `slow`, copied under the counter's lock, plus the
    /// stripes' sums. A lock-free check adds to `checks` and
    /// `immediate_checks` alike, so the sums leave the snapshot as
    /// consistent as `slow`.
    pub(crate) fn snapshot(&self, slow: &Tallies) -> StatsSnapshot {
        let fast_increments = self.tallies().map(|t| t.increments.load(Relaxed)).sum();
        let fast_checks = self.tallies().map(|t| t.checks.load(Relaxed)).sum();
        let spin_checks = self.tallies().map(|t| t.spin_checks.load(Relaxed)).sum();
        let lock_free_checks = fast_checks + spin_checks;
        StatsSnapshot {
            increments: slow.increments + fast_increments,
            checks: slow.checks + lock_free_checks,
            immediate_checks: slow.immediate_checks + lock_free_checks,
            suspensions: slow.suspensions,
            nodes_created: slow.nodes_created,
            nodes_freed: slow.nodes_freed,
            live_nodes: slow.nodes_created - slow.nodes_freed,
            max_live_nodes: slow.max_live_nodes,
            live_waiters: slow.live_waiters,
            max_live_waiters: slow.max_live_waiters,
            notifies: slow.notifies,
            fast_increments,
            fast_checks,
            spin_checks,
            slow_path_entries: slow.slow_path_entries,
            io_retries: 0,
            timeouts: slow.timeouts,
            poisons: slow.poisons,
        }
    }
}

/// What the slow path records: plain counts in the counter's locked state,
/// bumped by the thread that holds the lock, so a copy taken under it
/// agrees with itself.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tallies {
    /// Increments applied under the lock.
    pub(crate) increments: u64,
    /// Checks decided under the lock: `immediate_checks + suspensions`.
    pub(crate) checks: u64,
    pub(crate) immediate_checks: u64,
    pub(crate) suspensions: u64,
    pub(crate) nodes_created: u64,
    pub(crate) nodes_freed: u64,
    pub(crate) max_live_nodes: u64,
    pub(crate) live_waiters: u64,
    pub(crate) max_live_waiters: u64,
    pub(crate) notifies: u64,
    /// Operations of any kind that took the lock through the slow path.
    pub(crate) slow_path_entries: u64,
    pub(crate) timeouts: u64,
    pub(crate) poisons: u64,
}

impl Tallies {
    pub(crate) fn check_immediate(&mut self) {
        self.checks += 1;
        self.immediate_checks += 1;
    }

    pub(crate) fn check_suspended(&mut self) {
        self.checks += 1;
        self.suspensions += 1;
        self.live_waiters += 1;
        self.max_live_waiters = self.max_live_waiters.max(self.live_waiters);
    }

    pub(crate) fn node_created(&mut self) {
        self.nodes_created += 1;
        let live = self.nodes_created - self.nodes_freed;
        self.max_live_nodes = self.max_live_nodes.max(live);
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
    /// Timed waits that gave up at their deadline. Each one suspended
    /// first, so never more than `suspensions`.
    pub timeouts: u64,
    /// Poisons that took effect. A `poison` call on a counter already
    /// poisoned keeps the first cause and is not counted.
    pub poisons: u64,
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inc {} | chk {} ({} immediate, {} suspended) | nodes {}/{} live/max \
             (created {}, freed {}) | waiters {}/{} live/max | broadcasts {} | \
             fast {} inc / {} chk | spin {} chk | slow entries {} | io retries {} | \
             timeouts {} | poisons {}",
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
            self.io_retries,
            self.timeouts,
            self.poisons
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_display_is_compact_one_liner() {
        let mut t = Tallies::default();
        t.increments += 1;
        t.check_immediate();
        let text = Stats::default().snapshot(&t).to_string();
        assert!(text.contains("inc 1"), "{text}");
        assert!(text.contains("chk 1"), "{text}");
        assert!(!text.contains('\n'));
    }

    #[test]
    fn snapshot_starts_zeroed() {
        let s = Stats::default();
        assert_eq!(s.snapshot(&Tallies::default()), StatsSnapshot::default());
    }

    #[test]
    fn immediate_check_counts() {
        let mut t = Tallies::default();
        t.check_immediate();
        t.check_immediate();
        let snap = Stats::default().snapshot(&t);
        assert_eq!(snap.checks, 2);
        assert_eq!(snap.immediate_checks, 2);
        assert_eq!(snap.suspensions, 0);
    }

    #[test]
    fn node_lifecycle_tracks_live_and_max() {
        let mut t = Tallies::default();
        t.node_created();
        t.node_created();
        t.nodes_freed += 1;
        t.node_created();
        let snap = Stats::default().snapshot(&t);
        assert_eq!(snap.nodes_created, 3);
        assert_eq!(snap.nodes_freed, 1);
        assert_eq!(snap.live_nodes, 2);
        assert_eq!(snap.max_live_nodes, 2);
    }

    #[test]
    fn waiter_lifecycle_tracks_live_and_max() {
        let mut t = Tallies::default();
        t.check_suspended();
        t.check_suspended();
        t.check_suspended();
        t.live_waiters -= 1;
        let snap = Stats::default().snapshot(&t);
        assert_eq!(snap.suspensions, 3);
        assert_eq!(snap.live_waiters, 2);
        assert_eq!(snap.max_live_waiters, 3);
    }

    #[test]
    fn fast_and_slow_path_counters() {
        let s = Stats::default();
        let mut t = Tallies::default();
        s.record_fast_increment();
        s.record_fast_increment();
        s.record_fast_check();
        t.slow_path_entries += 1;
        t.increments += 1;
        let snap = s.snapshot(&t);
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
        let snap = s.snapshot(&Tallies::default());
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
        let snap = s.snapshot(&Tallies::default());
        assert_eq!((snap.fast_increments, snap.fast_checks), (1, 1));
    }
}
