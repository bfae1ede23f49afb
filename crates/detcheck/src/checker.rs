//! The checker session: per-thread clocks, fork/join edges, race reports.

use crate::vclock::VectorClock;
use std::fmt;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
pub(crate) struct CheckerInner {
    /// One clock per registered thread, indexed by tid.
    clocks: Mutex<Vec<VectorClock>>,
    races: Mutex<Vec<RaceReport>>,
}

impl CheckerInner {
    pub(crate) fn clock_of(&self, tid: usize) -> VectorClock {
        self.clocks.lock().expect("checker lock poisoned")[tid].clone()
    }

    pub(crate) fn join_into(&self, tid: usize, other: &VectorClock) {
        self.clocks.lock().expect("checker lock poisoned")[tid].join(other);
    }

    pub(crate) fn tick(&self, tid: usize) {
        self.clocks.lock().expect("checker lock poisoned")[tid].tick(tid);
    }

    pub(crate) fn report_race(&self, race: RaceReport) {
        self.races.lock().expect("checker lock poisoned").push(race);
    }

    fn new_thread(&self, initial: VectorClock) -> usize {
        let mut clocks = self.clocks.lock().expect("checker lock poisoned");
        let tid = clocks.len();
        let mut clock = initial;
        clock.tick(tid);
        clocks.push(clock);
        tid
    }
}

/// A determinacy-checking session. Create one per program-under-test, hand a
/// [`ThreadCtx`] to each thread, and read the [`Report`] at the end.
#[derive(Clone, Default)]
pub struct Checker {
    inner: Arc<CheckerInner>,
}

impl Checker {
    /// Creates an empty session.
    pub fn new() -> Self {
        Checker::default()
    }

    /// Registers the root (main) thread of the program under test.
    pub fn register_root(&self) -> ThreadCtx {
        let tid = self.inner.new_thread(VectorClock::new());
        ThreadCtx {
            inner: Arc::clone(&self.inner),
            tid,
        }
    }

    /// All races observed so far.
    pub fn report(&self) -> Report {
        Report {
            races: self
                .inner
                .races
                .lock()
                .expect("checker lock poisoned")
                .clone(),
        }
    }
}

/// A thread's identity within a checker session. Obtain the root via
/// [`Checker::register_root`] and per-task contexts via
/// [`ThreadCtx::fork`]; pass each context into the thread that uses it.
pub struct ThreadCtx {
    inner: Arc<CheckerInner>,
    tid: usize,
}

impl ThreadCtx {
    /// This thread's index in the session.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// A snapshot of this thread's current clock.
    pub fn clock(&self) -> VectorClock {
        self.inner.clock_of(self.tid)
    }

    pub(crate) fn core(&self) -> &CheckerInner {
        &self.inner
    }

    /// Creates a child context whose events are ordered after this thread's
    /// events so far (the fork edge of the structured-multithreading model).
    pub fn fork(&self) -> ThreadCtx {
        let parent_clock = self.inner.clock_of(self.tid);
        let child_tid = self.inner.new_thread(parent_clock);
        // Tick the parent so its post-fork events are not mistaken for
        // pre-fork ones.
        self.inner.tick(self.tid);
        ThreadCtx {
            inner: Arc::clone(&self.inner),
            tid: child_tid,
        }
    }

    /// Consumes a finished child context, ordering its events before this
    /// thread's subsequent events (the join edge at the end of a
    /// `multithreaded` construct).
    pub fn join(&self, child: ThreadCtx) {
        let child_clock = self.inner.clock_of(child.tid);
        self.inner.join_into(self.tid, &child_clock);
        self.inner.tick(self.tid);
    }
}

/// The kind of unordered access pair that constitutes a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two writes unordered by happens-before.
    WriteWrite,
    /// A write unordered with an earlier read.
    ReadThenWrite,
    /// A read unordered with an earlier write.
    WriteThenRead,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::WriteWrite => "write/write",
            RaceKind::ReadThenWrite => "read-then-write",
            RaceKind::WriteThenRead => "write-then-read",
        };
        f.write_str(s)
    }
}

/// One detected violation of the paper's shared-variable conditions: a pair
/// of accesses to the same [`Shared`](crate::Shared) variable not separated
/// by a transitive chain of counter (or fork/join) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The name given to the shared variable.
    pub variable: String,
    /// The kind of access pair.
    pub kind: RaceKind,
    /// Thread that performed the earlier access.
    pub first_tid: usize,
    /// Thread that performed the later (racing) access.
    pub second_tid: usize,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on `{}` between thread {} and thread {}",
            self.kind, self.variable, self.first_tid, self.second_tid
        )
    }
}

/// The outcome of a checking session.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every race observed, in detection order.
    pub races: Vec<RaceReport>,
}

impl Report {
    /// `true` when no race was observed — the execution satisfied the
    /// paper's conditions, so (Section 6) its results are deterministic.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_session_is_clean() {
        assert!(Checker::new().report().is_clean());
    }

    #[test]
    fn fork_orders_parent_prefix_before_child() {
        let checker = Checker::new();
        let root = checker.register_root();
        let before = root.clock();
        let child = root.fork();
        assert!(before.le(&child.clock()));
    }

    #[test]
    fn forked_siblings_are_concurrent() {
        let checker = Checker::new();
        let root = checker.register_root();
        let a = root.fork();
        let b = root.fork();
        assert!(a.clock().concurrent_with(&b.clock()));
    }

    #[test]
    fn join_orders_child_before_parent_suffix() {
        let checker = Checker::new();
        let root = checker.register_root();
        let child = root.fork();
        let child_clock = child.clock();
        root.join(child);
        assert!(child_clock.le(&root.clock()));
    }

    #[test]
    fn parent_post_fork_concurrent_with_child() {
        let checker = Checker::new();
        let root = checker.register_root();
        let child = root.fork();
        // Advance the parent past the fork.
        root.core().tick(root.tid());
        let parent_now = root.clock();
        assert!(parent_now.concurrent_with(&child.clock()));
    }

    #[test]
    fn race_report_display() {
        let r = RaceReport {
            variable: "x".into(),
            kind: RaceKind::WriteWrite,
            first_tid: 1,
            second_tid: 2,
        };
        assert_eq!(
            r.to_string(),
            "write/write race on `x` between thread 1 and thread 2"
        );
    }

    #[test]
    fn report_collects_races() {
        let checker = Checker::new();
        let root = checker.register_root();
        root.core().report_race(RaceReport {
            variable: "v".into(),
            kind: RaceKind::WriteThenRead,
            first_tid: 0,
            second_tid: 1,
        });
        let report = checker.report();
        assert!(!report.is_clean());
        assert_eq!(report.races.len(), 1);
    }
}
