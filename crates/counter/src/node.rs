//! The wait node: one suspension queue for one counter level.
//!
//! This is the node structure of the paper's Section 7 / Figure 2: a level, a
//! count of threads waiting at that level, a condition variable they wait on,
//! and a "signal" flag set when the level is satisfied.

use crate::Value;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Condvar;

/// One suspension queue: all threads waiting for the same level share a node.
///
/// Every field except `level` is only read or written while holding the owning
/// counter's mutex; the atomics exist solely so the node can be shared through
/// `Arc` without `unsafe`, and relaxed ordering suffices because the mutex
/// provides all necessary synchronization.
///
/// Public only so the `BTreeMap` queue type can be named in
/// [`BTreeCounter`](crate::BTreeCounter); the module is private.
#[derive(Debug)]
pub struct WaitNode {
    /// The level threads at this node are waiting for. Immutable.
    pub(crate) level: Value,
    /// Number of threads currently registered at this node. The thread that
    /// decrements it to zero after the node is signalled releases the node
    /// (the paper: "the thread that decrements the count to zero deallocates
    /// the node"; in Rust the final `Arc` drop is the deallocation and this
    /// count additionally drives the draining-list removal).
    pub(crate) count: AtomicUsize,
    /// The signal flag ("set" in Figure 2): true once `increment` has
    /// satisfied this level. Guards against spurious condvar wakeups.
    pub(crate) set: AtomicBool,
    /// True once the counter was poisoned while this node's level was still
    /// unsatisfied: every waiter wakes with `CheckError::Poisoned` instead
    /// of resuming normally. Mutually exclusive with `set`.
    pub(crate) poisoned: AtomicBool,
    /// The condition variable the node's threads suspend on. Always used with
    /// the owning counter's single mutex.
    pub(crate) cv: Condvar,
}

impl WaitNode {
    pub(crate) fn new(level: Value) -> Self {
        WaitNode {
            level,
            count: AtomicUsize::new(0),
            set: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn is_set(&self) -> bool {
        self.set.load(Relaxed)
    }

    pub(crate) fn signal(&self) {
        self.set.store(true, Relaxed);
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Relaxed)
    }

    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Relaxed);
    }

    pub(crate) fn add_waiter(&self) {
        self.count.fetch_add(1, Relaxed);
    }

    /// Removes one waiter; returns `true` if this was the last one.
    pub(crate) fn remove_waiter(&self) -> bool {
        self.count.fetch_sub(1, Relaxed) == 1
    }

    pub(crate) fn waiter_count(&self) -> usize {
        self.count.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_is_unset_with_no_waiters() {
        let n = WaitNode::new(7);
        assert_eq!(n.level, 7);
        assert!(!n.is_set());
        assert_eq!(n.waiter_count(), 0);
    }

    #[test]
    fn waiter_registration_round_trip() {
        let n = WaitNode::new(1);
        n.add_waiter();
        n.add_waiter();
        assert_eq!(n.waiter_count(), 2);
        assert!(!n.remove_waiter());
        assert!(n.remove_waiter(), "last waiter must be told it is last");
        assert_eq!(n.waiter_count(), 0);
    }

    #[test]
    fn signal_latches() {
        let n = WaitNode::new(1);
        n.signal();
        assert!(n.is_set());
        n.signal();
        assert!(n.is_set());
    }
}
