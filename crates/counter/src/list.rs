//! The ordered waiting list of the paper's Section 7, ported literally as a
//! sorted singly-linked list of wait nodes.
//!
//! Invariants (the paper's, enforced here and checked by the `WaitQueue`
//! battery in `waitlist`):
//!
//! 1. The list is strictly ordered by ascending level.
//! 2. Each level appears at most once (all threads waiting on one level share
//!    one node).
//! 3. The list never contains a level less than or equal to the counter
//!    value — `remove_satisfied` is called on every increment.

use crate::node::WaitNode;
use crate::waitlist::queue::Queue;
use crate::Value;
use std::sync::Arc;

struct Link {
    node: Arc<WaitNode>,
    next: Option<Box<Link>>,
}

/// A sorted singly-linked list of wait nodes, one per distinct waited
/// level, exactly as drawn in the paper's Figure 2: the
/// [`WaitQueue`](crate::WaitQueue) of [`Counter`](crate::Counter).
#[derive(Default)]
pub struct SortedList {
    head: Option<Box<Link>>,
    len: usize,
}

impl Queue for SortedList {
    const NAMES: [&'static str; 2] = ["waitlist", "waitlist-mutex-only"];

    fn len(&self) -> usize {
        self.len
    }

    fn find_or_insert(&mut self, level: Value) -> (Arc<WaitNode>, bool) {
        // Walk the links until we find the level or the first greater level.
        let mut cursor: &mut Option<Box<Link>> = &mut self.head;
        loop {
            match cursor {
                Some(link) if link.node.level < level => {
                    cursor = &mut cursor.as_mut().unwrap().next;
                }
                Some(link) if link.node.level == level => {
                    return (Arc::clone(&link.node), false);
                }
                _ => break,
            }
        }
        let node = Arc::new(WaitNode::new(level));
        let new_link = Box::new(Link {
            node: Arc::clone(&node),
            next: cursor.take(),
        });
        *cursor = Some(new_link);
        self.len += 1;
        (node, true)
    }

    /// Because the list is sorted, the satisfied nodes are exactly a prefix.
    fn remove_satisfied(&mut self, value: Value) -> Vec<Arc<WaitNode>> {
        let mut satisfied = Vec::new();
        while let Some(link) = self.head.take() {
            if link.node.level <= value {
                satisfied.push(link.node);
                self.head = link.next;
                self.len -= 1;
            } else {
                self.head = Some(link);
                break;
            }
        }
        satisfied
    }

    fn remove_level(&mut self, level: Value) -> Option<Arc<WaitNode>> {
        let mut cursor: &mut Option<Box<Link>> = &mut self.head;
        loop {
            match cursor {
                Some(link) if link.node.level < level => {
                    cursor = &mut cursor.as_mut().unwrap().next;
                }
                Some(link) if link.node.level == level => {
                    let mut removed = cursor.take().unwrap();
                    *cursor = removed.next.take();
                    self.len -= 1;
                    return Some(removed.node);
                }
                _ => return None,
            }
        }
    }

    fn nodes(&self) -> Vec<Arc<WaitNode>> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = &self.head;
        while let Some(link) = cur {
            out.push(Arc::clone(&link.node));
            cur = &link.next;
        }
        out
    }
}

// An explicit iterative Drop avoids stack overflow on pathologically long
// lists (Box chains drop recursively by default).
impl Drop for SortedList {
    fn drop(&mut self) {
        let mut cur = self.head.take();
        while let Some(mut link) = cur {
            cur = link.next.take();
        }
    }
}
