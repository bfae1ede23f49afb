//! Waiting on several counters.
//!
//! Monotonicity gives multi-counter waits a property no traditional
//! primitive has: checking a set of `(counter, level)` conditions **one at a
//! time** is a correct wait for their conjunction, because a condition that
//! has become true can never become false again. When the last `check`
//! returns, *all* conditions hold simultaneously. (With, say, condition
//! variables this would race; with locks it would deadlock-order-matter.)

use crate::traits::MonotonicCounter;
use crate::Value;

/// Suspends until every `(counter, level)` pair is satisfied.
///
/// Equivalent to calling [`MonotonicCounter::check`] on each pair in order;
/// correct for the conjunction because counter conditions are stable
/// (monotonic). The order of the pairs affects only performance, never
/// correctness or the result.
///
/// # Example
///
/// ```
/// use mc_counter::{check_all, Counter, MonotonicCounter};
/// let a = Counter::default();
/// let b = Counter::default();
/// a.increment(2);
/// b.increment(1);
/// check_all([(&a, 2), (&b, 1)]); // both already satisfied: returns at once
/// ```
pub fn check_all<'a, C>(waits: impl IntoIterator<Item = (&'a C, Value)>)
where
    C: MonotonicCounter + ?Sized + 'a,
{
    for (counter, level) in waits {
        counter.check(level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn check_all_on_satisfied_pairs_returns() {
        let a = Counter::default();
        let b = Counter::default();
        a.increment(1);
        b.increment(2);
        check_all([(&a, 1), (&b, 2)]);
    }

    #[test]
    fn check_all_waits_for_every_counter() {
        let a = Arc::new(Counter::default());
        let b = Arc::new(Counter::default());
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let h = thread::spawn(move || check_all([(&*a2, 3), (&*b2, 3)]));
        a.increment(3);
        thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !h.is_finished(),
            "returned before second counter was satisfied"
        );
        b.increment(3);
        h.join().unwrap();
    }
}
