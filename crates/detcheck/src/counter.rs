//! Counters instrumented with release/acquire clock propagation.

use crate::checker::ThreadCtx;
use crate::vclock::VectorClock;
use mc_counter::{CheckError, Counter, CounterDiagnostics, FailureInfo, MonotonicCounter, Value};
use std::sync::Mutex;

/// Clock history of a counter: after each increment, the cumulative join of
/// the clocks of all increments so far, keyed by the value reached.
struct History {
    value: Value,
    cumulative: VectorClock,
    /// `(value_after_increment, cumulative_clock_at_that_point)`, value
    /// nondecreasing.
    entries: Vec<(Value, VectorClock)>,
}

/// A monotonic counter that participates in a [`Checker`](crate::Checker)
/// session: `increment` *releases* the caller's vector clock into the
/// counter, `check(level)` *acquires* exactly the clocks of the increments up
/// to the first point the value reached `level`.
///
/// Acquiring only that prefix — rather than the counter's latest clock —
/// keeps the computed happens-before relation precise: a `check` is ordered
/// after the increments it could actually have waited for, not after ones
/// that merely happened to land earlier in real time. Together with the
/// fork/join edges this realizes the paper's "transitive chain of counter
/// operations".
pub struct TrackedCounter {
    counter: Counter,
    history: Mutex<History>,
}

impl Default for TrackedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl TrackedCounter {
    /// Creates a tracked counter with value zero.
    pub fn new() -> Self {
        TrackedCounter {
            counter: Counter::default(),
            history: Mutex::new(History {
                value: 0,
                cumulative: VectorClock::new(),
                entries: Vec::new(),
            }),
        }
    }

    /// [`MonotonicCounter::increment`], releasing the caller's clock.
    pub fn increment(&self, ctx: &ThreadCtx, amount: Value) {
        // Record the release *before* the real increment: by the time any
        // waiter can wake, its history entry is in place, so the acquire in
        // `check` can never miss it.
        {
            let mut h = self.history.lock().expect("tracked counter lock poisoned");
            h.cumulative.join(&ctx.clock());
            h.value = h
                .value
                .checked_add(amount)
                .expect("tracked counter overflow");
            let entry = (h.value, h.cumulative.clone());
            h.entries.push(entry);
        }
        ctx.core().tick(ctx.tid());
        self.counter.increment(amount);
    }

    /// [`MonotonicCounter::check`], acquiring the clocks of the increment
    /// prefix that satisfied `level`.
    pub fn check(&self, ctx: &ThreadCtx, level: Value) {
        self.counter.check(level);
        self.acquire_prefix(ctx, level);
    }

    /// [`MonotonicCounter::wait`]: like [`check`](Self::check) but returns
    /// [`CheckError::Poisoned`] instead of panicking when the counter is
    /// poisoned before `level` is satisfied. A failed wait acquires
    /// **nothing** — poisoning is a failure channel, not a synchronization
    /// edge, so it must not manufacture happens-before order.
    pub fn wait(&self, ctx: &ThreadCtx, level: Value) -> Result<(), CheckError> {
        self.counter.wait(level)?;
        self.acquire_prefix(ctx, level);
        Ok(())
    }

    /// Acquires the clocks of the satisfying increment prefix after a
    /// successful suspension, then ticks the caller.
    fn acquire_prefix(&self, ctx: &ThreadCtx, level: Value) {
        if level > 0 {
            let h = self.history.lock().expect("tracked counter lock poisoned");
            // First entry whose value satisfies the level; it must exist
            // because the underlying check returned.
            let idx = h.entries.partition_point(|(v, _)| *v < level);
            let (_, clock) = h
                .entries
                .get(idx)
                .expect("check returned but no increment satisfied the level");
            ctx.core().join_into(ctx.tid(), clock);
        }
        ctx.core().tick(ctx.tid());
    }

    /// [`MonotonicCounter::poison`]: forwards to the underlying counter so a
    /// failed thread's dependents are released (and flagged) instead of
    /// hanging the checked program.
    pub fn poison(&self, info: FailureInfo) {
        self.counter.poison(info);
    }

    /// [`MonotonicCounter::poison_info`]: the failure cause, if poisoned.
    pub fn poison_info(&self) -> Option<FailureInfo> {
        self.counter.poison_info()
    }

    /// The underlying counter's current value (diagnostics/tests only).
    pub fn debug_value(&self) -> Value {
        self.counter.debug_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::shared::Shared;

    #[test]
    fn increment_then_check_creates_order() {
        let checker = Checker::new();
        let root = checker.register_root();
        let a = root.fork();
        let b = root.fork();
        let c = TrackedCounter::new();

        let a_before = a.clock();
        c.increment(&a, 1);
        c.check(&b, 1);
        // a's pre-increment events are now ordered before b's current clock.
        assert!(a_before.le(&b.clock()));
    }

    #[test]
    fn check_zero_acquires_nothing() {
        let checker = Checker::new();
        let root = checker.register_root();
        let a = root.fork();
        let b = root.fork();
        let c = TrackedCounter::new();
        c.increment(&a, 5);
        c.check(&b, 0);
        // b waited for nothing, so it must remain concurrent with a.
        assert!(a.clock().concurrent_with(&b.clock()));
    }

    #[test]
    fn check_acquires_only_the_satisfying_prefix() {
        let checker = Checker::new();
        let root = checker.register_root();
        let a = root.fork();
        let b = root.fork();
        let w = root.fork();
        let c = TrackedCounter::new();
        // a's increment reaches 1; b's later increment reaches 2.
        let a_before = a.clock();
        let b_before = b.clock();
        c.increment(&a, 1);
        c.increment(&b, 1);
        // Waiting for level 1 orders w after a only, not after b.
        c.check(&w, 1);
        assert!(
            a_before.le(&w.clock()),
            "level-1 check must acquire the level-1 increment"
        );
        assert!(
            b_before.concurrent_with(&w.clock()),
            "level-1 check must not acquire the level-2 increment"
        );
    }

    #[test]
    fn counter_chain_makes_shared_access_clean() {
        // The paper's Section 6 example:
        //   thread A: Check(0); x = x+1; Increment(1)
        //   thread B: Check(1); x = x*2; Increment(1)
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 3);
        let c = TrackedCounter::new();
        let a = root.fork();
        let b = root.fork();
        std::thread::scope(|s| {
            s.spawn(|| {
                c.check(&a, 0);
                x.update(&a, |v| *v += 1);
                c.increment(&a, 1);
            });
            s.spawn(|| {
                c.check(&b, 1);
                x.update(&b, |v| *v *= 2);
                c.increment(&b, 1);
            });
        });
        root.join(a);
        root.join(b);
        assert!(checker.report().is_clean());
        assert_eq!(x.into_inner(), 8); // (3+1)*2, deterministically
    }

    #[test]
    fn missing_chain_is_reported() {
        // The paper's *erroneous* variant: both threads Check(0), so the
        // accesses to x are unordered.
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 3);
        let c = TrackedCounter::new();
        let a = root.fork();
        let b = root.fork();
        c.check(&a, 0);
        x.update(&a, |v| *v += 1);
        c.increment(&a, 1);
        c.check(&b, 0); // does NOT wait for a's increment
        x.update(&b, |v| *v *= 2);
        c.increment(&b, 1);
        let report = checker.report();
        assert!(!report.is_clean(), "unsynchronized updates must be flagged");
    }

    #[test]
    fn transitive_chain_through_third_thread() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 0);
        let c1 = TrackedCounter::new();
        let c2 = TrackedCounter::new();
        let a = root.fork();
        let b = root.fork();
        let mid = root.fork();
        // a -> c1 -> mid -> c2 -> b is a transitive chain.
        x.write(&a, 1);
        c1.increment(&a, 1);
        c1.check(&mid, 1);
        c2.increment(&mid, 1);
        c2.check(&b, 1);
        assert_eq!(x.read(&b), 1);
        assert!(checker.report().is_clean());
    }

    #[test]
    fn failed_wait_acquires_no_order() {
        let checker = Checker::new();
        let root = checker.register_root();
        let a = root.fork();
        let b = root.fork();
        let c = TrackedCounter::new();
        c.increment(&a, 1);
        c.poison(FailureInfo::new("producer died"));
        // b waits for a level the poisoned counter will never reach: the
        // wait fails, and crucially does NOT acquire a's clock.
        assert!(matches!(c.wait(&b, 5), Err(CheckError::Poisoned(_))));
        assert!(
            a.clock().concurrent_with(&b.clock()),
            "a failed wait must not create happens-before order"
        );
        assert_eq!(c.poison_info().unwrap().message(), "producer died");
    }

    #[test]
    fn successful_wait_acquires_like_check() {
        let checker = Checker::new();
        let root = checker.register_root();
        let a = root.fork();
        let b = root.fork();
        let c = TrackedCounter::new();
        let a_before = a.clock();
        c.increment(&a, 1);
        assert!(c.wait(&b, 1).is_ok());
        assert!(a_before.le(&b.clock()));
    }

    #[test]
    fn sequential_ordering_pattern_is_clean() {
        // Section 5.2: N threads each do Check(i); accumulate; Increment(1).
        let checker = Checker::new();
        let root = checker.register_root();
        let result = Shared::new("result", Vec::new());
        let c = TrackedCounter::new();
        let ctxs: Vec<_> = (0..6u64).map(|_| root.fork()).collect();
        std::thread::scope(|s| {
            for (i, ctx) in ctxs.iter().enumerate() {
                let (result, c) = (&result, &c);
                s.spawn(move || {
                    c.check(ctx, i as u64);
                    result.update(ctx, |v| v.push(i));
                    c.increment(ctx, 1);
                });
            }
        });
        for ctx in ctxs {
            root.join(ctx);
        }
        assert!(checker.report().is_clean());
        assert_eq!(result.into_inner(), (0..6).collect::<Vec<_>>());
    }
}
