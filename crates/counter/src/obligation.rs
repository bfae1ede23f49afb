//! [`Obligation`]: RAII increment obligations.
//!
//! The paper's deadlock-freedom argument (Section 6) rests on every thread
//! delivering its increments. An `Obligation` makes that duty a value: the
//! guard either delivers its increment (normal drop or explicit
//! [`fulfill`](Obligation::fulfill)) or — when dropped during a panic unwind
//! — poisons the counter, so the threads depending on the increment fail
//! with a cause instead of hanging forever. This is the "who still owes
//! counts" discipline of the CountDownLatch verification literature, checked
//! at runtime instead of in a proof system; a [`SupervisedObligation`] also
//! keeps that ledger for the [`Supervisor`](crate::Supervisor).

use crate::error::FailureInfo;
use crate::supervisor::SupervisedCounter;
use crate::traits::MonotonicCounter;
use crate::Value;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An RAII guard for the duty to increment a counter by a fixed amount.
///
/// `H` holds the counter: a reference from
/// [`CounterExt::obligation`](crate::CounterExt::obligation), or an `Arc`
/// from the supervisor ([`SupervisedObligation`]). On a normal drop the
/// increment is delivered; on a drop during a panic unwind the counter is
/// poisoned instead, with the owed amount recorded as level context.
/// [`fulfill`](Self::fulfill) delivers early; [`abandon`](Self::abandon)
/// poisons deliberately.
///
/// # Example
///
/// ```
/// use mc_counter::{Counter, CounterExt, MonotonicCounter};
/// let c = Counter::default();
/// {
///     let _ob = c.obligation(2);
///     // ... produce the data the increment publishes ...
/// } // guard dropped normally: increment(2) delivered here
/// c.check(2);
/// ```
pub struct Obligation<H: Deref<Target: MonotonicCounter>> {
    counter: H,
    /// Amount still owed; zero once settled.
    owed: Value,
    /// The amount counted in a supervisor's ledger, if supervised.
    _ledger: Option<Ledger>,
    /// Whether a drop during a panic rolls back instead of poisoning.
    roll_back_on_unwind: bool,
}

/// An [`Obligation`] taken through a [`Supervisor`](crate::Supervisor):
/// while it lives, its amount is counted in
/// [`CounterReport::outstanding_obligations`](crate::CounterReport::outstanding_obligations).
/// One from [`Supervisor::restartable_obligation`](crate::Supervisor::restartable_obligation)
/// rolls back on an unwind instead of poisoning.
pub type SupervisedObligation = Obligation<Arc<dyn SupervisedCounter>>;

impl<H: Deref<Target: MonotonicCounter>> Obligation<H> {
    /// Takes on `amount`, counted in `ledger` until the guard drops.
    pub(crate) fn new(
        counter: H,
        amount: Value,
        ledger: Option<&Arc<AtomicU64>>,
        roll_back_on_unwind: bool,
    ) -> Self {
        let hold = |ledger: &Arc<AtomicU64>| {
            ledger.fetch_add(amount, Ordering::Relaxed);
            Ledger(Arc::clone(ledger), amount)
        };
        Obligation {
            counter,
            owed: amount,
            _ledger: ledger.map(hold),
            roll_back_on_unwind,
        }
    }

    /// The amount this obligation will deliver.
    pub fn owed(&self) -> Value {
        self.owed
    }

    /// Delivers the owed increment now, consuming the guard. If the
    /// delivery panics the amount is still owed, so the guard's drop in
    /// that unwind poisons or rolls back.
    pub fn fulfill(mut self) {
        self.counter.increment(self.owed);
        self.owed = 0;
    }

    /// Deliberately abandons the obligation, poisoning the counter with
    /// `info` (the owed amount is attached as level context). Use when a
    /// thread discovers it cannot produce what it promised without
    /// panicking.
    pub fn abandon(mut self, info: FailureInfo) {
        self.counter.poison(info.with_level(self.owed));
        self.owed = 0;
    }
}

impl SupervisedObligation {
    /// Rolls the obligation back explicitly — ledger released, counter
    /// untouched — consuming the guard. Useful when a worker sees its
    /// supervision tree going down (`ResumeCtx::aborted` in mc-sthreads)
    /// and hands its outstanding work back before returning normally.
    pub fn rollback(mut self) {
        self.owed = 0;
    }
}

impl<H: Deref<Target: MonotonicCounter>> Drop for Obligation<H> {
    fn drop(&mut self) {
        if self.owed == 0 {
            return;
        }
        if !std::thread::panicking() {
            self.counter.increment(self.owed);
        } else if !self.roll_back_on_unwind {
            // The panic payload is not reachable from Drop; supervised
            // execution (mc-sthreads) catches the panic and re-poisons with
            // the real payload — first-poison-wins makes that racy path
            // benign, and this guard guarantees waiters wake even without a
            // supervisor.
            self.counter.poison(
                FailureInfo::new("increment obligation abandoned by panicking thread")
                    .with_level(self.owed),
            );
        }
    }
}

/// An amount counted in a supervisor's ledger. As a field of its guard it
/// is released after the guard settles, even if the delivery panics
/// (overflow, a failed durable write), so value + outstanding never reads
/// short of what is owed. `Release` pairs with the `Acquire` load of the
/// supervisor's sampling pass: a sample that sees the amount gone also sees
/// the increment delivered before it.
struct Ledger(Arc<AtomicU64>, Value);

impl Drop for Ledger {
    fn drop(&mut self) {
        self.0.fetch_sub(self.1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CheckError;
    use crate::traits::{CounterDiagnostics, CounterExt};
    use crate::Counter;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn normal_drop_delivers_the_increment() {
        let c = Counter::default();
        {
            let _ob = c.obligation(3);
            assert_eq!(c.debug_value(), 0, "nothing delivered while held");
        }
        assert_eq!(c.debug_value(), 3);
        assert!(c.poison_info().is_none());
    }

    #[test]
    fn fulfill_delivers_early_exactly_once() {
        let c = Counter::default();
        let ob = c.obligation(5);
        ob.fulfill();
        assert_eq!(c.debug_value(), 5, "fulfilled amount delivered once");
    }

    #[test]
    fn unwind_drop_poisons_with_owed_amount() {
        let c = Counter::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ob = c.obligation(7);
            panic!("producer exploded");
        }));
        assert!(result.is_err());
        assert_eq!(c.debug_value(), 0, "no increment from a failed producer");
        let info = c.poison_info().expect("unwind drop must poison");
        assert_eq!(info.level(), Some(7));
        assert!(info.message().contains("obligation abandoned"));
    }

    #[test]
    fn fulfill_that_panics_settles_as_an_unwind() {
        let c = Counter::builder().initial(u64::MAX - 1).build();
        let ob = c.obligation(5);
        assert!(catch_unwind(AssertUnwindSafe(|| ob.fulfill())).is_err());
        let info = c.poison_info().expect("the undelivered amount poisons");
        assert_eq!(info.level(), Some(5));
    }

    #[test]
    fn abandon_poisons_with_caller_cause() {
        let c = Counter::default();
        let ob = c.obligation(2);
        ob.abandon(FailureInfo::new("input file missing"));
        let info = c.poison_info().unwrap();
        assert_eq!(info.message(), "input file missing");
        assert_eq!(info.level(), Some(2));
    }

    #[test]
    fn panicking_holder_unblocks_waiters() {
        let c = Arc::new(Counter::default());
        let waiter = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.wait(10))
        };
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        let producer = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                let _ob = c.obligation(10);
                panic!("worker died mid-task");
            })
        };
        assert!(producer.join().is_err());
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, CheckError::Poisoned(_)));
    }

    #[test]
    fn obligation_works_through_dyn_counter() {
        let c: Box<dyn MonotonicCounter> = Box::new(Counter::default());
        {
            let _ob = c.obligation(1);
        }
        // `check` returning proves the increment was delivered.
        c.check(1);
    }
}
