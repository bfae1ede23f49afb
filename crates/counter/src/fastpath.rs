//! The packed-word fast path shared by the lock-based counter
//! implementations.
//!
//! One `AtomicU64` packs the counter state the hot paths need:
//!
//! ```text
//!   bit 63 .. 2                      bit 1       bit 0
//! +-------------------------------+----------+---------------+
//! |  value hint (62 bits)         | poison P | has_waiters W |
//! +-------------------------------+----------+---------------+
//! ```
//!
//! * A `check(level)` that observes `hint >= level` returns after a single
//!   `Acquire` load: monotonicity means a satisfied level can never become
//!   unsatisfied, so no lock and no re-check are needed.
//! * An `increment` that observes `W == 0` (and no overflow hazard) publishes
//!   the new value with one CAS: with no waiters registered there is nobody
//!   to wake, so the Section 7 wait list is never touched.
//! * Everything else — a check that must suspend, an increment while waiters
//!   exist, values beyond the 62-bit hint range — funnels into the existing
//!   mutex-protected wait-list slow path.
//!
//! # Why a wakeup can never be missed
//!
//! The classic hazard is the race between an incrementer deciding "no
//! waiters, skip the lock" and a checker deciding "value too low, go to
//! sleep". Both decisions here are made on the *same* atomic word, with
//! read-modify-write operations, so the hardware's per-word coherence order
//! decides the race — no fence subtleties, no store-buffering reordering
//! (which would need `SeqCst` if value and flag were separate words, as a
//! previous revision of this crate did):
//!
//! * The checker (holding the slow-path mutex) announces itself with
//!   [`FastWord::register_waiter`] — `fetch_or(W)` — and examines the word
//!   that RMW *returned* before deciding to sleep.
//! * The incrementer's CAS either lands **before** that `fetch_or` in the
//!   word's modification order — then the returned word already contains the
//!   new value and the checker returns instead of sleeping — or it lands
//!   **after**, in which case the CAS fails against the `W` bit it now
//!   sees, and the incrementer falls into the slow path, where the mutex
//!   forces it to wait until the checker is enqueued (the condvar releases
//!   the lock only once the node is in the list), and its sweep signals the
//!   node.
//!
//! Either way the wakeup is delivered. `AcqRel`/`Acquire` orderings suffice
//! because every decision reads the result of an RMW on the single word.
//!
//! A waiter that polls the word before it suspends
//! ([`FastWord::poll`], on counters built with `spin_before_suspend`) only
//! reads it, before registering: a level the poll sees satisfied stays
//! satisfied, and a waiter that gives up registers exactly as above.
//!
//! # The poison bit
//!
//! Bit 1 mirrors the slow path's poisoned state (set under the lock, never
//! cleared except by `reset`). The satisfied-check fast tier deliberately
//! ignores it: a level the hint already satisfies is *genuinely* satisfied —
//! monotonicity holds regardless of poisoning — so `is_satisfied` stays one
//! `Acquire` load with no extra atomics. Only waits that would block consult
//! the poison state, and they are on the slow path anyway. Fast increments
//! also proceed while only `P` is set (there are no waiters to wake; the
//! flag bits are preserved by every CAS), so a poisoned counter keeps exact
//! increment accounting.
//!
//! # The 62-bit hint and `u64::MAX` semantics
//!
//! Packing leaves 62 bits for the value, but the public API promises exact
//! `u64` arithmetic (overflow errors at `u64::MAX`, `check(u64::MAX)`
//! satisfiable). The word therefore stores a **hint**: `min(value,
//! [`FAST_CAP`])`. While the true value is below [`FAST_CAP`] the hint is
//! exact and fast paths are allowed; once an increment would reach
//! [`FAST_CAP`] the transition happens under the lock, the hint sticks at
//! [`FAST_CAP`], and the true value lives in the slow path's `wide` field.
//! The hint is always `<=` the true value, so a fast `check` can only
//! *under*-approximate — it may fall into the slow path needlessly (for
//! astronomically large values), never return early wrongly. Reaching
//! `FAST_CAP = 2^62 - 1` by honest counting is out of reach in practice, so
//! real workloads never leave the fast regime.

use crate::error::CounterOverflowError;
use crate::Value;
use std::sync::atomic::{
    AtomicU64,
    Ordering::{AcqRel, Acquire, Relaxed},
};

/// First value the packed hint cannot represent; the hint saturates here and
/// the true value moves under the slow-path lock.
pub(crate) const FAST_CAP: Value = (1 << 62) - 1;

/// Number of flag bits below the hint.
const SHIFT: u32 = 2;

const WAITERS_BIT: u64 = 0b01;
const POISON_BIT: u64 = 0b10;
const FLAG_MASK: u64 = WAITERS_BIT | POISON_BIT;

/// Outcome of a lock-free increment attempt.
pub(crate) enum FastIncrement {
    /// The increment was applied; no waiters existed, nothing to wake.
    Done,
    /// The addition would overflow [`Value`]; the counter is unchanged. Only
    /// returned while the hint is exact, so the reported value is exact too.
    Overflow(CounterOverflowError),
    /// Waiters are registered, the word is saturated, or the result would
    /// saturate: the caller must take the slow path.
    Contended,
}

/// Outcome of a lock-free `advance_to` attempt.
pub(crate) enum FastAdvance {
    /// The value was raised to the target; no waiters existed.
    Raised,
    /// The target is already satisfied; `advance_to` is a no-op.
    NoOp,
    /// The caller must take the slow path.
    Contended,
}

/// What one poll of the word tells a waiter spinning before it suspends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Poll {
    /// The hint reaches the level: the wait is over.
    Satisfied,
    /// The level is unsatisfied and the counter is poisoned.
    Poisoned,
    /// Neither yet.
    Pending,
}

/// The packed `(value_hint, has_waiters)` word. See the module docs for the
/// protocol.
#[derive(Debug)]
pub(crate) struct FastWord {
    packed: AtomicU64,
}

impl FastWord {
    /// Word for a counter starting at `value` (hint saturates at
    /// [`FAST_CAP`]; the caller keeps the true value in its `wide` field).
    pub(crate) fn new(value: Value) -> Self {
        FastWord {
            packed: AtomicU64::new(value.min(FAST_CAP) << SHIFT),
        }
    }

    fn decode(word: u64, wide: Value) -> Value {
        let hint = word >> SHIFT;
        if hint >= FAST_CAP {
            wide
        } else {
            hint
        }
    }

    /// Current value hint (always `<=` the true value; exact below
    /// [`FAST_CAP`]). `Acquire`: pairs with the `AcqRel` RMWs of increments
    /// so data written before an increment is visible after a satisfied
    /// check.
    pub(crate) fn value_hint(&self) -> Value {
        self.packed.load(Acquire) >> SHIFT
    }

    /// Whether `check(level)` may return immediately without the lock.
    ///
    /// One `Acquire` load; the poison bit is deliberately not consulted —
    /// an already-satisfied level stays satisfied (monotonicity), poisoned
    /// or not, so the satisfied-check hot path costs no extra atomics.
    pub(crate) fn is_satisfied(&self, level: Value) -> bool {
        self.value_hint() >= level
    }

    /// One poll for a spinning waiter: a single `Acquire` load, read like
    /// [`is_satisfied`](Self::is_satisfied) (a satisfied level wins over
    /// the poison bit), so a `Satisfied` result carries the same
    /// happens-before edge from the increments as a fast check. Only reads:
    /// the waiter has not registered, so incrementers stay on their CAS.
    pub(crate) fn poll(&self, level: Value) -> Poll {
        let word = self.packed.load(Acquire);
        if word >> SHIFT >= level {
            Poll::Satisfied
        } else if word & POISON_BIT != 0 {
            Poll::Poisoned
        } else {
            Poll::Pending
        }
    }

    /// Whether the waiters bit is currently set. One `Acquire` load; the
    /// sharded counter's increment fast path reads it (after a `SeqCst`
    /// fence) to decide between eager and lazy publication.
    pub(crate) fn has_waiters(&self) -> bool {
        self.packed.load(Acquire) & WAITERS_BIT != 0
    }

    /// Whether the poison bit is set. One `Acquire` load; used by
    /// `poison_info` to skip the lock on the overwhelmingly common
    /// not-poisoned case.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.packed.load(Acquire) & POISON_BIT != 0
    }

    /// Sets the poison bit. Must be called with the slow-path lock held,
    /// after storing the `FailureInfo`; the bit is a hint that `poison_info`
    /// may need the lock, never a substitute for the locked state.
    pub(crate) fn set_poison(&self) {
        self.packed.fetch_or(POISON_BIT, AcqRel);
    }

    /// Lock-free increment attempt. Never touches the wait list: succeeds
    /// only while no waiter is registered and the result stays below
    /// [`FAST_CAP`].
    pub(crate) fn try_increment(&self, amount: Value) -> FastIncrement {
        let mut word = self.packed.load(Relaxed);
        loop {
            if word & WAITERS_BIT != 0 {
                return FastIncrement::Contended;
            }
            let value = word >> SHIFT;
            if value >= FAST_CAP {
                return FastIncrement::Contended;
            }
            let new = match value.checked_add(amount) {
                Some(new) => new,
                None => return FastIncrement::Overflow(CounterOverflowError { value, amount }),
            };
            if new >= FAST_CAP {
                // The hint->wide transition must happen under the lock.
                return FastIncrement::Contended;
            }
            match self.packed.compare_exchange_weak(
                word,
                (new << SHIFT) | (word & FLAG_MASK),
                AcqRel,
                Relaxed,
            ) {
                Ok(_) => return FastIncrement::Done,
                Err(current) => word = current,
            }
        }
    }

    /// Lock-free `advance_to` attempt, same preconditions as
    /// [`try_increment`](Self::try_increment).
    pub(crate) fn try_advance(&self, target: Value) -> FastAdvance {
        let mut word = self.packed.load(Relaxed);
        loop {
            if word & WAITERS_BIT != 0 {
                return FastAdvance::Contended;
            }
            let value = word >> SHIFT;
            if value >= FAST_CAP {
                return FastAdvance::Contended;
            }
            if target <= value {
                return FastAdvance::NoOp;
            }
            if target >= FAST_CAP {
                return FastAdvance::Contended;
            }
            match self.packed.compare_exchange_weak(
                word,
                (target << SHIFT) | (word & FLAG_MASK),
                AcqRel,
                Relaxed,
            ) {
                Ok(_) => return FastAdvance::Raised,
                Err(current) => word = current,
            }
        }
    }

    /// Sets the waiters bit and returns the *previous* packed word.
    ///
    /// Must be called with the slow-path lock held, before the caller decides
    /// to suspend. The returned word is the linearization pivot of the
    /// missed-wakeup argument: decode it (against `wide`) and re-test the
    /// level — any fast increment not visible in it is ordered after the
    /// `fetch_or` and therefore guaranteed to observe the waiters bit.
    pub(crate) fn register_waiter(&self, wide: Value) -> Value {
        Self::decode(self.packed.fetch_or(WAITERS_BIT, AcqRel), wide)
    }

    /// Clears the waiters bit. Call with the lock held, only when the
    /// unsatisfied wait list has just become empty (sweep, or the last timed
    /// waiter abandoning); draining nodes never need the bit — their wakeup
    /// is already signalled.
    pub(crate) fn clear_waiters(&self) {
        self.packed.fetch_and(!WAITERS_BIT, AcqRel);
    }

    /// True value while holding the slow-path lock.
    pub(crate) fn locked_value(&self, wide: Value) -> Value {
        Self::decode(self.packed.load(Acquire), wide)
    }

    /// Slow-path add, lock held. Returns the new true value.
    ///
    /// The add is applied with `fetch_update`, **never** a blind store:
    /// while the waiters bit is clear, fast-path CASes may still race this
    /// operation, and a plain store would erase their increments. Saturated
    /// words can't race (fast paths bail out at [`FAST_CAP`]), so reading
    /// `wide` inside the closure is stable under the lock.
    pub(crate) fn locked_add(
        &self,
        wide: &mut Value,
        amount: Value,
    ) -> Result<Value, CounterOverflowError> {
        let result = self.packed.fetch_update(AcqRel, Acquire, |word| {
            let value = Self::decode(word, *wide);
            value
                .checked_add(amount)
                .map(|new| (new.min(FAST_CAP) << SHIFT) | (word & FLAG_MASK))
        });
        match result {
            Ok(prev) => {
                // The closure's successful run checked this very addition.
                let new = Self::decode(prev, *wide) + amount;
                if new >= FAST_CAP {
                    *wide = new;
                }
                Ok(new)
            }
            Err(prev) => Err(CounterOverflowError {
                value: Self::decode(prev, *wide),
                amount,
            }),
        }
    }

    /// Slow-path `advance_to`, lock held. Returns the new value if raised,
    /// `None` when the target was already satisfied.
    pub(crate) fn locked_advance(&self, wide: &mut Value, target: Value) -> Option<Value> {
        let result = self.packed.fetch_update(AcqRel, Acquire, |word| {
            let value = Self::decode(word, *wide);
            (target > value).then(|| (target.min(FAST_CAP) << SHIFT) | (word & FLAG_MASK))
        });
        match result {
            Ok(_) => {
                if target >= FAST_CAP {
                    *wide = target;
                }
                Some(target)
            }
            Err(_) => None,
        }
    }

    /// Resets to `value`, clearing both flag bits (exclusive access; used by
    /// `Resettable`). The caller resets its `wide` field and poisoned state
    /// alongside.
    pub(crate) fn reset(&mut self, value: Value) {
        *self.packed.get_mut() = value.min(FAST_CAP) << SHIFT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn new_word_decodes_exactly_below_cap() {
        let w = FastWord::new(41);
        assert_eq!(w.value_hint(), 41);
        assert!(w.is_satisfied(41));
        assert!(!w.is_satisfied(42));
        assert!(!w.has_waiters());
    }

    #[test]
    fn new_word_saturates_at_cap() {
        let w = FastWord::new(u64::MAX);
        assert_eq!(w.value_hint(), FAST_CAP);
        // Saturated: exact value must come from the lock-held `wide` copy.
        assert_eq!(w.locked_value(u64::MAX), u64::MAX);
    }

    #[test]
    fn fast_increment_applies_and_accumulates() {
        let w = FastWord::new(0);
        assert!(matches!(w.try_increment(5), FastIncrement::Done));
        assert!(matches!(w.try_increment(0), FastIncrement::Done));
        assert!(matches!(w.try_increment(7), FastIncrement::Done));
        assert_eq!(w.value_hint(), 12);
    }

    #[test]
    fn fast_increment_bails_when_waiters_registered() {
        let w = FastWord::new(3);
        w.register_waiter(0);
        assert!(matches!(w.try_increment(1), FastIncrement::Contended));
        assert_eq!(w.value_hint(), 3, "contended attempt must not mutate");
        w.clear_waiters();
        assert!(matches!(w.try_increment(1), FastIncrement::Done));
    }

    #[test]
    fn fast_increment_bails_near_cap_and_reports_overflow() {
        let w = FastWord::new(10);
        assert!(matches!(
            w.try_increment(FAST_CAP),
            FastIncrement::Contended
        ));
        match w.try_increment(u64::MAX) {
            FastIncrement::Overflow(e) => {
                assert_eq!(e.value, 10);
                assert_eq!(e.amount, u64::MAX);
            }
            _ => panic!("expected overflow"),
        }
    }

    #[test]
    fn register_waiter_returns_pre_rmw_value() {
        let w = FastWord::new(9);
        assert_eq!(w.register_waiter(0), 9);
        assert!(w.has_waiters());
        // Idempotent; still reports the value.
        assert_eq!(w.register_waiter(0), 9);
    }

    #[test]
    fn locked_add_preserves_waiters_bit() {
        let w = FastWord::new(0);
        let mut wide = 0;
        w.register_waiter(wide);
        assert_eq!(w.locked_add(&mut wide, 4), Ok(4));
        assert!(w.has_waiters());
        assert_eq!(w.value_hint(), 4);
    }

    #[test]
    fn locked_add_crosses_into_wide_and_back_out_never() {
        let w = FastWord::new(0);
        let mut wide = 0;
        assert_eq!(w.locked_add(&mut wide, u64::MAX - 1), Ok(u64::MAX - 1));
        assert_eq!(w.value_hint(), FAST_CAP, "hint saturated");
        assert_eq!(wide, u64::MAX - 1);
        assert_eq!(w.locked_value(wide), u64::MAX - 1);
        // Exact arithmetic continues in the wide regime.
        assert_eq!(w.locked_add(&mut wide, 1), Ok(u64::MAX));
        let err = w.locked_add(&mut wide, 1).unwrap_err();
        assert_eq!(err.value, u64::MAX);
        assert_eq!(err.amount, 1);
        assert_eq!(w.locked_value(wide), u64::MAX);
    }

    #[test]
    fn locked_advance_raises_only_forward() {
        let w = FastWord::new(5);
        let mut wide = 0;
        assert_eq!(w.locked_advance(&mut wide, 3), None);
        assert_eq!(w.locked_advance(&mut wide, 8), Some(8));
        assert_eq!(w.value_hint(), 8);
        assert_eq!(w.locked_advance(&mut wide, u64::MAX), Some(u64::MAX));
        assert_eq!(w.locked_value(wide), u64::MAX);
    }

    #[test]
    fn fast_advance_semantics() {
        let w = FastWord::new(5);
        assert!(matches!(w.try_advance(3), FastAdvance::NoOp));
        assert!(matches!(w.try_advance(9), FastAdvance::Raised));
        assert_eq!(w.value_hint(), 9);
        assert!(matches!(w.try_advance(u64::MAX), FastAdvance::Contended));
        w.register_waiter(0);
        assert!(matches!(w.try_advance(100), FastAdvance::Contended));
    }

    #[test]
    fn poll_prefers_satisfied_over_poison() {
        let w = FastWord::new(4);
        assert_eq!(w.poll(5), Poll::Pending);
        w.set_poison();
        assert_eq!(w.poll(5), Poll::Poisoned);
        assert_eq!(
            w.poll(4),
            Poll::Satisfied,
            "a satisfied level stays satisfied"
        );
        w.register_waiter(0);
        assert!(matches!(w.try_advance(9), FastAdvance::Contended));
        let mut wide = 0;
        w.locked_advance(&mut wide, 5);
        assert_eq!(
            w.poll(5),
            Poll::Satisfied,
            "flag bits do not hide the value"
        );
    }

    #[test]
    fn reset_clears_value_and_flags() {
        let mut w = FastWord::new(0);
        w.try_increment(9);
        w.register_waiter(0);
        w.set_poison();
        w.reset(2);
        assert_eq!(w.value_hint(), 2);
        assert!(!w.has_waiters());
        assert!(!w.is_poisoned());
    }

    #[test]
    fn poison_bit_survives_fast_increments() {
        let w = FastWord::new(3);
        w.set_poison();
        assert!(w.is_poisoned());
        // Fast increments still run (no waiters to wake) and preserve P.
        assert!(matches!(w.try_increment(2), FastIncrement::Done));
        assert_eq!(w.value_hint(), 5);
        assert!(w.is_poisoned());
        assert!(matches!(w.try_advance(8), FastAdvance::Raised));
        assert!(w.is_poisoned());
        assert!(w.is_satisfied(8), "satisfied check ignores the poison bit");
    }

    #[test]
    fn poison_bit_survives_locked_paths() {
        let w = FastWord::new(0);
        let mut wide = 0;
        w.set_poison();
        w.locked_add(&mut wide, 4).unwrap();
        assert!(w.is_poisoned());
        assert_eq!(w.value_hint(), 4);
        w.locked_advance(&mut wide, 9).unwrap();
        assert!(w.is_poisoned());
        // clear_waiters must not clear the poison bit.
        w.register_waiter(wide);
        w.clear_waiters();
        assert!(w.is_poisoned());
    }

    #[test]
    fn waiters_and_poison_bits_are_independent() {
        let w = FastWord::new(1);
        w.register_waiter(0);
        assert!(w.has_waiters());
        assert!(!w.is_poisoned());
        w.set_poison();
        assert!(w.has_waiters());
        assert!(w.is_poisoned());
        // Waiters bit still forces increments into the slow path.
        assert!(matches!(w.try_increment(1), FastIncrement::Contended));
        w.clear_waiters();
        assert!(!w.has_waiters());
        assert!(w.is_poisoned());
        assert_eq!(w.value_hint(), 1, "flag churn must not disturb the hint");
    }

    /// Fast CASes racing a locked `fetch_update` add must never lose an
    /// increment — the reason `locked_add` is an RMW and not a store.
    #[test]
    fn concurrent_fast_and_locked_adds_preserve_sum() {
        let w = Arc::new(FastWord::new(0));
        let fast_threads = 4;
        let per_thread = 10_000u64;
        let mut handles = Vec::new();
        for _ in 0..fast_threads {
            let w = Arc::clone(&w);
            handles.push(thread::spawn(move || {
                for _ in 0..per_thread {
                    assert!(matches!(w.try_increment(1), FastIncrement::Done));
                }
            }));
        }
        // "Slow path" adds interleave; uncontended wide stays at 0.
        let mut wide = 0;
        for _ in 0..per_thread {
            w.locked_add(&mut wide, 1).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.value_hint(), (fast_threads as u64 + 1) * per_thread);
    }
}
