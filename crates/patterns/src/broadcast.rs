//! Single-writer multiple-reader broadcast (the paper's Section 5.3).
//!
//! One writer produces a sequence of items into an array; any number of
//! readers each independently consume the **entire** sequence (reading does
//! not remove items). A single counter synchronizes everyone: the writer's
//! increments broadcast availability, and each reader checks the prefix it
//! needs. Writer and readers may each choose their own blocking granularity.
//!
//! The writer and each reader synchronize through their own
//! [`Cursor`](mc_counter::Cursor) on the counter: a reader trailing the
//! writer skips every check the value it last observed already satisfies,
//! and neither side pays a shared statistics update per item.

use mc_counter::{
    CheckError, Counter, CounterDiagnostics, Cursor, FailureInfo, MonotonicCounter, SortedList,
    Value,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A fixed-capacity single-writer multiple-reader broadcast buffer.
///
/// # Example
///
/// ```
/// use mc_patterns::Broadcast;
/// use std::sync::Arc;
///
/// let b = Arc::new(Broadcast::new(100));
/// std::thread::scope(|s| {
///     let bw = Arc::clone(&b);
///     s.spawn(move || {
///         let mut w = bw.writer();
///         for i in 0..100 {
///             w.push(i * i);
///         }
///     });
///     for _ in 0..3 {
///         let br = Arc::clone(&b);
///         s.spawn(move || {
///             let mut sum = 0u64;
///             for item in br.reader() {
///                 sum += item;
///             }
///             assert_eq!(sum, (0..100).map(|i| i * i).sum());
///         });
///     }
/// });
/// ```
pub struct Broadcast<T> {
    slots: Box<[OnceLock<T>]>,
    count: Arc<Counter>,
    writer_claimed: AtomicBool,
    writer_attached: AtomicBool,
}

impl<T> Broadcast<T> {
    /// Creates a buffer for a sequence of exactly `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Broadcast {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            count: Arc::new(Counter::default()),
            writer_claimed: AtomicBool::new(false),
            writer_attached: AtomicBool::new(false),
        }
    }

    /// The length of the item sequence.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The availability counter, for registering the broadcast with a
    /// [`mc_counter::Supervisor`] (or a supervision tree): its value is the
    /// published-item count, and poisoning it fails the broadcast.
    pub fn counter(&self) -> &Arc<Counter> {
        &self.count
    }

    /// Claims the writer role with per-item synchronization (the pattern's
    /// simple form: one increment per item).
    ///
    /// # Panics
    ///
    /// Panics if a writer has already been claimed — the pattern is
    /// *single*-writer by definition.
    pub fn writer(&self) -> BroadcastWriter<'_, T> {
        self.writer_with_block(1)
    }

    /// Claims the writer role with blocked synchronization: availability is
    /// broadcast every `block` items (plus a final partial block), as in the
    /// paper's tuned variant.
    ///
    /// # Panics
    ///
    /// Panics if a writer was already claimed or `block == 0`.
    pub fn writer_with_block(&self, block: usize) -> BroadcastWriter<'_, T> {
        assert!(block > 0, "block size must be positive");
        assert!(
            // lint:allow(raw-sync): one-shot writer-claim flag; carries no data
            !self.writer_claimed.swap(true, Ordering::SeqCst),
            "broadcast already has a writer"
        );
        self.attach(block, false)
    }

    /// Marks the writer live and builds it. Both claims swap the liveness
    /// flag, so of a `writer` and a `resume_writer` racing each other,
    /// exactly one wins. A restartable writer starts at the checkpoint,
    /// read after the claim is won.
    fn attach(&self, block: usize, restartable: bool) -> BroadcastWriter<'_, T> {
        assert!(
            // lint:allow(raw-sync): liveness flag; acquires the last writer's Release
            !self.writer_attached.swap(true, Ordering::SeqCst),
            "broadcast already has a live writer"
        );
        BroadcastWriter {
            buffer: self,
            cursor: self.count.cursor(),
            next: if restartable { self.published() } else { 0 },
            unflushed: 0,
            block,
            restartable,
        }
    }

    /// Re-claims the writer role after a previous writer died (or claims it
    /// for the first time), resuming at the published-item checkpoint: the
    /// replacement's first [`push`](BroadcastWriter::push) lands on the
    /// first slot no writer ever published. The returned writer is
    /// **restartable**: a panic unwind flushes the exact written prefix but
    /// does *not* poison the broadcast, on the premise that a supervisor
    /// will attach another replacement (escalation poisons through
    /// [`counter`](Self::counter) when it gives up).
    ///
    /// Works because a dying writer's drop publishes exactly its written
    /// prefix — `published()` *is* the durable checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if a writer is currently live — the pattern stays
    /// single-writer; resume is for succession, not concurrency.
    pub fn resume_writer(&self) -> BroadcastWriter<'_, T> {
        self.resume_writer_with_block(1)
    }

    /// [`resume_writer`](Self::resume_writer) with blocked synchronization
    /// (availability broadcast every `block` items).
    ///
    /// # Panics
    ///
    /// Panics if a writer is currently live or `block == 0`.
    pub fn resume_writer_with_block(&self, block: usize) -> BroadcastWriter<'_, T> {
        assert!(block > 0, "block size must be positive");
        let writer = self.attach(block, true);
        self.writer_claimed.store(true, Ordering::Relaxed);
        writer
    }

    /// A reader over the whole sequence with per-item synchronization.
    /// Readers are independent: each one sees every item, in order.
    pub fn reader(&self) -> BroadcastReader<'_, T> {
        self.reader_with_block(1)
    }

    /// A reader that synchronizes once per `block` items. Different readers
    /// (and the writer) may use different granularities.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn reader_with_block(&self, block: usize) -> BroadcastReader<'_, T> {
        assert!(block > 0, "block size must be positive");
        BroadcastReader {
            buffer: self,
            cursor: self.count.cursor(),
            next: 0,
            block,
        }
    }

    /// Suspends until item `index` is available and returns it.
    ///
    /// # Panics
    ///
    /// Panics with the propagated cause if the broadcast fails (its writer
    /// panicked or [`poison`](Self::poison) was called) before the item was
    /// published. Use [`try_get`](Self::try_get) to handle failure as a
    /// value.
    pub fn get(&self, index: usize) -> &T {
        assert!(index < self.slots.len(), "index {index} out of capacity");
        self.count.check(index as Value + 1);
        self.slots[index]
            .get()
            .expect("counter satisfied but slot empty: writer protocol violated")
    }

    /// Like [`get`](Self::get), but returns [`CheckError::Poisoned`] instead
    /// of panicking when the broadcast fails before the item is published.
    pub fn try_get(&self, index: usize) -> Result<&T, CheckError> {
        assert!(index < self.slots.len(), "index {index} out of capacity");
        self.count.wait(index as Value + 1)?;
        Ok(self.slots[index]
            .get()
            .expect("counter satisfied but slot empty: writer protocol violated"))
    }

    /// Marks the broadcast as failed: every reader blocked on an unpublished
    /// item is released (panicking via `check` or receiving
    /// [`CheckError::Poisoned`] via [`try_get`](Self::try_get)), and items
    /// already published stay readable. Called automatically when the writer
    /// is dropped during a panic unwind.
    pub fn poison(&self, info: FailureInfo) {
        self.count.poison(info);
    }

    /// The failure cause, if the broadcast has failed.
    pub fn failure(&self) -> Option<FailureInfo> {
        self.count.poison_info()
    }

    /// Items published so far (diagnostics/tests only).
    pub fn published(&self) -> usize {
        self.count.debug_value() as usize
    }

    /// Creates a buffer whose entire sequence is already published — the
    /// degenerate "writer finished before any reader started" case, used to
    /// feed pipelines.
    pub fn from_vec(items: Vec<T>) -> Self {
        let b = Broadcast::new(items.len());
        let mut w = b.writer();
        for item in items {
            w.push(item);
        }
        drop(w);
        b
    }

    /// Consumes the buffer and returns the published sequence.
    ///
    /// # Panics
    ///
    /// Panics if the writer did not publish every slot.
    pub fn into_items(self) -> Vec<T> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("into_items called before the sequence was fully written")
            })
            .collect()
    }
}

/// The single writer of a [`Broadcast`]; dropping it flushes any partial
/// block so readers always terminate once the writer is done.
pub struct BroadcastWriter<'a, T> {
    buffer: &'a Broadcast<T>,
    cursor: Cursor<'a, SortedList>,
    next: usize,
    unflushed: usize,
    block: usize,
    /// A restartable writer ([`Broadcast::resume_writer`]) does not poison
    /// on a panic unwind: its supervisor owns the failure.
    restartable: bool,
}

impl<T> BroadcastWriter<'_, T> {
    /// Appends the next item of the sequence, broadcasting availability at
    /// block boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is already full.
    pub fn push(&mut self, value: T) {
        assert!(
            self.next < self.buffer.capacity(),
            "broadcast capacity exceeded"
        );
        if self.buffer.slots[self.next].set(value).is_err() {
            unreachable!("single writer wrote a slot twice");
        }
        self.next += 1;
        self.unflushed += 1;
        if self.unflushed == self.block {
            self.cursor.increment(self.block as Value);
            self.unflushed = 0;
        }
    }

    /// Items written so far.
    pub fn written(&self) -> usize {
        self.next
    }

    /// Flushes any partial block immediately (also happens on drop).
    pub fn flush(&mut self) {
        if self.unflushed > 0 {
            self.cursor.increment(self.unflushed as Value);
            self.unflushed = 0;
        }
    }
}

impl<T> Drop for BroadcastWriter<'_, T> {
    fn drop(&mut self) {
        // The paper's final `dataCount->Increment(n % blockSize)`. Items
        // already pushed are fully constructed, so the exact written prefix
        // is published even when the writer is unwinding.
        self.flush();
        // lint:allow(raw-sync): Release, so the next writer's claim sees this flush
        self.buffer.writer_attached.store(false, Ordering::Release);
        if self.restartable {
            // A successor may resume at `published()`; whether this death
            // becomes a poison is the supervisor's call, not ours.
            return;
        }
        if std::thread::panicking() && self.next < self.buffer.capacity() {
            // The writer died mid-sequence: the remaining items will never
            // be published. Poison so readers of the unpublished suffix
            // fail with the cause instead of hanging; the flushed prefix
            // stays readable (satisfied levels ignore poison).
            self.buffer.poison(
                FailureInfo::new(format!(
                    "broadcast writer panicked after publishing {} of {} items",
                    self.next,
                    self.buffer.capacity()
                ))
                .with_level(self.next as Value),
            );
        }
    }
}

/// An independent reader of a [`Broadcast`]; iterates the entire sequence in
/// order, suspending (once per block) for unavailable items.
pub struct BroadcastReader<'a, T> {
    buffer: &'a Broadcast<T>,
    cursor: Cursor<'a, SortedList>,
    next: usize,
    block: usize,
}

impl<'a, T> BroadcastReader<'a, T> {
    /// Items consumed so far.
    pub fn consumed(&self) -> usize {
        self.next
    }

    /// Like [`Iterator::next`], but when the broadcast fails before the next
    /// item is published, returns [`CheckError::Poisoned`] instead of
    /// panicking — so a reader can consume the exact published prefix of a
    /// failed sequence.
    ///
    /// Waits item-by-item regardless of the reader's block granularity; do
    /// not interleave with [`Iterator::next`], whose block-boundary
    /// synchronization assumes it performed every preceding wait itself.
    pub fn try_next(&mut self) -> Result<Option<&'a T>, CheckError> {
        let n = self.buffer.capacity();
        if self.next >= n {
            return Ok(None);
        }
        // Wait item-by-item rather than block-by-block: a block-granular
        // wait could fail on poison even though the next few items are
        // already published.
        self.cursor.wait(self.next as Value + 1)?;
        let item = self.buffer.slots[self.next]
            .get()
            .expect("counter satisfied but slot empty: writer protocol violated");
        self.next += 1;
        Ok(Some(item))
    }
}

impl<'a, T> Iterator for BroadcastReader<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let n = self.buffer.capacity();
        if self.next >= n {
            return None;
        }
        if self.next.is_multiple_of(self.block) {
            // Wait for the whole next block (or the final partial block).
            let level = (self.next + self.block).min(n) as Value;
            self.cursor.check(level);
        }
        let item = self.buffer.slots[self.next]
            .get()
            .expect("counter satisfied but slot empty: writer protocol violated");
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.buffer.capacity() - self.next;
        (left, Some(left))
    }
}

impl<T> ExactSizeIterator for BroadcastReader<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn writer_then_reader_sequentially() {
        let b = Broadcast::new(5);
        let mut w = b.writer();
        for i in 0..5 {
            w.push(i);
        }
        drop(w);
        let items: Vec<_> = b.reader().copied().collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn second_writer_claim_panics() {
        let b: Broadcast<u32> = Broadcast::new(1);
        let _w = b.writer();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.writer())).is_err());
    }

    #[test]
    fn capacity_overflow_panics() {
        let b = Broadcast::new(1);
        let mut w = b.writer();
        w.push(1);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.push(2))).is_err());
    }

    #[test]
    fn zero_block_rejected() {
        let b: Broadcast<u32> = Broadcast::new(1);
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.reader_with_block(0)))
                .is_err()
        );
    }

    #[test]
    fn drop_flushes_partial_block() {
        let b = Broadcast::new(5);
        {
            let mut w = b.writer_with_block(4);
            for i in 0..5 {
                w.push(i);
            }
            // 4 flushed at the block boundary, 1 pending.
            assert_eq!(b.published(), 4);
        }
        assert_eq!(b.published(), 5, "drop must flush the final partial block");
    }

    #[test]
    fn concurrent_writer_and_readers_see_everything_in_order() {
        let n = 1000;
        let readers = 4;
        let b = Arc::new(Broadcast::new(n));
        thread::scope(|s| {
            let bw = Arc::clone(&b);
            s.spawn(move || {
                let mut w = bw.writer();
                for i in 0..n {
                    w.push(i as u64 * 3);
                }
            });
            for _ in 0..readers {
                let br = Arc::clone(&b);
                s.spawn(move || {
                    let got: Vec<_> = br.reader().copied().collect();
                    let want: Vec<_> = (0..n as u64).map(|i| i * 3).collect();
                    assert_eq!(got, want);
                });
            }
        });
    }

    #[test]
    fn mixed_block_granularities_agree() {
        // The paper: "There is no requirement that blockSize be the same in
        // all threads."
        let n = 997; // deliberately not a multiple of any block size
        let b = Arc::new(Broadcast::new(n));
        thread::scope(|s| {
            let bw = Arc::clone(&b);
            s.spawn(move || {
                let mut w = bw.writer_with_block(64);
                for i in 0..n {
                    w.push(i);
                }
            });
            for block in [1usize, 7, 32, 1024] {
                let br = Arc::clone(&b);
                s.spawn(move || {
                    let got: Vec<_> = br.reader_with_block(block).copied().collect();
                    assert_eq!(got, (0..n).collect::<Vec<_>>(), "block {block}");
                });
            }
        });
    }

    #[test]
    fn get_waits_for_specific_item() {
        let b = Arc::new(Broadcast::new(3));
        let b2 = Arc::clone(&b);
        let h = thread::spawn(move || *b2.get(2));
        thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished());
        let mut w = b.writer();
        w.push(10);
        w.push(20);
        w.push(30);
        drop(w);
        assert_eq!(h.join().unwrap(), 30);
    }

    #[test]
    fn reader_size_hint_is_exact() {
        let b = Broadcast::new(4);
        let mut w = b.writer();
        for i in 0..4 {
            w.push(i);
        }
        drop(w);
        let mut r = b.reader();
        assert_eq!(r.len(), 4);
        r.next();
        assert_eq!(r.len(), 3);
        assert_eq!(r.consumed(), 1);
    }

    #[test]
    fn empty_broadcast() {
        let b: Broadcast<u32> = Broadcast::new(0);
        assert_eq!(b.reader().count(), 0);
        let w = b.writer();
        drop(w);
    }

    #[test]
    fn panicking_writer_poisons_with_published_prefix_intact() {
        let b = Broadcast::new(5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = b.writer_with_block(2);
            w.push(10);
            w.push(20);
            w.push(30); // unflushed: one item past the block boundary
            panic!("source dried up");
        }));
        assert!(result.is_err());
        let info = b.failure().expect("failed broadcast must be poisoned");
        assert!(info.message().contains("3 of 5"), "got: {}", info.message());
        // The exact written prefix — including the partial block — is
        // published and readable.
        assert_eq!(b.published(), 3);
        assert_eq!(b.try_get(2), Ok(&30));
        // The unpublished suffix fails with the cause instead of hanging.
        assert!(matches!(b.try_get(3), Err(CheckError::Poisoned(_))));
    }

    #[test]
    fn blocked_reader_is_released_by_writer_panic() {
        let b = Arc::new(Broadcast::new(3));
        let b2 = Arc::clone(&b);
        let reader = thread::spawn(move || b2.try_get(2).copied());
        let b3 = Arc::clone(&b);
        let writer = thread::spawn(move || {
            let mut w = b3.writer();
            w.push(1);
            panic!("writer died");
        });
        assert!(writer.join().is_err());
        assert!(matches!(
            reader.join().unwrap(),
            Err(CheckError::Poisoned(_))
        ));
    }

    #[test]
    fn try_next_consumes_the_exact_prefix_of_a_failed_sequence() {
        let b = Broadcast::new(4);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = b.writer();
            w.push(7);
            w.push(8);
            panic!("interrupted");
        }));
        let mut r = b.reader();
        let mut prefix = Vec::new();
        loop {
            match r.try_next() {
                Ok(Some(&v)) => prefix.push(v),
                Ok(None) => panic!("sequence cannot complete"),
                Err(CheckError::Poisoned(info)) => {
                    assert!(info.message().contains("2 of 4"));
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(prefix, vec![7, 8]);
    }

    #[test]
    fn completed_writer_panicking_later_does_not_poison() {
        let b = Broadcast::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = b.writer();
            w.push(1);
            w.push(2);
            panic!("panic after a complete sequence");
        }));
        assert!(result.is_err());
        assert!(
            b.failure().is_none(),
            "a fully published sequence owes readers nothing"
        );
        assert_eq!(b.reader().count(), 2);
    }

    #[test]
    fn resume_writer_continues_at_the_published_checkpoint() {
        let b = Broadcast::new(6);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = b.resume_writer_with_block(2);
            w.push(0);
            w.push(10);
            w.push(20); // unflushed: published by the unwind flush
            panic!("first writer died");
        }));
        assert!(result.is_err());
        assert!(
            b.failure().is_none(),
            "a restartable writer's death must not poison — its supervisor decides"
        );
        assert_eq!(b.published(), 3, "unwind flushed the exact written prefix");
        // The successor resumes exactly at the checkpoint.
        let mut w = b.resume_writer();
        assert_eq!(w.written(), 3);
        for v in [30, 40, 50] {
            w.push(v);
        }
        drop(w);
        let items: Vec<_> = b.reader().copied().collect();
        assert_eq!(items, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn resume_writer_rejects_a_live_writer() {
        let b: Broadcast<u32> = Broadcast::new(2);
        let _w = b.writer();
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.resume_writer())).is_err(),
            "resume is succession, not concurrency"
        );
    }

    #[test]
    fn racing_writer_and_resume_writer_claims_leave_one_writer() {
        // Released together through a barrier, `writer()` and
        // `resume_writer()` each hold their claim until both have tried,
        // so a round with two winners would have two live writers.
        const ROUNDS: usize = 20_000;
        let rounds: Vec<Broadcast<u32>> = (0..ROUNDS).map(|_| Broadcast::new(0)).collect();
        let barrier = std::sync::Barrier::new(2);
        let claims = |resume: bool| {
            let (rounds, barrier) = (&rounds, &barrier);
            move || -> Vec<bool> {
                rounds
                    .iter()
                    .map(|b| {
                        barrier.wait();
                        let claim = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            if resume {
                                b.resume_writer()
                            } else {
                                b.writer()
                            }
                        }));
                        barrier.wait();
                        claim.is_ok()
                    })
                    .collect()
            }
        };
        let (fresh, resumed) = thread::scope(|s| {
            let fresh = s.spawn(claims(false));
            let resumed = s.spawn(claims(true));
            (fresh.join().unwrap(), resumed.join().unwrap())
        });
        for (round, (f, r)) in fresh.iter().zip(&resumed).enumerate() {
            assert!(
                !(*f && *r),
                "round {round}: writer() and resume_writer() both won"
            );
        }
    }

    #[test]
    fn block_one_round_counts_one_check_and_one_increment_per_item() {
        let n = 1_000;
        let b = Broadcast::new(n);
        thread::scope(|s| {
            s.spawn(|| {
                let mut w = b.writer();
                for i in 0..n {
                    w.push(i);
                }
            });
            s.spawn(|| assert_eq!(b.reader().count(), n));
        });
        let stats = b.counter().stats();
        assert_eq!(
            (stats.checks, stats.increments),
            (n as u64, n as u64),
            "{stats}"
        );
    }

    #[test]
    fn writer_role_can_pass_through_a_clean_drop() {
        // A restartable writer dropped without panicking also releases the
        // role (e.g. a stage that stops early once its tree escalates).
        let b = Broadcast::new(3);
        {
            let mut w = b.resume_writer();
            w.push(1);
        }
        let mut w = b.resume_writer();
        assert_eq!(w.written(), 1);
        w.push(2);
        w.push(3);
        drop(w);
        assert_eq!(b.reader().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn counter_accessor_exposes_the_availability_counter() {
        let b: Broadcast<u32> = Broadcast::new(2);
        let c = Arc::clone(b.counter());
        let mut w = b.writer();
        w.push(7);
        w.flush();
        assert_eq!(c.debug_value(), 1, "counter value is the published count");
        // Poisoning through the counter fails the broadcast (how a
        // supervision tree escalation releases blocked readers).
        c.poison(FailureInfo::new("tree escalated"));
        assert!(b.failure().is_some());
    }

    #[test]
    fn explicit_poison_releases_get() {
        let b: Arc<Broadcast<u32>> = Arc::new(Broadcast::new(1));
        let b2 = Arc::clone(&b);
        let h = thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b2.get(0)));
            r.is_err()
        });
        thread::sleep(Duration::from_millis(20));
        b.poison(mc_counter::FailureInfo::new("upstream cancelled"));
        assert!(h.join().unwrap(), "blocked get must panic with the cause");
    }
}
