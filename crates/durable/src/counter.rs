//! [`DurableCounter`]: a crash-durable wrapper over any
//! [`MonotonicCounter`], logging its value to a two-slot CRC32-framed log
//! and its poison cause to a file of its own, with group-commit batching,
//! bounded I/O retry, and degraded-mode self-healing.
//!
//! # Group commit, guarded by monotonic counters
//!
//! The flusher is a dedicated thread; writers never touch the file. The
//! coordination is the paper's own primitive, dogfooded:
//!
//! * `rounds` — writers bump it (at most once per flush round, via a dirty
//!   flag) to signal work; the flusher `wait`s on it for the next round.
//! * `durable` — advanced by the flusher to the last acknowledged-durable
//!   value; a strict-mode writer `wait`s on it for its target value, so one
//!   fsync acknowledges every increment that enqueued before it (group
//!   commit). Strict writers never touch the inner counter: the flusher
//!   applies what it logged, advancing the inner counter to each committed
//!   value before `durable`, so a woken writer finds its value already
//!   applied and, while healthy, memory never outruns the log.
//! * `poisons_synced` — reaches 1 when the counter's one poison cause is
//!   durable, so `poison` returns only after its cause is durable in
//!   **both** modes.
//! * `enqueues` — every strict enqueue bumps it by one; the flusher reads
//!   it to count the writers a round covers and, with one timed check,
//!   holds the next round open until they have all enqueued again.
//!
//! Two closed-loop writers otherwise fall out of phase: one starts a
//! round alone and the other, arriving during that fsync, waits for it and
//! then for its own. So a healthy strict round first *holds*: when the
//! previous round saw `siblings ≥ 2` writers active (those it covered plus
//! those that enqueued during its fsync, counted before its commit
//! released anyone) and at least one enqueue is not yet covered, the
//! flusher calls `enqueues.wait_timeout(covered + siblings, budget)`, where
//! `budget` is half a running estimate of one write+fsync. A lone writer
//! never holds (`siblings == 1`), a writer that leaves costs one timed-out
//! hold, and rounds opened by `sync`, `poison` or `Drop` (nothing
//! uncovered, a cause unlogged, or stopping) never hold. The counts are
//! estimates: a wrong one costs at most one `budget`, never correctness.
//!
//! The poison cause itself is a write-once slot: the first `poison` call
//! fills it, and every caller then poisons memory with that one cause, so
//! memory and the poison file agree and the file is written once.
//!
//! Monotonicity does the heavy lifting. The log's only durable fact is the
//! largest value written, so it is two fixed slots that rounds overwrite in
//! turn, each with one *absolute* value, and recovery takes the larger value
//! that verifies. In batched mode the flusher can read the inner counter's
//! value directly — any reading of a monotone value is a correct durable
//! point, which is why a batched increment costs only the in-memory
//! increment plus one atomic load.
//!
//! # Fault tolerance
//!
//! Three layers stand between an I/O error and a poisoned counter:
//!
//! 1. **Retry** — transient failures (`ENOSPC`, `EINTR`, `EWOULDBLOCK`,
//!    timeouts; see [`WalError::is_transient`]) are retried under
//!    [`RetryPolicy`] with jittered exponential backoff. Retries are
//!    counted in [`StatsSnapshot::io_retries`] and [`WalStats::retries`].
//!    Retrying a whole write+fsync is safe because a slot holds an absolute
//!    value and every attempt rewrites the same slot: a write torn by the
//!    failed attempt is overwritten, and the other slot keeps the last
//!    synced value throughout. The flusher moves to the other slot only
//!    after a sync succeeds.
//! 2. **Degraded mode** — with [`PoisonPolicy::Degrade`], exhausting the
//!    retry budget parks the log instead of poisoning: increments keep
//!    serving from the in-memory fast path, acknowledgements come from a
//!    *replay-budget*-bounded memory watermark, and
//!    [`health`](DurableCounter::health) reports
//!    [`HealthStatus::Degraded`]. Because a monotone counter's unsynced
//!    state collapses to one absolute value (plus the poison cause, while
//!    it is not yet logged), the replay buffer is O(1) regardless of how
//!    long the outage lasts.
//! 3. **Self-healing** — while degraded the flusher probes the directory
//!    every `resync_interval`: full [`recover_dir`], reopen through the
//!    factory, write the current value into the slot the failed round was
//!    writing, fsync, write the poison cause if it is not yet logged, and the
//!    counter returns to [`HealthStatus::Healthy`]. There is no backlog to
//!    replay: it collapses to that one value. Every fault site in this path
//!    is failpoint-instrumented, so chaos schedules can crash a counter
//!    *during* resync.
//!
//! Under the default [`PoisonPolicy::Propagate`], a post-retry failure
//! poisons the counter with the cause.

use crate::frame::{poison_frame, slot_frame};
use crate::recover::{recover_dir, write_durably, CounterRecovery, POISON_FILE, WAL_FILE};
use crate::retry::{with_retry, JitterRng};
use crate::wal::{
    wal_factory_from_env, FailpointWal, WalError, WalFactory, WalFile, SITE_WAL_OPEN,
};
use crate::RetryPolicy;
use mc_chaos::Failpoints;
use mc_counter::{
    CheckError, Counter, CounterDiagnostics, CounterOverflowError, FailureInfo, HealthStatus,
    MetricsSink, MonotonicCounter, ResumableCounter, StatsSnapshot, Value, WaitingLevel,
};
use mc_metrics::{Event, Histogram};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When a durable counter acknowledges an increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// `increment` returns only after the increment is fsync-durable. The
    /// flusher applies what it logged: it advances the in-memory value
    /// (what waiters observe) to each fsynced value before acknowledging
    /// it, so while healthy memory never outruns the log. Concurrent
    /// increments share one fsync (group commit).
    Strict,
    /// `increment` applies in memory and returns immediately; the flusher
    /// continuously coalesces the current value into the log. Increments
    /// since the last completed flush round can be lost to a crash (never
    /// reordered or inflated — recovery is still a verified monotone
    /// prefix). Poison events remain strict even in this mode.
    Batched,
}

/// What a [`DurableCounter`] does when its write-ahead log still fails
/// after the retry budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoisonPolicy {
    /// Poison the counter with the IO error as the cause: every blocked
    /// waiter wakes with [`CheckError::Poisoned`] and every later wait that
    /// would block fails the same way.
    #[default]
    Propagate,
    /// Degrade instead: the counter keeps serving from memory, reports
    /// `Degraded` health, and self-heals when the log recovers. Explicit
    /// `poison` calls still propagate exactly as under [`Propagate`]; the
    /// policy only reroutes the log's failures.
    ///
    /// [`Propagate`]: PoisonPolicy::Propagate
    Degrade,
}

/// Configuration for [`DurableCounter::open`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// When increments are acknowledged. Default: [`DurabilityMode::Strict`].
    pub mode: DurabilityMode,
    /// Retry policy for transient WAL I/O failures. Default:
    /// [`RetryPolicy::default`] (4 retries, 1ms..50ms backoff);
    /// [`RetryPolicy::none`] surfaces every error on first occurrence.
    pub retry: RetryPolicy,
    /// What a post-retry WAL failure does. [`PoisonPolicy::Degrade`] enters
    /// degraded mode (see the module docs); [`PoisonPolicy::Propagate`], the
    /// default, poisons the counter with the cause.
    pub poison_policy: PoisonPolicy,
    /// The failpoint registry instrumenting this counter's I/O. `None`
    /// (default) uses the process-global registry armed from
    /// `MC_CHAOS_FAILPOINTS`; tests pass a private registry so schedules
    /// don't leak between counters.
    pub failpoints: Option<Arc<Failpoints>>,
    /// Degraded mode: how far (in counter value) memory acknowledgements
    /// may run ahead of the last truly-durable value before strict writers
    /// block awaiting resync. Default: 4096.
    pub replay_budget: u64,
    /// Degraded mode: how often the flusher probes for recovery.
    /// Default: 50ms.
    pub resync_interval: Duration,
    /// Publish WAL metrics (`<prefix>.wal.*` events plus `fsync_ns` and
    /// `batch_records` histograms) to a registry. `None` (default) keeps
    /// the flusher free of any metrics work.
    pub metrics: Option<MetricsSink>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            mode: DurabilityMode::Strict,
            retry: RetryPolicy::default(),
            poison_policy: PoisonPolicy::Propagate,
            failpoints: None,
            replay_budget: 4096,
            resync_interval: Duration::from_millis(50),
            metrics: None,
        }
    }
}

/// Registry handles the flusher publishes to, plus the last [`WalStats`]
/// it already exported: the flusher bumps its [`Shared`] atomics at the
/// fault sites (inside retry loops, from static contexts) and this mirrors
/// them into the registry as deltas once per flush round, so the events
/// stay exact without threading registry handles through the WAL core.
struct DurableMetrics {
    fsyncs: Arc<Event>,
    records_logged: Arc<Event>,
    retries: Arc<Event>,
    degraded_entries: Arc<Event>,
    resyncs: Arc<Event>,
    holds: Arc<Event>,
    hold_timeouts: Arc<Event>,
    /// Latency of one write+fsync round (the group-commit critical path).
    fsync_ns: Arc<Histogram>,
    /// Records (a slot write, the poison file) in each round.
    batch_records: Arc<Histogram>,
    last: WalStats,
}

impl DurableMetrics {
    fn attach(sink: &MetricsSink) -> Self {
        DurableMetrics {
            fsyncs: sink.event("wal.fsyncs"),
            records_logged: sink.event("wal.records_logged"),
            retries: sink.event("wal.retries"),
            degraded_entries: sink.event("wal.degraded_entries"),
            resyncs: sink.event("wal.resyncs"),
            holds: sink.event("wal.holds"),
            hold_timeouts: sink.event("wal.hold_timeouts"),
            fsync_ns: sink.histogram("wal.fsync_ns"),
            batch_records: sink.histogram("wal.batch_records"),
            last: WalStats::default(),
        }
    }

    /// Publishes everything the [`Shared`] atomics gained since the last
    /// call.
    fn sync_from(&mut self, shared: &Shared) {
        let now = shared.wal_stats();
        self.fsyncs.add(now.fsyncs - self.last.fsyncs);
        self.records_logged
            .add(now.records_logged - self.last.records_logged);
        self.retries.add(now.retries - self.last.retries);
        self.degraded_entries
            .add(now.degraded_entries - self.last.degraded_entries);
        self.resyncs.add(now.resyncs - self.last.resyncs);
        self.holds.add(now.holds - self.last.holds);
        self.hold_timeouts
            .add(now.hold_timeouts - self.last.hold_timeouts);
        self.last = now;
    }
}

/// Durability-layer statistics (see [`DurableCounter::wal_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Completed fsync rounds.
    pub fsyncs: u64,
    /// Records written: slot writes, plus the poison file once.
    pub records_logged: u64,
    /// Always 0: the two-slot log takes no snapshots. Kept so that readers
    /// of earlier statistics still compile.
    pub snapshots: u64,
    /// Transient I/O errors absorbed by retry (also in
    /// [`StatsSnapshot::io_retries`]).
    pub retries: u64,
    /// Times the counter entered degraded mode.
    pub degraded_entries: u64,
    /// Successful resyncs (degraded → healthy transitions).
    pub resyncs: u64,
    /// Strict rounds the flusher held open for a sibling writer's enqueue
    /// (see the module docs).
    pub holds: u64,
    /// Holds whose budget ran out before every sibling had enqueued.
    pub hold_timeouts: u64,
}

struct Shared {
    mode: DurabilityMode,
    policy: PoisonPolicy,
    /// Strict mode: the requested durable value (sum of all enqueued
    /// increments / advance targets). The flusher logs up to this.
    enqueued: AtomicU64,
    /// Set by writers after enqueueing, cleared by the flusher before it
    /// reads the target: guarantees at most one `rounds` bump per flush
    /// round without a lock on the hot path.
    dirty: AtomicBool,
    /// Flush-round signal: writers bump, the flusher waits.
    rounds: Counter,
    /// Strict enqueues so far, bumped after each one's `enqueued` RMW: the
    /// flusher counts the writers a round covers with it and holds the
    /// next round on it.
    enqueues: Counter,
    /// The last *acknowledged*-durable value; strict writers wait on it.
    /// Healthy: equals the fsynced value. Degraded: may run up to
    /// `replay_budget` ahead of [`Self::disk_durable`].
    durable: Counter,
    /// The last truly-fsynced value — the crash-survivable watermark.
    /// Written by the flusher *before* it advances `durable`, so any value
    /// acknowledged through the disk path is already covered here.
    disk_durable: AtomicU64,
    /// The counter's one poison cause: filled by the first `poison` call,
    /// or at open with the restored cause.
    cause: OnceLock<FailureInfo>,
    /// Set once `cause` is durable in the poison file (by the flusher), or
    /// at open with a restored cause, so no later round writes it again.
    cause_logged: AtomicBool,
    /// Reaches 1 when `cause` is durable; `poison` waits on it. Degraded
    /// mode acknowledges the cause from memory before persistence.
    poisons_synced: Counter,
    /// The zero point of `degraded_since_ns`.
    epoch: Instant,
    /// Nanoseconds after `epoch` at which the counter entered degraded
    /// mode; 0 while healthy. Written only by the flusher, read by
    /// [`DurableCounter::health`].
    degraded_since_ns: AtomicU64,
    stop: AtomicBool,
    io_retries: AtomicU64,
    fsyncs: AtomicU64,
    records_logged: AtomicU64,
    degraded_entries: AtomicU64,
    resyncs: AtomicU64,
    holds: AtomicU64,
    hold_timeouts: AtomicU64,
}

impl Shared {
    fn wal_stats(&self) -> WalStats {
        WalStats {
            fsyncs: self.fsyncs.load(SeqCst),
            records_logged: self.records_logged.load(SeqCst),
            snapshots: 0,
            retries: self.io_retries.load(SeqCst),
            degraded_entries: self.degraded_entries.load(SeqCst),
            resyncs: self.resyncs.load(SeqCst),
            holds: self.holds.load(SeqCst),
            hold_timeouts: self.hold_timeouts.load(SeqCst),
        }
    }

    /// Signals the flusher that new work is enqueued, bumping `rounds` at
    /// most once per flush round. All operations are `SeqCst`: the flusher
    /// clears `dirty` *before* reading the target, so in the seq-cst total
    /// order every writer either lands before the read (covered by this
    /// round) or observes `dirty == false` and opens the next round.
    fn signal(&self) {
        if !self.dirty.load(SeqCst) && !self.dirty.swap(true, SeqCst) {
            self.rounds.increment(1);
        }
    }

    /// Adds `amount` to the strict-mode target, rejecting overflow.
    fn enqueue(&self, amount: Value) -> Result<Value, CounterOverflowError> {
        let mut cur = self.enqueued.load(SeqCst);
        loop {
            let Some(next) = cur.checked_add(amount) else {
                return Err(CounterOverflowError { value: cur, amount });
            };
            match self
                .enqueued
                .compare_exchange_weak(cur, next, SeqCst, SeqCst)
            {
                Ok(_) => {
                    self.enqueues.increment(1);
                    return Ok(next);
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Raises the strict-mode target to at least `target`; returns
    /// `target`, the value the caller waits for.
    fn enqueue_to(&self, target: Value) -> Value {
        self.enqueued.fetch_max(target, SeqCst);
        self.enqueues.increment(1);
        target
    }

    /// The value the flusher should make durable right now.
    fn flush_target(&self, inner: &dyn CounterDiagnostics) -> Value {
        match self.mode {
            DurabilityMode::Strict => self.enqueued.load(SeqCst),
            DurabilityMode::Batched => inner.debug_value(),
        }
    }

    /// The poison cause, while the log does not yet hold it.
    fn unlogged_cause(&self) -> Option<&FailureInfo> {
        self.cause.get().filter(|_| !self.cause_logged.load(SeqCst))
    }
}

/// A crash-durable wrapper around a [`MonotonicCounter`] implementation
/// `C`: its value is logged to a two-slot CRC32-framed log, and its poison
/// cause to a file, in the counter's directory before being acknowledged
/// (see [`DurabilityMode`]), and [`open`](Self::open) recovers value and
/// poison state after a crash. Transient I/O errors are retried, and with
/// [`PoisonPolicy::Degrade`] a persistent outage degrades (and later
/// self-heals) instead of poisoning — see the module docs.
///
/// Dropping the counter stops the flusher after a final drain: a clean
/// shutdown loses nothing, in either mode. A counter dropped while
/// degraded makes one last resync attempt on the way out.
pub struct DurableCounter<C: MonotonicCounter> {
    inner: Arc<C>,
    shared: Arc<Shared>,
    /// Taken and joined by `Drop`.
    flusher: Option<JoinHandle<()>>,
}

struct Flusher<C> {
    inner: Arc<C>,
    shared: Arc<Shared>,
    /// `Some` while healthy; `None` while degraded (the handle to a failed
    /// log is useless — resync reopens through the factory).
    wal: Option<Box<dyn WalFile>>,
    factory: Box<WalFactory>,
    fp: Arc<Failpoints>,
    retry: RetryPolicy,
    jitter: JitterRng,
    resync_interval: Duration,
    replay_budget: u64,
    dir: PathBuf,
    /// The last value written to the log (== the durable value once synced).
    logged_value: Value,
    /// The log slot the next round writes. The flusher moves to the other
    /// slot only after a sync succeeds, so the slot it is not writing always
    /// holds the last synced value: a retry, and the resync after a failed
    /// round, rewrite the same slot.
    slot: usize,
    /// The `enqueues` count the last `flush_once` read after clearing the
    /// dirty flag: every enqueue up to it is in that round's batch.
    covered: u64,
    /// Writers active during the last fsync round: the enqueues after the
    /// `covered` of the round before it, read before `commit` released
    /// anyone (a released writer re-enqueues at once and would count
    /// twice).
    siblings: u64,
    /// Running estimate of one write+fsync; holds wait half of it.
    fsync_estimate: Duration,
    /// `Some` when [`DurableOptions::metrics`] was set; see
    /// [`DurableMetrics`] for the publication protocol.
    metrics: Option<DurableMetrics>,
}

impl<C: MonotonicCounter + CounterDiagnostics> Flusher<C> {
    fn run(mut self) {
        let mut round: Value = 0;
        loop {
            let mut stopping = self.shared.stop.load(SeqCst);
            if !stopping {
                round += 1;
                if self.wal.is_some() {
                    let _ = self.shared.rounds.wait(round);
                } else if let Err(CheckError::Timeout(_)) =
                    self.shared.rounds.wait_timeout(round, self.resync_interval)
                {
                    // Resync tick, not a work signal: the round was not
                    // consumed.
                    round -= 1;
                }
                stopping = self.shared.stop.load(SeqCst);
            }

            if self.wal.is_none() {
                self.serve_from_memory();
                self.try_resync();
                self.publish_metrics();
                if stopping {
                    return;
                }
                continue;
            }

            if let Err(e) = self.flush_once() {
                if !self.enter_degraded(e) {
                    self.publish_metrics();
                    return; // poisoned under Propagate: the thread is done
                }
                self.serve_from_memory();
                self.publish_metrics();
                if stopping {
                    self.try_resync();
                    self.publish_metrics();
                    return;
                }
                continue;
            }
            self.publish_metrics();
            if stopping {
                return;
            }
            // Batched mode reads the inner value outside any writer-side
            // fence; re-run immediately if it moved during the flush so the
            // unsynced window stays one round wide.
            if self.shared.mode == DurabilityMode::Batched
                && self.inner.debug_value() > self.logged_value
            {
                self.shared.signal();
            }
        }
    }

    /// Mirrors the [`Shared`] stat atomics into the attached registry (a
    /// no-op without one). Called once per flusher round and on every exit
    /// path, so dropping the counter leaves the registry exact.
    fn publish_metrics(&mut self) {
        if let Some(m) = self.metrics.as_mut() {
            m.sync_from(&self.shared);
        }
    }

    /// Strict mode: applies `value`, which the flusher is about to
    /// acknowledge, to the inner counter, so a woken writer finds its value
    /// already applied. Batched writers apply their own increments and the
    /// log trails memory, so there is nothing to apply (and a no-op
    /// `advance_to` would count a slow-path entry while waiters are parked).
    fn apply(&self, value: Value) {
        if self.shared.mode == DurabilityMode::Strict {
            self.inner.advance_to(value);
        }
    }

    /// The one post-fsync step: `records` that bring the log to `value`
    /// (and to the cause, when `logs_cause`) are durable, and writing and
    /// syncing them took `took`. Publishes last: the disk watermark first
    /// (so [`DurableCounter::sync`]'s post-wait check is never falsely
    /// degraded), then the logged value in memory, then the acknowledgement
    /// counter, then the cause's acknowledgement.
    fn commit(&mut self, value: Value, records: u64, logs_cause: bool, took: Duration) {
        if let Some(m) = self.metrics.as_ref() {
            m.fsync_ns.record_duration(took);
            m.batch_records.record(records);
        }
        self.logged_value = value;
        self.shared.fsyncs.fetch_add(1, SeqCst);
        self.shared.records_logged.fetch_add(records, SeqCst);
        self.shared.disk_durable.fetch_max(value, SeqCst);
        self.apply(value);
        self.shared.durable.advance_to(value);
        if logs_cause {
            self.shared.cause_logged.store(true, SeqCst);
            self.shared.poisons_synced.advance_to(1);
        }
    }

    /// Holds a strict round open until the `siblings` writers the last
    /// round saw active have all enqueued again, for at most half a
    /// write+fsync (see the module docs). Only a live log reaches here;
    /// a lone writer, a round with nothing uncovered (opened by `sync`),
    /// an unlogged poison cause and a stopping counter never hold, and a
    /// `poison` or `Drop` that arrives during a hold waits out its budget
    /// at most.
    fn hold(&self) {
        let shared = &self.shared;
        let open = shared.mode == DurabilityMode::Strict
            && self.siblings >= 2
            && shared.enqueues.debug_value() > self.covered
            && !shared.stop.load(SeqCst)
            && shared.unlogged_cause().is_none();
        if !open {
            return;
        }
        shared.holds.fetch_add(1, SeqCst);
        let level = self.covered.saturating_add(self.siblings);
        if let Err(CheckError::Timeout(_)) =
            shared.enqueues.wait_timeout(level, self.fsync_estimate / 2)
        {
            shared.hold_timeouts.fetch_add(1, SeqCst);
        }
    }

    /// One group-commit round: hold for sibling writers, clear the dirty
    /// flag, write the target into the current slot and fsync (with retry),
    /// write the poison cause while it is unlogged, then publish durability
    /// to the waiting counters.
    fn flush_once(&mut self) -> Result<(), WalError> {
        self.hold();
        self.shared.dirty.store(false, SeqCst);
        // Read before the target: every enqueue counted here bumped
        // `enqueued` first, so the round covers it.
        let covered = self.shared.enqueues.debug_value();
        let target = self.shared.flush_target(&*self.inner);
        let cause = self.shared.unlogged_cause().cloned();
        let advances = target > self.logged_value;
        if advances || cause.is_some() {
            let started = Instant::now();
            let mut attempts = 0;
            if advances {
                let wal = self.wal.as_mut().expect("flush_once requires a live wal");
                let (slot, frame) = (self.slot, slot_frame(target));
                with_retry(
                    &self.retry,
                    &mut self.jitter,
                    &self.shared.io_retries,
                    || {
                        attempts += 1;
                        wal.write_slot(slot, &frame)?;
                        wal.sync()?;
                        Ok(())
                    },
                )?;
                self.slot ^= 1;
            }
            if let Some(info) = &cause {
                let (dir, fp, frame) = (&self.dir, &self.fp, poison_frame(info));
                with_retry(
                    &self.retry,
                    &mut self.jitter,
                    &self.shared.io_retries,
                    || Ok(write_durably(dir, POISON_FILE, &frame, fp)?),
                )?;
            }
            let took = started.elapsed();
            // A retried round timed a backoff sleep, not an fsync. The
            // estimate is a 1/8-weighted moving average, as TCP smooths
            // its round-trip time.
            if attempts == 1 {
                self.fsync_estimate = if self.fsync_estimate.is_zero() {
                    took
                } else {
                    (self.fsync_estimate * 7 + took) / 8
                };
            }
            self.siblings = self.shared.enqueues.debug_value() - self.covered;
            let records = u64::from(advances) + u64::from(cause.is_some());
            self.commit(target, records, cause.is_some(), took);
        }
        self.covered = covered;
        Ok(())
    }

    /// Switches to degraded mode (dropping the dead log handle) under
    /// [`PoisonPolicy::Degrade`]; otherwise poisons everything with the
    /// cause and reports `false` (the flusher must exit).
    fn enter_degraded(&mut self, e: WalError) -> bool {
        if self.shared.policy == PoisonPolicy::Degrade {
            // Only a healthy flusher gets here, so this is a new entry.
            self.wal = None;
            self.shared.degraded_entries.fetch_add(1, SeqCst);
            let since = self.shared.epoch.elapsed().as_nanos() as u64;
            self.shared.degraded_since_ns.store(since.max(1), SeqCst);
            true
        } else {
            let info = FailureInfo::new(format!("durable counter wal failure: {e}"));
            // Wake strict waiters and fail future operations with the
            // cause instead of hanging them on durability that will never
            // come.
            self.shared.durable.poison(info.clone());
            self.shared.poisons_synced.poison(info.clone());
            self.inner.poison(info);
            false
        }
    }

    /// Degraded-mode service tick: acknowledge what the replay budget
    /// allows from memory so the in-memory fast path keeps moving while
    /// the log is down.
    fn serve_from_memory(&mut self) {
        self.shared.dirty.store(false, SeqCst);
        if let Some(cause) = self.shared.unlogged_cause() {
            // Memory-acknowledge: the `poison` caller unblocks now and
            // poisons memory; the cause reaches the log at resync. A
            // poisoned counter is permanently failed, so strict writers
            // blocked past the replay budget must fail with the cause
            // rather than wait for a durability acknowledgement that no
            // longer means anything.
            self.shared.durable.poison(cause.clone());
            self.shared.poisons_synced.advance_to(1);
        }
        // Memory acknowledgement, bounded by the replay budget past the
        // last truly-durable value: beyond it, strict writers block until
        // resync catches the log up (backpressure instead of unbounded
        // acked-but-volatile state).
        let target = self.shared.flush_target(&*self.inner);
        let disk = self.shared.disk_durable.load(SeqCst);
        let capped = target.min(disk.saturating_add(self.replay_budget));
        self.apply(capped);
        self.shared.durable.advance_to(capped);
    }

    /// One self-healing probe: recover the directory, reopen the log,
    /// persist the collapsed degraded backlog, and return to healthy.
    /// Failure leaves the counter degraded for the next tick.
    fn try_resync(&mut self) {
        if let Ok(()) = self.resync() {
            self.shared.resyncs.fetch_add(1, SeqCst);
            self.shared.degraded_since_ns.store(0, SeqCst);
        }
    }

    fn resync(&mut self) -> Result<(), WalError> {
        self.fp.hit(SITE_WAL_OPEN)?;
        recover_dir(&self.dir, &self.fp)?;
        let mut wal: Box<dyn WalFile> = Box::new(FailpointWal::new(
            (self.factory)(&self.dir.join(WAL_FILE))?,
            Arc::clone(&self.fp),
        ));
        // Monotonicity collapses every memory-served increment into the
        // current value, written into the slot the failed round was writing:
        // the other slot holds the last synced value. Write and sync even a
        // value that is not new: the failed handle's write may sit unsynced
        // in the page cache, and returning to Healthy must never claim it as
        // crash-durable.
        let target = self.shared.flush_target(&*self.inner);
        let started = Instant::now();
        wal.write_slot(self.slot, &slot_frame(target))?;
        wal.sync()?;
        self.slot ^= 1;
        let cause = self.shared.unlogged_cause().cloned();
        if let Some(info) = &cause {
            write_durably(&self.dir, POISON_FILE, &poison_frame(info), &self.fp)?;
        }
        let records = 1 + u64::from(cause.is_some());
        self.commit(target, records, cause.is_some(), started.elapsed());
        self.wal = Some(wal);
        Ok(())
    }
}

impl<C> DurableCounter<C>
where
    C: ResumableCounter + CounterDiagnostics + Send + Sync + 'static,
{
    /// Opens (or creates) the durable counter stored in `dir` with default
    /// options, recovering any persisted state: the larger value of the
    /// log's two slots, and the poison cause.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, CounterRecovery), WalError> {
        Self::open_with(dir, DurableOptions::default())
    }

    /// [`open`](Self::open) with explicit options. The log file is opened
    /// through [`wal_factory_from_env`]: setting `MC_CHAOS_WAL=1` injects
    /// [`ChaosWal`](crate::ChaosWal), which loses unsynced writes (used by
    /// the crash harness).
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<(Self, CounterRecovery), WalError> {
        Self::open_with_wal(dir, options, wal_factory_from_env())
    }

    /// [`open_with`](Self::open_with) using an explicit [`WalFactory`] for
    /// fault injection. The factory is retained: degraded-mode resync
    /// reopens the log through it.
    pub fn open_with_wal(
        dir: impl AsRef<Path>,
        options: DurableOptions,
        factory: Box<WalFactory>,
    ) -> Result<(Self, CounterRecovery), WalError> {
        let dir = dir.as_ref().to_path_buf();
        let fp = options
            .failpoints
            .clone()
            .unwrap_or_else(|| Arc::clone(mc_chaos::failpoints::global()));
        fp.hit(SITE_WAL_OPEN)?;
        let recovered = recover_dir(&dir, &fp)?;
        let recovery = CounterRecovery {
            value: recovered.value,
            slots_verified: recovered.slots.map(|s| s.is_some()),
            poison_restored: recovered.poison.is_some(),
        };
        let slot = recovered.next_slot();

        let inner = Arc::new(C::resume_from(recovered.value));
        let restored = recovered.poison.is_some();
        if let Some(info) = recovered.poison.clone() {
            inner.poison(info);
        }
        let shared = Arc::new(Shared {
            mode: options.mode,
            policy: options.poison_policy,
            enqueued: AtomicU64::new(recovered.value),
            dirty: AtomicBool::new(false),
            rounds: Counter::default(),
            enqueues: Counter::default(),
            durable: Counter::builder().initial(recovered.value).build(),
            disk_durable: AtomicU64::new(recovered.value),
            cause: recovered.poison.map(OnceLock::from).unwrap_or_default(),
            cause_logged: AtomicBool::new(restored),
            poisons_synced: Counter::builder().initial(u64::from(restored)).build(),
            epoch: Instant::now(),
            degraded_since_ns: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            io_retries: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            records_logged: AtomicU64::new(0),
            degraded_entries: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            hold_timeouts: AtomicU64::new(0),
        });
        let wal: Box<dyn WalFile> = Box::new(FailpointWal::new(
            factory(&dir.join(WAL_FILE))?,
            Arc::clone(&fp),
        ));
        let jitter = JitterRng::new(fp.seed() ^ 0xD1CE_D00D_5EED_0B0Fu64);
        let flusher = Flusher {
            inner: Arc::clone(&inner),
            shared: Arc::clone(&shared),
            wal: Some(wal),
            factory,
            fp,
            retry: options.retry,
            jitter,
            resync_interval: options.resync_interval.max(Duration::from_millis(1)),
            replay_budget: options.replay_budget,
            dir,
            logged_value: recovered.value,
            slot,
            covered: 0,
            siblings: 0,
            fsync_estimate: Duration::ZERO,
            metrics: options.metrics.as_ref().map(DurableMetrics::attach),
        };
        let handle = std::thread::Builder::new()
            .name("mc-durable-flusher".into())
            .spawn(move || flusher.run())
            .map_err(WalError::Io)?;
        Ok((
            DurableCounter {
                inner,
                shared,
                flusher: Some(handle),
            },
            recovery,
        ))
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> DurableCounter<C> {
    /// The wrapped in-memory counter, read-only: its value, statistics and
    /// waiters. Only the durable counter changes it, so it cannot move
    /// ahead of the log:
    ///
    /// ```compile_fail,E0599
    /// use mc_counter::{Counter, MonotonicCounter};
    /// use mc_durable::DurableCounter;
    ///
    /// let (counter, _) = DurableCounter::<Counter>::open("counter-dir").unwrap();
    /// counter.inner().increment(1);
    /// ```
    pub fn inner(&self) -> &impl CounterDiagnostics {
        &*self.inner
    }

    /// Durability-layer statistics: fsync rounds, records logged, retries,
    /// degraded-mode entries, resyncs and holds.
    pub fn wal_stats(&self) -> WalStats {
        self.shared.wal_stats()
    }

    /// The last value known to be fsync-durable — what a crash right now
    /// is guaranteed to recover. While degraded this lags the in-memory
    /// value; healthy strict operation keeps it at the acked value.
    pub fn durable_value(&self) -> Value {
        self.shared.disk_durable.load(SeqCst)
    }

    /// The counter's durability health: [`HealthStatus::Poisoned`] if the
    /// counter is poisoned (which wins over degradation),
    /// [`HealthStatus::Degraded`] while serving from memory with the log
    /// down, else [`HealthStatus::Healthy`].
    pub fn health(&self) -> HealthStatus {
        if self.inner.poison_info().is_some() {
            return HealthStatus::Poisoned;
        }
        match self.shared.degraded_since_ns.load(SeqCst) {
            0 => HealthStatus::Healthy,
            since => {
                // The unsynced backlog collapses to one absolute advance
                // (monotonicity) plus the cause, while it is not yet logged.
                let gap =
                    self.shared.flush_target(&*self.inner) > self.shared.disk_durable.load(SeqCst);
                HealthStatus::Degraded {
                    since: self.shared.epoch + Duration::from_nanos(since),
                    queued: u64::from(gap) + u64::from(self.shared.unlogged_cause().is_some()),
                }
            }
        }
    }

    /// Blocks until everything enqueued so far is *fsync*-durable. In
    /// strict mode that is every increment any writer has enqueued, acked
    /// or still waiting, so it can take one fsync; in batched mode this is
    /// the explicit persistence point.
    ///
    /// # Errors
    ///
    /// Returns the poisoning cause if the WAL failed terminally, or a
    /// degradation notice if the acknowledgement came from the in-memory
    /// watermark while the log is down (the data is *not* yet
    /// crash-survivable — callers needing hard durability should retry
    /// after [`health`](Self::health) returns healthy).
    pub fn sync(&self) -> Result<(), FailureInfo> {
        let target = self.shared.flush_target(&*self.inner);
        self.shared.signal();
        match self.shared.durable.wait(target) {
            Ok(()) => {
                if self.shared.disk_durable.load(SeqCst) >= target {
                    Ok(())
                } else {
                    Err(FailureInfo::new(format!(
                        "durable counter degraded: value {target} acknowledged from memory, \
                         disk watermark at {}",
                        self.shared.disk_durable.load(SeqCst)
                    )))
                }
            }
            Err(CheckError::Poisoned(info)) => Err(info),
            Err(CheckError::Timeout(_)) => unreachable!("untimed wait cannot time out"),
        }
    }

    /// Strict mode: signals the flusher for the enqueued `target` and waits
    /// until it is acknowledged, which the flusher does only after applying
    /// it to the inner counter.
    fn ack_durable(&self, target: Value) {
        self.shared.signal();
        if let Err(CheckError::Poisoned(info)) = self.shared.durable.wait(target) {
            // The WAL is wedged (or the counter was poisoned while its
            // backlog was still memory-only): make the failure visible on
            // the counter itself, then surface it to the caller.
            self.inner.poison(info.clone());
            panic!("durable increment could not be persisted: {info}");
        }
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> MonotonicCounter for DurableCounter<C> {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        if amount == 0 {
            return Ok(());
        }
        match self.shared.mode {
            DurabilityMode::Strict => self.ack_durable(self.shared.enqueue(amount)?),
            DurabilityMode::Batched => {
                self.inner.try_increment(amount)?;
                self.shared.signal();
            }
        }
        Ok(())
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        self.inner.wait(level)
    }

    fn wait_timeout(&self, level: Value, timeout: std::time::Duration) -> Result<(), CheckError> {
        self.inner.wait_timeout(level, timeout)
    }

    fn poison(&self, info: FailureInfo) {
        // The first cause wins the slot, and every caller poisons memory
        // with the winner. It is durable before memory is poisoned, in both
        // modes (degraded mode acknowledges it from memory and persists it
        // at resync).
        let cause = self.shared.cause.get_or_init(|| info);
        // Unconditional bump, as in `Drop`: the flusher round it opens
        // happens after the slot is filled, whatever the dirty flag says.
        self.shared.rounds.increment(1);
        // If the WAL itself failed terminally, the flusher poisons
        // `poisons_synced`; either way the in-memory poison proceeds.
        let _ = self.shared.poisons_synced.wait(1);
        self.inner.poison(cause.clone());
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.inner.poison_info()
    }

    fn advance_to(&self, target: Value) {
        match self.shared.mode {
            DurabilityMode::Strict => self.ack_durable(self.shared.enqueue_to(target)),
            DurabilityMode::Batched => {
                self.inner.advance_to(target);
                self.shared.signal();
            }
        }
    }
}

impl<C: MonotonicCounter + CounterDiagnostics> CounterDiagnostics for DurableCounter<C> {
    fn debug_value(&self) -> Value {
        self.inner.debug_value()
    }

    fn stats(&self) -> StatsSnapshot {
        let mut stats = self.inner.stats();
        stats.io_retries = self.shared.io_retries.load(SeqCst);
        stats
    }

    fn impl_name(&self) -> &'static str {
        "durable"
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.inner.waiters()
    }

    fn health(&self) -> HealthStatus {
        DurableCounter::health(self)
    }

    fn durable_watermark(&self) -> Option<Value> {
        Some(self.durable_value())
    }
}

impl<C: MonotonicCounter> Drop for DurableCounter<C> {
    fn drop(&mut self) {
        self.shared.stop.store(true, SeqCst);
        // Unconditional bump: wake the flusher even if the dirty flag is
        // already set (its owner may have signalled before our stop store).
        self.shared.rounds.increment(1);
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use mc_chaos::FailConfig;
    use std::io;

    fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A real log whose fsync takes 2 ms longer, so a released writer
    /// always re-enqueues while another round's fsync could still run:
    /// without the hold, writers fall out of phase.
    struct SlowWal(crate::FsWal);

    impl WalFile for SlowWal {
        fn write_slot(&mut self, slot: usize, frame: &[u8]) -> io::Result<()> {
            self.0.write_slot(slot, frame)
        }

        fn sync(&mut self) -> io::Result<()> {
            std::thread::sleep(Duration::from_millis(2));
            self.0.sync()
        }
    }

    fn open_slow(dir: &Path) -> DurableCounter<Counter> {
        let factory: Box<WalFactory> =
            Box::new(|path| Ok(Box::new(SlowWal(crate::FsWal::open(path)?)) as Box<dyn WalFile>));
        let (c, _) =
            DurableCounter::<Counter>::open_with_wal(dir, DurableOptions::default(), factory)
                .unwrap();
        c
    }

    /// `writers` closed-loop strict writers, released together, each
    /// acking `acks` increments; returns the fsyncs, holds and hold
    /// timeouts they added.
    fn closed_loop(c: &DurableCounter<Counter>, writers: usize, acks: usize) -> WalStats {
        let before = c.wal_stats();
        let gate = std::sync::Barrier::new(writers);
        std::thread::scope(|s| {
            for _ in 0..writers {
                s.spawn(|| {
                    gate.wait();
                    for _ in 0..acks {
                        c.increment(1);
                    }
                });
            }
        });
        let after = c.wal_stats();
        WalStats {
            fsyncs: after.fsyncs - before.fsyncs,
            holds: after.holds - before.holds,
            hold_timeouts: after.hold_timeouts - before.hold_timeouts,
            ..WalStats::default()
        }
    }

    #[test]
    fn lone_writer_never_holds() {
        let dir = test_dir("lone-writer");
        let c = open_slow(&dir);
        let stats = closed_loop(&c, 1, 300);
        assert_eq!(stats.holds, 0, "{stats:?}");
        assert_eq!(stats.fsyncs, 300, "one fsync per lone ack: {stats:?}");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writers_commit_in_phase() {
        // With every writer in phase one fsync acks all of them: 1/2 and
        // 1/3 fsyncs per ack. Out of phase, a writer arriving during
        // another's fsync waits for it and then for its own.
        for (writers, most_per_ack) in [(2, 0.6), (3, 0.4)] {
            let dir = test_dir(&format!("in-phase-{writers}"));
            let c = open_slow(&dir);
            let stats = closed_loop(&c, writers, 100);
            let per_ack = stats.fsyncs as f64 / (writers * 100) as f64;
            assert!(
                per_ack <= most_per_ack,
                "{writers} writers: {per_ack:.3} fsyncs per ack > {most_per_ack} ({stats:?})"
            );
            drop(c);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_departing_writer_ends_the_holds() {
        let dir = test_dir("departing-writer");
        let c = open_slow(&dir);
        let paired = closed_loop(&c, 2, 100);
        assert!(paired.holds > 0, "two writers never held: {paired:?}");
        // The first lone round holds for the departed sibling, times out,
        // and counts one writer; later rounds do not hold.
        let lone = closed_loop(&c, 1, 50);
        assert!(lone.hold_timeouts <= 2, "{lone:?}");
        assert!(lone.holds <= 2, "{lone:?}");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_advance_racing_increments_never_outruns_the_log() {
        // `increment` and `advance_to` do not commute, so writers that
        // applied their own effects in wake-up order rather than log order
        // could leave memory one above the log. Only the flusher applies,
        // and only what it logged, so memory is what a reopen recovers.
        const CALLS: u64 = 200;
        for round in 0..5 {
            let dir = test_dir(&format!("advance-race-{round}"));
            let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
            let gate = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    gate.wait();
                    for _ in 0..CALLS {
                        let before = c.debug_value();
                        c.increment(1);
                        assert!(c.debug_value() > before, "round {round}: increment unseen");
                    }
                });
                s.spawn(|| {
                    gate.wait();
                    for _ in 0..CALLS {
                        c.advance_to(1);
                        assert!(c.debug_value() >= 1, "round {round}: advance unseen");
                    }
                });
            });
            let (value, logged) = (c.debug_value(), c.durable_value());
            assert!(
                value <= logged,
                "round {round}: memory {value} > log {logged}"
            );
            // 201 when an `advance_to(1)` landed before the first increment.
            assert!(
                value == CALLS || value == CALLS + 1,
                "round {round}: {value}"
            );
            drop(c);
            let (c, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
            assert_eq!(recovery.value, value, "round {round}");
            drop(c);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    fn degrade_options(fp: &Arc<Failpoints>) -> DurableOptions {
        DurableOptions {
            poison_policy: PoisonPolicy::Degrade,
            failpoints: Some(Arc::clone(fp)),
            retry: RetryPolicy::none(),
            resync_interval: Duration::from_millis(5),
            ..DurableOptions::default()
        }
    }

    #[test]
    fn attached_metrics_mirror_wal_stats() {
        let dir = test_dir("metrics-export");
        let registry = Arc::new(mc_metrics::Registry::new());
        let options = DurableOptions {
            metrics: Some(MetricsSink::new(Arc::clone(&registry), "dur")),
            ..DurableOptions::default()
        };
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, options).unwrap();
        for _ in 0..10 {
            c.increment(1);
        }
        c.sync().unwrap();
        let stats = c.wal_stats();
        assert!(stats.fsyncs >= 1);
        drop(c); // joins the flusher: the final delta publish lands

        assert_eq!(registry.event("dur.wal.fsyncs").get(), stats.fsyncs);
        assert_eq!(
            registry.event("dur.wal.records_logged").get(),
            stats.records_logged
        );
        assert_eq!(registry.event("dur.wal.degraded_entries").get(), 0);
        assert_eq!(registry.event("dur.wal.holds").get(), stats.holds);
        assert_eq!(
            registry.event("dur.wal.hold_timeouts").get(),
            stats.hold_timeouts
        );
        let fsync_ns = registry.histogram("dur.wal.fsync_ns").snapshot();
        assert!(fsync_ns.count() >= 1, "fsync latency must be recorded");
        let batches = registry.histogram("dur.wal.batch_records").snapshot();
        assert!(batches.count() >= 1, "batch sizes must be recorded");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_cycle_reaches_the_registry() {
        let dir = test_dir("metrics-degrade");
        let fp = Arc::new(Failpoints::new(42));
        let registry = Arc::new(mc_metrics::Registry::new());
        let options = DurableOptions {
            metrics: Some(MetricsSink::new(Arc::clone(&registry), "dur")),
            ..degrade_options(&fp)
        };
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, options).unwrap();
        c.increment(1);
        fp.arm(
            crate::SITE_WAL_FSYNC,
            FailConfig::always(io::ErrorKind::StorageFull),
        );
        c.increment(1);
        wait_for("degraded health", || c.health().is_degraded());
        fp.disarm(crate::SITE_WAL_FSYNC);
        wait_for("healthy health", || c.health().is_healthy());
        drop(c);

        assert_eq!(registry.event("dur.wal.degraded_entries").get(), 1);
        assert!(registry.event("dur.wal.resyncs").get() >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degrade_then_self_heal() {
        let dir = test_dir("degrade-heal");
        let fp = Arc::new(Failpoints::new(42));
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, degrade_options(&fp)).unwrap();
        c.increment(1);
        assert!(c.health().is_healthy());
        assert_eq!(c.durable_value(), 1);

        // Kill the fsync path persistently: the next flush degrades.
        fp.arm(
            crate::SITE_WAL_FSYNC,
            FailConfig::always(io::ErrorKind::StorageFull),
        );
        c.increment(1); // acked from the in-memory watermark
        wait_for("degraded health", || c.health().is_degraded());
        assert_eq!(c.debug_value(), 2);
        assert_eq!(c.durable_value(), 1, "disk watermark must not move");
        match c.health() {
            HealthStatus::Degraded { queued, .. } => assert!(queued >= 1),
            other => panic!("expected degraded, got {other:?}"),
        }
        // sync() must refuse to report memory-only state as durable.
        let err = c.sync().expect_err("sync while degraded");
        assert!(err.message().contains("degraded"), "{err}");

        // Fault clears: the resync probe heals the counter.
        fp.disarm(crate::SITE_WAL_FSYNC);
        wait_for("healthy health", || c.health().is_healthy());
        assert_eq!(c.durable_value(), 2);
        assert!(c.sync().is_ok());
        let stats = c.wal_stats();
        assert_eq!(stats.degraded_entries, 1);
        assert!(stats.resyncs >= 1);
        drop(c);

        let (c, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(recovery.value, 2, "healed state survives restart");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_budget_blocks_strict_writers_until_resync() {
        let dir = test_dir("degrade-budget");
        let fp = Arc::new(Failpoints::new(7));
        let opts = DurableOptions {
            replay_budget: 2,
            ..degrade_options(&fp)
        };
        // Armed before the first increment: the log never accepts a byte.
        fp.arm(
            crate::SITE_WAL_APPEND,
            FailConfig::always(io::ErrorKind::StorageFull),
        );
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, opts).unwrap();
        let c = Arc::new(c);
        c.increment(1);
        c.increment(1); // both memory-acked: within the budget of 2
        wait_for("degraded health", || c.health().is_degraded());

        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.increment(1)) // beyond the budget
        };
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            !writer.is_finished(),
            "writer past the replay budget must block until resync"
        );

        fp.disarm(crate::SITE_WAL_APPEND);
        writer.join().expect("writer completes after resync");
        wait_for("healthy health", || c.health().is_healthy());
        assert_eq!(c.debug_value(), 3);
        assert!(c.durable_value() >= 3);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_during_degraded_mode_persists_at_resync() {
        let dir = test_dir("degrade-poison");
        let fp = Arc::new(Failpoints::new(3));
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, degrade_options(&fp)).unwrap();
        c.increment(1);
        fp.arm(
            crate::SITE_WAL_FSYNC,
            FailConfig::always(io::ErrorKind::TimedOut),
        );
        c.increment(1);
        wait_for("degraded health", || c.health().is_degraded());

        // Poison while the log is down: acknowledged from memory (the call
        // must not hang), then persisted by the resync.
        c.poison(FailureInfo::new("worker died mid-phase"));
        assert!(c.health().is_poisoned(), "poison outranks degraded");

        fp.disarm(crate::SITE_WAL_FSYNC);
        wait_for("resync", || c.wal_stats().resyncs >= 1);
        drop(c);

        let (c, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert!(recovery.poison_restored, "poison cause survived the outage");
        assert_eq!(recovery.value, 2);
        assert_eq!(
            c.poison_info().expect("restored").message(),
            "worker died mid-phase"
        );
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retry_absorbs_transient_faults_without_degrading() {
        let dir = test_dir("retry-transient");
        let fp = Arc::new(Failpoints::new(11));
        let opts = DurableOptions {
            retry: RetryPolicy {
                max_retries: 4,
                base_delay: Duration::from_micros(50),
                max_delay: Duration::from_millis(1),
            },
            ..degrade_options(&fp)
        };
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, opts).unwrap();
        // One EINTR on the first fsync, one ENOSPC blip on the second: both
        // inside the retry budget, so the counter never leaves healthy.
        fp.arm(
            crate::SITE_WAL_FSYNC,
            FailConfig::once_at(1, io::ErrorKind::Interrupted),
        );
        c.increment(5);
        assert!(c.health().is_healthy());
        assert_eq!(c.durable_value(), 5);
        fp.arm(
            crate::SITE_WAL_APPEND,
            FailConfig::once_at(1, io::ErrorKind::StorageFull),
        );
        c.increment(5);
        assert!(c.health().is_healthy());
        assert_eq!(c.durable_value(), 10);
        let stats = c.wal_stats();
        assert!(stats.retries >= 2, "retries: {}", stats.retries);
        assert_eq!(stats.degraded_entries, 0);
        assert_eq!(c.stats().io_retries, stats.retries);
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_watermark_surfaces_through_diagnostics() {
        let dir = test_dir("watermark-diag");
        let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!(c.durable_watermark(), Some(0));
        c.increment(3);
        // Strict mode: increment returns only once the record is on disk,
        // so the erased diagnostics view sees the same watermark the typed
        // accessor reports — this is what a supervision tree snapshots into
        // a restarted child's ResumeCtx.
        assert_eq!(c.durable_watermark(), Some(c.durable_value()));
        assert_eq!(c.durable_watermark(), Some(3));
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn propagate_policy_still_poisons_on_wal_failure() {
        let dir = test_dir("propagate-poison");
        let fp = Arc::new(Failpoints::new(5));
        let opts = DurableOptions {
            mode: DurabilityMode::Batched,
            poison_policy: PoisonPolicy::Propagate,
            failpoints: Some(Arc::clone(&fp)),
            retry: RetryPolicy::none(),
            ..DurableOptions::default()
        };
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, opts).unwrap();
        fp.arm(
            crate::SITE_WAL_FSYNC,
            FailConfig::always(io::ErrorKind::StorageFull),
        );
        c.increment(1);
        let err = c.sync().expect_err("wal failure must poison");
        assert!(err.message().contains("wal failure"), "{err}");
        wait_for("poisoned counter", || c.poison_info().is_some());
        assert!(c.health().is_poisoned());
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_file_faults_degrade_and_heal_too() {
        let dir = test_dir("degrade-poison-file");
        let fp = Arc::new(Failpoints::new(17));
        let (c, _) = DurableCounter::<Counter>::open_with(&dir, degrade_options(&fp)).unwrap();
        c.increment(1);
        fp.arm(
            crate::SITE_POISON_RENAME,
            FailConfig::always(io::ErrorKind::StorageFull),
        );
        // The cause cannot reach its file: acknowledged from memory, so the
        // call returns, and the counter degrades.
        c.poison(FailureInfo::new("stage failed"));
        wait_for("degraded entry", || c.wal_stats().degraded_entries == 1);
        assert!(!dir.join(crate::POISON_FILE).exists());
        fp.disarm(crate::SITE_POISON_RENAME);
        wait_for("resync", || c.wal_stats().resyncs >= 1);
        drop(c);
        // Neither the acked value nor the cause is lost across the cycle.
        let (c, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
        assert_eq!((recovery.value, recovery.poison_restored), (1, true));
        assert_eq!(c.poison_info().expect("restored").message(), "stage failed");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn racing_poisons_recover_the_reported_cause() {
        // Two callers race to poison a fresh counter; whichever cause
        // memory reports must be the one a restart recovers.
        const ROUNDS: usize = 300;
        let dir = test_dir("racing-poisons");
        let mut diverged = 0;
        for round in 0..ROUNDS {
            let _ = std::fs::remove_dir_all(&dir);
            let (c, _) = DurableCounter::<Counter>::open(&dir).unwrap();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for who in ["a", "b"] {
                    let (c, barrier) = (&c, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        c.poison(FailureInfo::new(format!("{who} failed")).with_thread(who));
                    });
                }
            });
            let reported = c.poison_info();
            drop(c);
            let (c, recovery) = DurableCounter::<Counter>::open(&dir).unwrap();
            assert!(recovery.poison_restored, "round {round}: cause lost");
            diverged += usize::from(c.poison_info() != reported);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            diverged, 0,
            "{diverged} of {ROUNDS} rounds recovered another cause"
        );
    }
}
