//! [`MeteredCounter`]: transparent per-operation instrumentation for any
//! counter implementation.
//!
//! The wrapper forwards every operation unchanged and, **only when a metrics
//! sink was attached** ([`CounterBuilder::metrics`]), records operation
//! counts and latency histograms into an `mc-metrics` [`Registry`]:
//!
//! | metric (under the sink's prefix) | kind | recorded |
//! |---|---|---|
//! | `increments` | event | at [`publish_stats`](MeteredCounter::publish_stats), from the inner stats tier |
//! | `checks` | event | at `publish_stats`, from the inner stats tier |
//! | `fast_increments` | event | at `publish_stats`, from the inner stats tier |
//! | `fast_checks` | event | at `publish_stats`, from the inner stats tier |
//! | `spin_checks` | event | at `publish_stats`, from the inner stats tier |
//! | `slow_path_entries` | event | at `publish_stats`, from the inner stats tier |
//! | `advances` | event | inline, per `advance_to` call |
//! | `waits` | event | inline, per `wait` / `wait_timeout` call |
//! | `wait_timeouts` | event | inline, per wait that gave up on timeout |
//! | `poisons` | event | inline, per `poison` call |
//! | `increment_ns` | histogram | sampled `increment` latency |
//! | `check_ns` | histogram | sampled `check` latency |
//! | `wait_ns` | histogram | every blocking wait's latency |
//!
//! ## Overhead discipline
//!
//! The uncontended increment fast path is ~10–20 ns. A single
//! `Instant::now()` costs about the same, and even one shared `Relaxed`
//! `fetch_add` adds ~30% to it — so the hot operations (`increment`,
//! `try_increment`, `check`) add **no shared-memory writes at all**:
//!
//! * operation *counts* come from the counter's own always-on stats tier
//!   (already paid for in the baseline), delta-published into the registry
//!   by [`MeteredCounter::publish_stats`] — call it from the scrape loop,
//!   right before rendering;
//! * operation *latency* is sampled: a thread-local (non-atomic) ticker
//!   elects every [`SAMPLE_EVERY`]-th hot operation on the thread for
//!   timing, so the histograms describe a uniform 1-in-1024 sample. The
//!   ticker is shared by all metered counters on the thread — each
//!   counter's histogram receives samples in proportion to its share of
//!   the operation stream. Blocking waits are µs-scale and rare, so those
//!   are counted inline and always timed.
//!
//! With **no sink attached** (the default), every field is `None` and each
//! forwarding method is a `#[inline]` pass-through: the wrapper compiles to
//! the bare inner counter. The E8 benchmark measures both configurations and
//! the CI perf gate holds the enabled-mode overhead under 10%.

use crate::builder::{BuildConfig, Buildable, CounterBuilder, MetricsSink};
use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::stats::StatsSnapshot;
use crate::traits::{CounterDiagnostics, HealthStatus, MonotonicCounter, Resettable, WaitingLevel};
use crate::{Counter, Value};
use mc_metrics::{Event, Histogram};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One in how many increment/check operations gets a latency timestamp.
///
/// Power of two so the sample test is a mask, not a division.
pub const SAMPLE_EVERY: u64 = 1024;

thread_local! {
    /// Per-thread hot-operation ticker, shared by every metered counter on
    /// the thread: one non-atomic add per operation, no cache-line traffic.
    static OP_TICKS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one hot operation on this thread; true when this operation is
/// elected for timing (the first on a thread, then every
/// [`SAMPLE_EVERY`]-th).
#[inline]
fn sample_tick() -> bool {
    OP_TICKS.with(|c| {
        let v = c.get();
        c.set(v.wrapping_add(1));
        v & (SAMPLE_EVERY - 1) == 0
    })
}

/// The attached instruments. Created once at construction from the sink;
/// every handle is an `Arc` into the registry, so recording never touches
/// the registry's lock.
#[derive(Debug)]
struct Instruments {
    increments: Arc<Event>,
    advances: Arc<Event>,
    checks: Arc<Event>,
    fast_increments: Arc<Event>,
    fast_checks: Arc<Event>,
    spin_checks: Arc<Event>,
    waits: Arc<Event>,
    wait_timeouts: Arc<Event>,
    poisons: Arc<Event>,
    slow_path_entries: Arc<Event>,
    increment_ns: Arc<Histogram>,
    check_ns: Arc<Histogram>,
    wait_ns: Arc<Histogram>,
    /// Stats already delta-published by [`MeteredCounter::publish_stats`].
    published: Mutex<StatsSnapshot>,
}

impl Instruments {
    fn attach(sink: &MetricsSink) -> Self {
        Instruments {
            increments: sink.event("increments"),
            advances: sink.event("advances"),
            checks: sink.event("checks"),
            fast_increments: sink.event("fast_increments"),
            fast_checks: sink.event("fast_checks"),
            spin_checks: sink.event("spin_checks"),
            waits: sink.event("waits"),
            wait_timeouts: sink.event("wait_timeouts"),
            poisons: sink.event("poisons"),
            slow_path_entries: sink.event("slow_path_entries"),
            increment_ns: sink.histogram("increment_ns"),
            check_ns: sink.histogram("check_ns"),
            wait_ns: sink.histogram("wait_ns"),
            published: Mutex::new(StatsSnapshot::default()),
        }
    }
}

/// A counter wrapper that publishes operation counts and latency histograms
/// to an `mc-metrics` registry: counts come from the inner stats tier at
/// [`publish_stats`](Self::publish_stats), and latency is timed for one
/// operation in [`SAMPLE_EVERY`] per thread.
///
/// Build it like any other implementation; attach the registry through the
/// builder:
///
/// ```
/// use mc_counter::{MeteredCounter, MonotonicCounter};
/// use mc_metrics::Registry;
/// use std::sync::Arc;
///
/// let registry = Arc::new(Registry::new());
/// let c: MeteredCounter = MeteredCounter::builder()
///     .metrics(&registry, "jobs")
///     .build();
/// c.increment(3);
/// c.check(3);
/// c.publish_stats(); // bridge the counts; call this before each scrape
/// assert_eq!(registry.event("jobs.increments").get(), 1);
/// assert_eq!(registry.event("jobs.checks").get(), 1);
/// ```
///
/// Without `.metrics(..)` the wrapper holds no instruments and forwards
/// straight through.
#[derive(Debug)]
pub struct MeteredCounter<C = Counter> {
    inner: C,
    instruments: Option<Box<Instruments>>,
}

impl<C> MeteredCounter<C> {
    /// Wraps an existing counter, attaching instruments when `sink` is
    /// `Some`. The builder path ([`Buildable`]) is preferred; this exists for
    /// wrapping counters that are not [`Buildable`] (test doubles, trait
    /// objects behind newtypes).
    pub fn wrap(inner: C, sink: Option<&MetricsSink>) -> Self {
        MeteredCounter {
            inner,
            instruments: sink.map(|s| Box::new(Instruments::attach(s))),
        }
    }

    /// The wrapped counter.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps, discarding the instruments (registry contents persist).
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Whether a metrics sink is attached.
    pub fn is_metered(&self) -> bool {
        self.instruments.is_some()
    }
}

impl<C: CounterDiagnostics> MeteredCounter<C> {
    /// Delta-publishes the inner counter's [`StatsSnapshot`]-derived metrics
    /// (`increments`, `checks`, `fast_increments`, `fast_checks`,
    /// `spin_checks`, `slow_path_entries`) into the registry: each call adds only what
    /// accrued since the previous call, so periodic publication from a
    /// scrape loop never double-counts. This is how the hot-path counts
    /// reach the registry at all — the operations themselves write nothing
    /// shared — so call it right before each scrape/render. No-op without a
    /// sink.
    pub fn publish_stats(&self) {
        let Some(m) = &self.instruments else {
            return;
        };
        let now = self.inner.stats();
        let mut last = m.published.lock().unwrap_or_else(|e| e.into_inner());
        m.increments
            .add(now.increments.saturating_sub(last.increments));
        m.checks.add(now.checks.saturating_sub(last.checks));
        m.fast_increments
            .add(now.fast_increments.saturating_sub(last.fast_increments));
        m.fast_checks
            .add(now.fast_checks.saturating_sub(last.fast_checks));
        m.spin_checks
            .add(now.spin_checks.saturating_sub(last.spin_checks));
        m.slow_path_entries
            .add(now.slow_path_entries.saturating_sub(last.slow_path_entries));
        *last = now;
    }
}

impl<C: Buildable> Default for MeteredCounter<C> {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl<C: Buildable> Buildable for MeteredCounter<C> {
    fn from_config(cfg: &BuildConfig) -> Self {
        // The config passes through to the inner counter too, so a metered
        // ShardedCounter attaches its combiner metrics to the same sink.
        MeteredCounter::wrap(C::from_config(cfg), cfg.metrics())
    }
}

impl<C: Buildable> MeteredCounter<C> {
    /// Starts building a metered counter; see [`CounterBuilder`]. Attach the
    /// registry with [`CounterBuilder::metrics`] — without it the wrapper is
    /// a pass-through.
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }
}

impl<C: MonotonicCounter> MonotonicCounter for MeteredCounter<C> {
    #[inline]
    fn increment(&self, amount: Value) {
        match &self.instruments {
            None => self.inner.increment(amount),
            Some(m) => {
                if sample_tick() {
                    let t0 = Instant::now();
                    self.inner.increment(amount);
                    m.increment_ns.record_duration(t0.elapsed());
                } else {
                    self.inner.increment(amount);
                }
            }
        }
    }

    #[inline]
    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        match &self.instruments {
            None => self.inner.try_increment(amount),
            Some(m) => {
                if sample_tick() {
                    let t0 = Instant::now();
                    let r = self.inner.try_increment(amount);
                    m.increment_ns.record_duration(t0.elapsed());
                    r
                } else {
                    self.inner.try_increment(amount)
                }
            }
        }
    }

    #[inline]
    fn advance_to(&self, target: Value) {
        if let Some(m) = &self.instruments {
            m.advances.incr();
        }
        self.inner.advance_to(target);
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        match &self.instruments {
            None => self.inner.wait(level),
            Some(m) => {
                m.waits.incr();
                let t0 = Instant::now();
                let r = self.inner.wait(level);
                m.wait_ns.record_duration(t0.elapsed());
                if matches!(r, Err(CheckError::Timeout(_))) {
                    m.wait_timeouts.incr();
                }
                r
            }
        }
    }

    fn wait_timeout(&self, level: Value, timeout: std::time::Duration) -> Result<(), CheckError> {
        match &self.instruments {
            None => self.inner.wait_timeout(level, timeout),
            Some(m) => {
                m.waits.incr();
                let t0 = Instant::now();
                let r = self.inner.wait_timeout(level, timeout);
                m.wait_ns.record_duration(t0.elapsed());
                if matches!(r, Err(CheckError::Timeout(_))) {
                    m.wait_timeouts.incr();
                }
                r
            }
        }
    }

    fn poison(&self, info: FailureInfo) {
        if let Some(m) = &self.instruments {
            m.poisons.incr();
        }
        self.inner.poison(info);
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.inner.poison_info()
    }

    #[inline]
    fn check(&self, level: Value) {
        match &self.instruments {
            None => self.inner.check(level),
            Some(m) => {
                if sample_tick() {
                    let t0 = Instant::now();
                    self.inner.check(level);
                    m.check_ns.record_duration(t0.elapsed());
                } else {
                    self.inner.check(level);
                }
            }
        }
    }

    fn check_timeout(
        &self,
        level: Value,
        timeout: std::time::Duration,
    ) -> Result<(), CheckTimeoutError> {
        match &self.instruments {
            None => self.inner.check_timeout(level, timeout),
            Some(m) => {
                // Possibly blocking: always timed, like `wait`.
                let t0 = Instant::now();
                let r = self.inner.check_timeout(level, timeout);
                m.check_ns.record_duration(t0.elapsed());
                r
            }
        }
    }
}

impl<C: Resettable> Resettable for MeteredCounter<C> {
    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl<C: CounterDiagnostics> CounterDiagnostics for MeteredCounter<C> {
    fn debug_value(&self) -> Value {
        self.inner.debug_value()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn impl_name(&self) -> &'static str {
        "metered"
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.inner.waiters()
    }

    fn health(&self) -> HealthStatus {
        self.inner.health()
    }

    fn durable_watermark(&self) -> Option<Value> {
        self.inner.durable_watermark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_metrics::Registry;
    use std::time::Duration;

    fn metered(registry: &Arc<Registry>) -> MeteredCounter {
        MeteredCounter::builder().metrics(registry, "m").build()
    }

    #[test]
    fn disabled_wrapper_holds_no_instruments() {
        let c: MeteredCounter = MeteredCounter::builder().build();
        assert!(!c.is_metered());
        c.increment(2);
        c.check(2);
        assert_eq!(c.debug_value(), 2);
    }

    #[test]
    fn operations_are_counted_exactly() {
        let registry = Arc::new(Registry::new());
        let c = metered(&registry);
        for _ in 0..10 {
            c.increment(1);
        }
        c.try_increment(1).unwrap();
        c.advance_to(20);
        for _ in 0..5 {
            c.check(3);
        }
        c.check_timeout(3, Duration::from_secs(1)).unwrap();
        c.wait(3).unwrap();
        c.publish_stats();
        // Hot-path counts mirror the inner stats tier exactly.
        let stats = c.stats();
        assert_eq!(registry.event("m.increments").get(), stats.increments);
        assert!(stats.increments >= 11, "10 increments + 1 try_increment");
        assert_eq!(registry.event("m.checks").get(), stats.checks);
        assert!(stats.checks >= 5);
        // Rare operations are counted inline, without a publish.
        assert_eq!(registry.event("m.advances").get(), 1);
        assert_eq!(registry.event("m.waits").get(), 1);
        assert_eq!(registry.event("m.wait_timeouts").get(), 0);
    }

    #[test]
    fn latency_is_sampled_not_exhaustive() {
        let registry = Arc::new(Registry::new());
        let n = 3 * SAMPLE_EVERY;
        // A dedicated thread pins the thread-local ticker's phase: ops 0,
        // 1024, 2048 are elected — exactly ceil(n / SAMPLE_EVERY) samples.
        std::thread::scope(|s| {
            s.spawn(|| {
                let c = metered(&registry);
                for _ in 0..n {
                    c.increment(1);
                }
                c.publish_stats();
            });
        });
        let snap = registry.histogram("m.increment_ns").snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(registry.event("m.increments").get(), n);
    }

    #[test]
    fn waits_are_always_timed_and_timeouts_counted() {
        let registry = Arc::new(Registry::new());
        let c = metered(&registry);
        c.increment(1);
        c.wait(1).unwrap();
        let err = c.wait_timeout(100, Duration::from_millis(5));
        assert!(matches!(err, Err(CheckError::Timeout(_))));
        assert_eq!(registry.event("m.waits").get(), 2);
        assert_eq!(registry.event("m.wait_timeouts").get(), 1);
        assert_eq!(registry.histogram("m.wait_ns").snapshot().count(), 2);
    }

    #[test]
    fn poison_is_counted_and_forwarded() {
        let registry = Arc::new(Registry::new());
        let c = metered(&registry);
        c.poison(FailureInfo::new("boom"));
        assert_eq!(registry.event("m.poisons").get(), 1);
        assert!(c.poison_info().is_some());
        assert!(matches!(c.wait(5), Err(CheckError::Poisoned(_))));
    }

    #[test]
    fn publish_stats_is_delta_based() {
        let registry = Arc::new(Registry::new());
        let c = metered(&registry);
        // Force slow-path entries by suspending a real waiter.
        let done = std::thread::scope(|s| {
            let h = s.spawn(|| c.wait(2));
            while c.stats().live_waiters == 0 {
                std::thread::yield_now();
            }
            c.increment(2);
            h.join().unwrap()
        });
        done.unwrap();
        let entries = c.stats().slow_path_entries;
        assert!(entries > 0);
        c.publish_stats();
        c.publish_stats(); // second publish adds nothing new
        assert_eq!(registry.event("m.slow_path_entries").get(), entries);
    }

    /// Reports a fixed snapshot, so a publish test needs no racing threads.
    struct FixedStats(StatsSnapshot);

    impl CounterDiagnostics for FixedStats {
        fn debug_value(&self) -> Value {
            0
        }

        fn stats(&self) -> StatsSnapshot {
            self.0
        }

        fn impl_name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn publish_stats_bridges_spin_checks() {
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "s");
        let snap = StatsSnapshot {
            checks: 5,
            immediate_checks: 5,
            spin_checks: 3,
            ..StatsSnapshot::default()
        };
        let c = MeteredCounter::wrap(FixedStats(snap), Some(&sink));
        c.publish_stats();
        c.publish_stats(); // nothing new accrued
        assert_eq!(registry.event("s.spin_checks").get(), 3);
        assert_eq!(registry.event("s.checks").get(), 5);
        assert_eq!(registry.event("s.fast_checks").get(), 0);
    }

    #[test]
    fn metered_sharded_counter_shares_the_sink() {
        use crate::ShardedCounter;
        let registry = Arc::new(Registry::new());
        let c: MeteredCounter<ShardedCounter> = MeteredCounter::builder()
            .metrics(&registry, "sc")
            .shards(4)
            .build();
        c.increment(5);
        c.check(5);
        c.publish_stats();
        assert!(registry.event("sc.increments").get() >= 1);
    }

    #[test]
    fn resume_and_reset_round_trip() {
        use crate::ResumableCounter;
        let mut c: MeteredCounter = MeteredCounter::resume_from(40);
        assert_eq!(c.debug_value(), 40);
        c.reset();
        assert_eq!(c.debug_value(), 0);
    }

    /// `reset` clears the value, not the stats, so the publication baseline
    /// must survive it or the next publish re-counts everything before it.
    #[test]
    fn reset_does_not_republish_earlier_counts() {
        let registry = Arc::new(Registry::new());
        let mut c = metered(&registry);
        for _ in 0..5 {
            c.increment(1);
        }
        c.publish_stats();
        c.reset();
        c.publish_stats();
        assert_eq!(registry.event("m.increments").get(), 5);
    }
}
