//! [`Supervisor`]: a registry of counters that turns silent stalls into
//! wait-graph diagnostics.
//!
//! The paper's Section 6 guarantees deadlock-freedom only when every thread
//! delivers its increments. The supervisor closes the gap operationally: it
//! holds weak references to registered counters, tracks outstanding
//! [increment obligations](crate::Obligation), and on demand (or on a
//! no-progress interval, from a background watch thread) reports per counter
//! the value, the outstanding obligations, and the occupied waiting levels —
//! and distinguishes a counter that is **never satisfiable** (some waited
//! level exceeds `value + outstanding obligations`: no promised increment
//! can reach it) from one that is merely slow. Optionally it poisons
//! provably-stuck counters so the blocked threads fail with a cause.

use crate::builder::MetricsSink;
use crate::error::FailureInfo;
use crate::obligation::{Obligation, SupervisedObligation};
use crate::stats::StatsSnapshot;
use crate::traits::{CounterDiagnostics, HealthStatus, MonotonicCounter, WaitingLevel};
use crate::{Counter, Value};
use mc_metrics::{Event, Registry};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Acquire};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Lock recovery for the supervisor's internal mutexes: a thread that
/// panicked while holding one (a user clone mid-`register`, a tick that
/// unwound) must not cascade a `PoisonError` panic into unrelated threads —
/// in particular the background watch thread, whose silent death would turn
/// the stall detector itself into a silent stall. Every structure guarded
/// here (registry `Vec`, report `Option`, handle `Option`, scraped
/// snapshot) is valid at every intermediate step of its critical sections,
/// so recovering the guard is sound.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a supervisor needs from a counter: the synchronization surface (to
/// poison it) plus the diagnostics surface (to observe value and waiters).
///
/// Blanket-implemented for every type providing both, so any counter in this
/// crate — and any wrapper that forwards both traits — can be registered.
pub trait SupervisedCounter: MonotonicCounter + CounterDiagnostics {}

impl<C: MonotonicCounter + CounterDiagnostics + ?Sized> SupervisedCounter for C {}

/// Configuration for a [`Supervisor`]'s background watch thread.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How often the watch thread samples the registered counters. Two
    /// consecutive samples with no value progress while threads wait produce
    /// a stall report.
    pub interval: Duration,
    /// When `true`, counters diagnosed [`StallVerdict::NeverSatisfiable`] in
    /// a stall report are poisoned, converting the hang into propagated
    /// failures.
    pub poison_stuck: bool,
    /// When set, a counter reporting [`HealthStatus::Degraded`] for longer
    /// than this deadline is force-poisoned by the watch thread: degraded
    /// mode is a *temporary* availability trade, and a disk that never comes
    /// back must eventually become a propagated failure rather than an
    /// unbounded replay queue. `None` (the default) never force-poisons.
    pub degrade_deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            interval: Duration::from_millis(200),
            poison_stuck: false,
            degrade_deadline: None,
        }
    }
}

/// Per-counter stall classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallVerdict {
    /// No thread is waiting on this counter.
    Idle,
    /// Threads wait, and every waited level is within reach of the value
    /// plus the outstanding obligations: progress is possible ("slow").
    Slow,
    /// Some waited level exceeds `value + outstanding obligations`: no
    /// promised increment can satisfy it, so the wait can never complete.
    NeverSatisfiable,
    /// The counter's producer is being restarted by a supervision tree
    /// (reported via [`Supervisor::note_restarting`]): the missing
    /// increments are expected back once the replacement worker runs, so
    /// the counter must be neither classified stuck nor poisoned while the
    /// restart is pending.
    Restarting {
        /// How many times the producer has been restarted so far.
        attempt: u32,
        /// The backoff delay before the replacement worker starts.
        next_backoff: Duration,
    },
}

impl StallVerdict {
    /// A stable machine-readable label for this verdict, independent of the
    /// variant's payload: `"idle"`, `"slow"`, `"never_satisfiable"`, or
    /// `"restarting"`. Used as a metric-name component by the observability
    /// layer ([`Supervisor::attach_metrics`] publishes
    /// `<prefix>.verdict.<label>`), so it must never change shape between
    /// releases.
    pub fn as_label(&self) -> &'static str {
        match self {
            StallVerdict::Idle => "idle",
            StallVerdict::Slow => "slow",
            StallVerdict::NeverSatisfiable => "never_satisfiable",
            StallVerdict::Restarting { .. } => "restarting",
        }
    }
}

impl fmt::Display for StallVerdict {
    /// A stable one-line rendering, consumed by log scrapers and the metrics
    /// exporter: the restarting backoff is canonical integer milliseconds
    /// (`backoff 8ms`), never `Debug` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallVerdict::Idle => f.write_str("idle"),
            StallVerdict::Slow => f.write_str("slow"),
            StallVerdict::NeverSatisfiable => f.write_str("never satisfiable"),
            StallVerdict::Restarting {
                attempt,
                next_backoff,
            } => write!(
                f,
                "restarting (attempt {attempt}, backoff {}ms)",
                next_backoff.as_millis()
            ),
        }
    }
}

/// The observed state of one registered counter.
#[derive(Debug, Clone)]
pub struct CounterReport {
    /// The name the counter was registered under.
    pub name: String,
    /// The counter value at sampling time.
    pub value: Value,
    /// Sum of increment amounts still owed by live
    /// [supervised obligations](Supervisor::obligation).
    pub outstanding_obligations: Value,
    /// Occupied waiting levels (empty for implementations without
    /// introspectable queues).
    pub waiters: Vec<WaitingLevel>,
    /// The poisoning cause, if the counter is already poisoned.
    pub poisoned: Option<FailureInfo>,
    /// The stall classification for this counter.
    pub verdict: StallVerdict,
    /// The counter's backing-resource health at sampling time
    /// ([`CounterDiagnostics::health`], with poisoned taking precedence).
    pub health: HealthStatus,
}

impl fmt::Display for CounterReport {
    /// One log-friendly line:
    /// `'jobs': value 41 +5 owed, waiters [9×1], never satisfiable`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "'{}': value {} +{} owed",
            self.name, self.value, self.outstanding_obligations
        )?;
        if !self.waiters.is_empty() {
            write!(f, ", waiters [")?;
            for (i, w) in self.waiters.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}\u{d7}{}", w.level, w.threads)?;
            }
            write!(f, "]")?;
        }
        write!(f, ", {}", self.verdict)?;
        if let Some(info) = &self.poisoned {
            write!(f, ", poisoned: {}", info.message())?;
        }
        if self.health.is_degraded() {
            write!(f, ", {}", self.health)?;
        }
        Ok(())
    }
}

/// A wait-graph diagnostic over every registered counter.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// One report per live registered counter.
    pub counters: Vec<CounterReport>,
}

impl StallReport {
    /// The counters whose waits can provably never complete.
    pub fn stuck(&self) -> Vec<&CounterReport> {
        self.counters
            .iter()
            .filter(|c| c.verdict == StallVerdict::NeverSatisfiable)
            .collect()
    }

    /// Whether any registered counter has waiting threads.
    pub fn has_waiters(&self) -> bool {
        self.counters.iter().any(|c| !c.waiters.is_empty())
    }

    /// The counters currently serving in degraded mode (backing resource
    /// down, operations queued for replay).
    pub fn degraded(&self) -> Vec<&CounterReport> {
        self.counters
            .iter()
            .filter(|c| c.health.is_degraded())
            .collect()
    }
}

impl fmt::Display for StallReport {
    /// One log-friendly line: a counter count followed by each counter's
    /// one-line [`CounterReport`] summary, `|`-separated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stall report: {} counter(s)", self.counters.len())?;
        for c in &self.counters {
            write!(f, " | {c}")?;
        }
        Ok(())
    }
}

/// One registration. A counter may be registered under several names, and
/// several counters under one name: no pass looks a counter up by name.
#[derive(Clone)]
struct Entry {
    name: String,
    counter: Weak<dyn SupervisedCounter>,
    /// Sum of amounts owed by live supervised obligations on this counter.
    obligations: Arc<AtomicU64>,
    /// The counter's stats as last published by a scrape
    /// ([`Supervisor::attach_metrics`]), so each pass adds only the gain.
    published: Arc<Mutex<StatsSnapshot>>,
    /// `(attempt, next_backoff)` while the counter's producer restarts
    /// ([`Supervisor::note_restarting`]): overrides the stall verdict.
    restarting: Option<(u32, Duration)>,
}

/// A registered counter and its report from one sampling pass.
type Sample = (Arc<dyn SupervisedCounter>, CounterReport);

/// The monotone counts of `s`, named as a scrape publishes them. Live
/// counts and high-water marks are levels, not events, so they are left
/// out.
fn monotone_counts(s: &StatsSnapshot) -> [(&'static str, u64); 14] {
    [
        ("increments", s.increments),
        ("checks", s.checks),
        ("immediate_checks", s.immediate_checks),
        ("suspensions", s.suspensions),
        ("nodes_created", s.nodes_created),
        ("nodes_freed", s.nodes_freed),
        ("notifies", s.notifies),
        ("fast_increments", s.fast_increments),
        ("fast_checks", s.fast_checks),
        ("spin_checks", s.spin_checks),
        ("slow_path_entries", s.slow_path_entries),
        ("io_retries", s.io_retries),
        ("timeouts", s.timeouts),
        ("poisons", s.poisons),
    ]
}

/// Supervision observability, attached via [`Supervisor::attach_metrics`].
/// Verdict tallies use the stable [`StallVerdict::as_label`] names; health
/// transitions are counted whenever a counter's
/// [`HealthStatus::as_label`] changes between diagnoses.
struct SupervisorMetrics {
    /// Where the registered counters' stats are published.
    sink: MetricsSink,
    /// `diagnose` invocations (manual and watch-thread).
    diagnoses: Arc<Event>,
    /// Watch-thread samples.
    ticks: Arc<Event>,
    /// No-progress stall reports recorded by the watch thread.
    stall_reports: Arc<Event>,
    /// Producer restarts reported via [`Supervisor::note_restarting`].
    restarts_noted: Arc<Event>,
    /// Counters poisoned by this supervisor (stuck, degraded, or poison_all).
    poisons_issued: Arc<Event>,
    /// Counter health-label changes observed between diagnoses.
    health_transitions: Arc<Event>,
    /// Per-verdict tallies, one event per [`StallVerdict::as_label`] value.
    verdict_idle: Arc<Event>,
    verdict_slow: Arc<Event>,
    verdict_never_satisfiable: Arc<Event>,
    verdict_restarting: Arc<Event>,
    /// Last observed health label per counter address, for transition
    /// counting; guarded, like the rest, by [`Shared::metrics`].
    last_health: HashMap<usize, &'static str>,
}

impl SupervisorMetrics {
    fn attach(sink: MetricsSink) -> Self {
        SupervisorMetrics {
            diagnoses: sink.event("diagnoses"),
            ticks: sink.event("ticks"),
            stall_reports: sink.event("stall_reports"),
            restarts_noted: sink.event("restarts_noted"),
            poisons_issued: sink.event("poisons_issued"),
            health_transitions: sink.event("health_transitions"),
            verdict_idle: sink.event("verdict.idle"),
            verdict_slow: sink.event("verdict.slow"),
            verdict_never_satisfiable: sink.event("verdict.never_satisfiable"),
            verdict_restarting: sink.event("verdict.restarting"),
            last_health: HashMap::new(),
            sink,
        }
    }

    /// Tallies one diagnose pass over `samples`, rebuilding the health map
    /// from it as [`Supervisor::tick`] rebuilds its values.
    fn record_diagnosis(&mut self, samples: &[Sample]) {
        self.diagnoses.incr();
        let mut health = HashMap::new();
        for (counter, c) in samples {
            match c.verdict {
                StallVerdict::Idle => self.verdict_idle.incr(),
                StallVerdict::Slow => self.verdict_slow.incr(),
                StallVerdict::NeverSatisfiable => self.verdict_never_satisfiable.incr(),
                StallVerdict::Restarting { .. } => self.verdict_restarting.incr(),
            }
            // A counter registered under several names counts once.
            let key = Arc::as_ptr(counter) as *const () as usize;
            let label = c.health.as_label();
            if health.insert(key, label).is_none()
                && self.last_health.get(&key).is_some_and(|p| *p != label)
            {
                self.health_transitions.incr();
            }
        }
        self.last_health = health;
    }
}

struct Shared {
    entries: Mutex<Vec<Entry>>,
    last_report: Mutex<Option<StallReport>>,
    config: SupervisorConfig,
    /// Observability hooks, attached (at most once) via
    /// [`Supervisor::attach_metrics`]. `None` — the default — records
    /// nothing.
    metrics: Mutex<Option<SupervisorMetrics>>,
}

impl Shared {
    fn with_metrics(&self, f: impl FnOnce(&mut SupervisorMetrics)) {
        if let Some(m) = lock_recover(&self.metrics).as_mut() {
            f(m);
        }
    }
}

/// A running watch thread, owned by the [`Supervisor`] clones that share
/// it. Dropping it raises `stop` and joins the thread.
struct Watch {
    /// Reaches 1 when the thread must exit; the thread holds a clone until
    /// it exits.
    stop: Arc<Counter>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Watch {
    fn drop(&mut self) {
        self.stop.increment(1);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A registry of counters with stall diagnostics; cheaply cloneable (clones
/// share the registry). See the module docs.
///
/// # Watch thread
///
/// [`start`](Self::start) spawns a watch thread that the clones share.
/// [`stop`](Self::stop), or the drop of the last clone, stops and joins it;
/// `start` after `stop` spawns a fresh one.
///
/// # Example
///
/// ```
/// use mc_counter::{Counter, Supervisor, StallVerdict, MonotonicCounter};
/// use std::sync::Arc;
///
/// let sup = Supervisor::new();
/// let done = Arc::new(Counter::default());
/// sup.register("done", &done);
/// let report = sup.diagnose();
/// assert_eq!(report.counters[0].verdict, StallVerdict::Idle);
/// ```
#[derive(Clone)]
pub struct Supervisor {
    shared: Arc<Shared>,
    /// Shared by the clones and by nothing else, so the last clone's drop
    /// drops the watch thread's handle, which stops and joins it.
    watch: Arc<Mutex<Option<Watch>>>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::new()
    }
}

impl Supervisor {
    /// Creates a supervisor with the default configuration (no watch thread
    /// until [`start`](Self::start) is called).
    pub fn new() -> Self {
        Self::with_config(SupervisorConfig::default())
    }

    /// Creates a supervisor with an explicit configuration.
    pub fn with_config(config: SupervisorConfig) -> Self {
        Supervisor {
            shared: Arc::new(Shared {
                entries: Mutex::new(Vec::new()),
                last_report: Mutex::new(None),
                config,
                metrics: Mutex::new(None),
            }),
            watch: Arc::default(),
        }
    }

    /// Publishes this supervisor's metrics under `prefix` in `registry`:
    /// `diagnoses`, `ticks`, `stall_reports`, `restarts_noted`,
    /// `poisons_issued`, `health_transitions`, and per-verdict tallies
    /// `verdict.<label>` (the stable [`StallVerdict::as_label`] names).
    ///
    /// Every diagnosing pass ([`diagnose`](Self::diagnose),
    /// [`poison_stuck`](Self::poison_stuck), each watch tick) also scrapes
    /// each registration's [`stats`](CounterDiagnostics::stats): what each
    /// monotone count gained since the registration's last scrape is added
    /// to `<prefix>.<name>.<stat>` (`increments`, `checks`, `timeouts`,
    /// `poisons`, ...), so counters that share a name add up. Counters pay
    /// nothing for it between scrapes. Shared across clones; attaching
    /// again replaces the previous sink.
    pub fn attach_metrics(&self, registry: &Arc<Registry>, prefix: impl Into<String>) {
        let sink = MetricsSink::new(Arc::clone(registry), prefix);
        *lock_recover(&self.shared.metrics) = Some(SupervisorMetrics::attach(sink));
    }

    /// Registers `counter` under `name`. The supervisor holds only a weak
    /// reference: a dropped counter leaves every diagnosis at once, and the
    /// registry at the next registration.
    pub fn register<C>(&self, name: impl Into<String>, counter: &Arc<C>)
    where
        C: SupervisedCounter + 'static,
    {
        let counter: Arc<dyn SupervisedCounter> = Arc::clone(counter) as _;
        self.register_dyn(name, &counter);
    }

    /// [`register`](Self::register) for a counter that is already
    /// type-erased (`Arc<dyn SupervisedCounter>`) — how supervision trees
    /// register the counters their child specs collected.
    pub fn register_dyn(&self, name: impl Into<String>, counter: &Arc<dyn SupervisedCounter>) {
        let mut entries = lock_recover(&self.shared.entries);
        entries.retain(|e| e.counter.strong_count() > 0);
        entries.push(Entry {
            name: name.into(),
            counter: Arc::downgrade(counter),
            obligations: Arc::new(AtomicU64::new(0)),
            published: Arc::default(),
            restarting: None,
        });
    }

    /// Removes every entry registered under `name`; returns `true` when at
    /// least one entry was removed. Any pending
    /// [`note_restarting`](Self::note_restarting) mark goes with its entry.
    ///
    /// Unregistering is optional — a dropped counter leaves the registry on
    /// its own — but lets a supervision tree retire a child's counters
    /// eagerly while other clones still hold the `Arc`.
    pub fn unregister(&self, name: &str) -> bool {
        let mut entries = lock_recover(&self.shared.entries);
        let before = entries.len();
        entries.retain(|e| e.name != name);
        entries.len() != before
    }

    /// Marks the counters registered under `name` as having their producer
    /// restarted: until [`clear_restarting`](Self::clear_restarting), their
    /// stall verdict is [`StallVerdict::Restarting`] — never
    /// [`NeverSatisfiable`](StallVerdict::NeverSatisfiable) — so the watch
    /// thread will not poison them while the replacement worker is pending.
    pub fn note_restarting(&self, name: impl Into<String>, attempt: u32, next_backoff: Duration) {
        self.shared.with_metrics(|m| m.restarts_noted.incr());
        let name = name.into();
        for e in lock_recover(&self.shared.entries).iter_mut() {
            if e.name == name {
                e.restarting = Some((attempt, next_backoff));
            }
        }
    }

    /// Clears the pending [`note_restarting`](Self::note_restarting) marks
    /// under `name` (normally when the replacement worker starts); returns
    /// `true` when a mark was present.
    pub fn clear_restarting(&self, name: &str) -> bool {
        let mut cleared = false;
        for e in lock_recover(&self.shared.entries).iter_mut() {
            if e.name == name {
                cleared |= e.restarting.take().is_some();
            }
        }
        cleared
    }

    /// Takes on a supervised obligation to increment the counter registered
    /// under `name` by `amount`: like
    /// [`CounterExt::obligation`](crate::CounterExt::obligation)
    /// (delivers on normal drop, poisons on unwind-drop), and additionally
    /// counted in [`CounterReport::outstanding_obligations`] so the
    /// supervisor can tell "increment still owed" from "never coming".
    ///
    /// Returns `None` when no live counter is registered under `name`.
    pub fn obligation(&self, name: &str, amount: Value) -> Option<SupervisedObligation> {
        self.take_obligation(name, amount, false)
    }

    /// Like [`obligation`](Self::obligation), but the unwind-drop behavior
    /// is **rollback** instead of poison: the owed amount is released from
    /// the supervisor's accounting and the counter is left untouched. Used
    /// by supervision trees, where a panicking worker's obligations must be
    /// neither fulfilled (the replacement re-acquires them) nor leaked
    /// (which would inflate the reachability math) nor poisoned (the tree,
    /// not the obligation, decides restart-versus-escalate).
    ///
    /// Returns `None` when no live counter is registered under `name`.
    pub fn restartable_obligation(
        &self,
        name: &str,
        amount: Value,
    ) -> Option<SupervisedObligation> {
        self.take_obligation(name, amount, true)
    }

    fn take_obligation(
        &self,
        name: &str,
        amount: Value,
        rolls_back: bool,
    ) -> Option<SupervisedObligation> {
        let entries = lock_recover(&self.shared.entries);
        let mut named = entries.iter().filter(|e| e.name == name);
        let (counter, e) = named.find_map(|e| Some((e.counter.upgrade()?, e)))?;
        let ledger = Some(&e.obligations);
        Some(Obligation::new(counter, amount, ledger, rolls_back))
    }

    /// Samples every live registered counter and classifies its stall state.
    ///
    /// The registry lock is held only to collect the live counters; each
    /// counter is read after it is released, so a counter unregistered
    /// during the pass may still appear in the report.
    pub fn diagnose(&self) -> StallReport {
        let counters = Self::diagnose_shared(&self.shared).into_iter();
        StallReport {
            counters: counters.map(|(_, c)| c).collect(),
        }
    }

    /// A [`sample`](Self::sample) pass, tallied as a diagnosis, that
    /// scrapes each counter's stats when metrics are attached.
    fn diagnose_shared(shared: &Shared) -> Vec<Sample> {
        let scrape = lock_recover(&shared.metrics)
            .as_ref()
            .map(|m| m.sink.clone());
        let samples = Self::sample(shared, scrape.as_ref());
        shared.with_metrics(|m| m.record_diagnosis(&samples));
        samples
    }

    /// The sampling pass: upgrades the registered counters under the
    /// registry lock, then reads each one after releasing it, so a slow
    /// read never holds up `register`, `unregister` or `obligation`. With
    /// a `scrape` sink it also publishes each entry's stats there.
    fn sample(shared: &Shared, scrape: Option<&MetricsSink>) -> Vec<Sample> {
        let entries: Vec<_> = lock_recover(&shared.entries)
            .iter()
            .filter_map(|e| Some((e.counter.upgrade()?, e.clone())))
            .collect();
        let mut counters = Vec::with_capacity(entries.len());
        for (c, e) in entries {
            // Each read at least as fresh as the one before: a waiter that
            // registered after an increment, or an obligation released
            // after its delivery, is paired with a value that includes it,
            // so `reach` never reads low.
            let waiters = c.waiters();
            let outstanding = e.obligations.load(Acquire);
            let value = c.debug_value();
            let reach = value.saturating_add(outstanding);
            let verdict = if let Some((attempt, next_backoff)) = e.restarting {
                // A pending restart overrides the reachability math: the
                // failed producer's obligations were rolled back, so waits
                // can look never-satisfiable exactly while the replacement
                // that will satisfy them is being scheduled.
                StallVerdict::Restarting {
                    attempt,
                    next_backoff,
                }
            } else if waiters.is_empty() {
                StallVerdict::Idle
            } else if waiters.iter().any(|w| w.level > reach) {
                StallVerdict::NeverSatisfiable
            } else {
                StallVerdict::Slow
            };
            let poisoned = c.poison_info();
            let health = if poisoned.is_some() {
                HealthStatus::Poisoned
            } else {
                c.health()
            };
            if let Some(sink) = scrape {
                Self::publish_stats(sink, &e, c.as_ref());
            }
            let report = CounterReport {
                name: e.name,
                value,
                outstanding_obligations: outstanding,
                waiters,
                poisoned,
                verdict,
                health,
            };
            counters.push((c, report));
        }
        counters
    }

    /// Adds what `counter`'s monotone stats gained since the entry's last
    /// scrape to `<prefix>.<name>.<stat>`. The stats are read under the
    /// entry's own lock, so concurrent passes publish each gain once.
    fn publish_stats(sink: &MetricsSink, e: &Entry, counter: &dyn SupervisedCounter) {
        let mut published = lock_recover(&e.published);
        let now = counter.stats();
        for ((stat, now), (_, before)) in monotone_counts(&now)
            .into_iter()
            .zip(monotone_counts(&published))
        {
            sink.event(&format!("{}.{stat}", e.name))
                .add(now.saturating_sub(before));
        }
        *published = now;
    }

    /// Poisons every live registered counter with `info`. Used by deadline
    /// supervision (`mc_sthreads::run_with_deadline`) to unblock and
    /// terminate a stuck program's threads.
    pub fn poison_all(&self, info: FailureInfo) {
        Self::poison(&self.shared, &Self::sample(&self.shared, None), |_| {
            Some(info.clone())
        });
    }

    /// Poisons the counters currently diagnosed
    /// [`StallVerdict::NeverSatisfiable`]; returns how many were poisoned.
    pub fn poison_stuck(&self, info: FailureInfo) -> usize {
        let samples = Self::diagnose_shared(&self.shared);
        Self::poison(&self.shared, &samples, |c| {
            (c.verdict == StallVerdict::NeverSatisfiable).then(|| info.clone())
        })
    }

    /// Force-poisons every sampled counter that has been
    /// [`HealthStatus::Degraded`] for at least `deadline`; the watch
    /// thread's step when [`SupervisorConfig::degrade_deadline`] is set.
    fn poison_degraded(shared: &Shared, samples: &[Sample], deadline: Duration) {
        Self::poison(shared, samples, |c| {
            let HealthStatus::Degraded { since, queued } = c.health else {
                return None;
            };
            (since.elapsed() >= deadline).then(|| {
                FailureInfo::new(format!(
                    "supervisor: counter '{}' degraded beyond deadline ({deadline:?}, \
                     {queued} queued record(s) unsynced)",
                    c.name
                ))
            })
        });
    }

    /// The one poisoning step: poisons each sampled counter that `cause`
    /// gives a failure for, and returns how many. It runs outside the
    /// registry lock because a durable counter's `poison` blocks until its
    /// flusher acknowledges, up to a resync interval while degraded.
    fn poison(
        shared: &Shared,
        samples: &[Sample],
        cause: impl Fn(&CounterReport) -> Option<FailureInfo>,
    ) -> usize {
        let targets: Vec<_> = samples
            .iter()
            .filter_map(|(counter, c)| Some((counter, cause(c)?)))
            .collect();
        shared.with_metrics(|m| m.poisons_issued.add(targets.len() as u64));
        for (counter, info) in &targets {
            counter.poison(info.clone());
        }
        targets.len()
    }

    /// The stall report produced by the watch thread's most recent
    /// no-progress interval, if any.
    pub fn last_report(&self) -> Option<StallReport> {
        lock_recover(&self.shared.last_report).clone()
    }

    /// Starts the background watch thread (idempotent while it runs; see
    /// the [type docs](Self#watch-thread) for its lifecycle). Every
    /// [`SupervisorConfig::interval`] it samples the registry; an interval
    /// with no value progress while threads wait records a stall report
    /// (see [`last_report`](Self::last_report)) and — with
    /// [`SupervisorConfig::poison_stuck`] — poisons provably-stuck counters.
    pub fn start(&self) {
        let mut watch = lock_recover(&self.watch);
        if watch.is_some() {
            return;
        }
        let weak = Arc::downgrade(&self.shared);
        let stop = Arc::new(Counter::default());
        let thread_stop = Arc::clone(&stop);
        let interval = self.shared.config.interval;
        let handle = std::thread::Builder::new()
            .name("mc-supervisor".into())
            .spawn(move || {
                let mut prev = HashMap::new();
                while thread_stop.check_timeout(1, interval).is_err() {
                    let Some(shared) = weak.upgrade() else {
                        break;
                    };
                    Self::tick(&shared, &mut prev);
                }
            })
            .expect("failed to spawn supervisor watch thread");
        *watch = Some(Watch {
            stop,
            thread: Some(handle),
        });
    }

    /// One watch-thread sample: diagnose, enforce the degrade deadline,
    /// detect no-progress, record/poison. `prev` holds each counter's value
    /// at the previous tick, keyed by the counter's address, so counters
    /// that share a name are watched one by one.
    fn tick(shared: &Shared, prev: &mut HashMap<usize, Value>) {
        shared.with_metrics(|m| m.ticks.incr());
        let samples = Self::diagnose_shared(shared);
        // Degrade-deadline enforcement runs on every tick, independent of
        // the no-progress detector: a degraded counter can keep making
        // in-memory progress forever while its replay queue never drains.
        if let Some(deadline) = shared.config.degrade_deadline {
            Self::poison_degraded(shared, &samples, deadline);
        }
        let values: HashMap<usize, Value> = samples
            .iter()
            .map(|(counter, c)| (Arc::as_ptr(counter) as *const () as usize, c.value))
            .collect();
        let progressed = values.iter().any(|(key, v)| prev.get(key) != Some(v));
        *prev = values;
        if progressed || samples.iter().all(|(_, c)| c.waiters.is_empty()) {
            return;
        }
        shared.with_metrics(|m| m.stall_reports.incr());
        // Publish the report before poisoning, so a waiter the poison wakes
        // already finds the verdict that justified it.
        let counters = samples.iter().map(|(_, c)| c.clone()).collect();
        *lock_recover(&shared.last_report) = Some(StallReport { counters });
        if shared.config.poison_stuck {
            Self::poison(shared, &samples, |c| {
                (c.verdict == StallVerdict::NeverSatisfiable).then(|| {
                    FailureInfo::new(format!(
                        "supervisor: counter '{}' is stuck (value {} + {} \
                         outstanding obligations cannot satisfy waited levels)",
                        c.name, c.value, c.outstanding_obligations
                    ))
                })
            });
        }
    }

    /// Stops the watch thread and waits for it to exit (no-op if it is not
    /// running). Also happens when the last clone is dropped.
    pub fn stop(&self) {
        let watch = lock_recover(&self.watch).take();
        drop(watch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{CheckError, CounterOverflowError};
    use crate::{Counter, SpinCounter};
    use std::thread;

    #[test]
    fn empty_supervisor_reports_nothing() {
        let sup = Supervisor::new();
        let report = sup.diagnose();
        assert!(report.counters.is_empty());
        assert!(!report.has_waiters());
        assert!(report.stuck().is_empty());
    }

    #[test]
    fn idle_counter_is_idle() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("c", &c);
        c.increment(4);
        let report = sup.diagnose();
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].value, 4);
        assert_eq!(report.counters[0].verdict, StallVerdict::Idle);
    }

    #[test]
    fn dropped_counter_leaves_the_registry() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("gone", &c);
        drop(c);
        assert!(sup.diagnose().counters.is_empty());
    }

    #[test]
    fn obligations_reach_a_counter_registered_under_a_dropped_counters_name() {
        let sup = Supervisor::new();
        let old = Arc::new(Counter::default());
        sup.register("c", &old);
        let c = Arc::new(Counter::default());
        sup.register("c", &c);
        drop(old);
        sup.obligation("c", 1).expect("live counter").fulfill();
        sup.restartable_obligation("c", 2)
            .expect("live counter")
            .fulfill();
        assert_eq!(c.debug_value(), 3);
    }

    #[test]
    fn register_and_drop_rounds_do_not_grow_the_registry() {
        let sup = Supervisor::new();
        for _ in 0..1_000 {
            sup.register("c", &Arc::new(Counter::default()));
        }
        let n = lock_recover(&sup.shared.entries).len();
        assert!(n <= 1, "{n} entries");
    }

    #[test]
    fn stuck_vs_slow_distinction() {
        let sup = Supervisor::new();
        let slow = Arc::new(Counter::default());
        let stuck = Arc::new(Counter::default());
        sup.register("slow", &slow);
        sup.register("stuck", &stuck);

        // "slow": a waiter at level 2, with an obligation for 5 outstanding
        // — satisfiable once the obligation is delivered.
        let ob = sup.obligation("slow", 5).unwrap();
        let slow2 = Arc::clone(&slow);
        let h_slow = thread::spawn(move || slow2.wait(2));
        // "stuck": a waiter at level 9 with nothing promised.
        let stuck2 = Arc::clone(&stuck);
        let h_stuck = thread::spawn(move || stuck2.wait_timeout(9, Duration::from_secs(10)));
        while slow.waiters().is_empty() || stuck.waiters().is_empty() {
            thread::yield_now();
        }

        let report = sup.diagnose();
        let by_name = |n: &str| report.counters.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("slow").verdict, StallVerdict::Slow);
        assert_eq!(by_name("slow").outstanding_obligations, 5);
        assert_eq!(by_name("stuck").verdict, StallVerdict::NeverSatisfiable);
        let shown = report.to_string();
        assert!(shown.contains("never satisfiable"), "got: {shown}");

        // Poisoning only the stuck counter releases its waiter with a cause
        // while the slow one proceeds normally.
        assert_eq!(sup.poison_stuck(FailureInfo::new("diagnosed stall")), 1);
        assert!(matches!(
            h_stuck.join().unwrap(),
            Err(CheckError::Poisoned(_))
        ));
        ob.fulfill();
        assert!(h_slow.join().unwrap().is_ok());
        assert!(slow.poison_info().is_none(), "slow counter untouched");
    }

    #[test]
    fn obligation_accounting_tracks_lifecycle() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("c", &c);
        let ob = sup.obligation("c", 3).unwrap();
        assert_eq!(sup.diagnose().counters[0].outstanding_obligations, 3);
        ob.fulfill();
        assert_eq!(sup.diagnose().counters[0].outstanding_obligations, 0);
        assert_eq!(c.debug_value(), 3);
        assert!(sup.obligation("missing", 1).is_none());
    }

    #[test]
    fn supervised_obligation_poisons_on_unwind() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("c", &c);
        let sup2 = sup.clone();
        let h = thread::spawn(move || {
            let _ob = sup2.obligation("c", 4).unwrap();
            panic!("supervised producer died");
        });
        assert!(h.join().is_err());
        assert!(c.poison_info().is_some());
        assert_eq!(
            sup.diagnose().counters[0].outstanding_obligations,
            0,
            "abandoned obligation must release its accounting"
        );
    }

    #[test]
    fn ledger_is_released_when_delivery_panics() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::builder().initial(u64::MAX - 1).build());
        sup.register("c", &c);
        let ob = sup.obligation("c", 5).unwrap();
        let delivery = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ob.fulfill()));
        assert!(delivery.is_err(), "the delivery overflows");
        assert_eq!(sup.diagnose().counters[0].outstanding_obligations, 0);
    }

    #[test]
    fn watch_thread_diagnoses_and_poisons_stuck_counter() {
        let sup = Supervisor::with_config(SupervisorConfig {
            interval: Duration::from_millis(20),
            poison_stuck: true,
            degrade_deadline: None,
        });
        let c = Arc::new(Counter::default());
        sup.register("stuck", &c);
        sup.start();
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait(100));
        // The waiter blocks at level 100 with no obligations: within two
        // intervals the watch thread must poison it.
        let err = h.join().unwrap().unwrap_err();
        let CheckError::Poisoned(info) = err else {
            panic!("expected poisoning, got {err:?}");
        };
        assert!(info.message().contains("stuck"), "got: {}", info.message());
        let report = sup.last_report().expect("stall report recorded");
        assert_eq!(report.counters[0].verdict, StallVerdict::NeverSatisfiable);
        sup.stop();
    }

    #[test]
    fn watch_thread_leaves_progressing_counters_alone() {
        let sup = Supervisor::with_config(SupervisorConfig {
            interval: Duration::from_millis(10),
            poison_stuck: true,
            degrade_deadline: None,
        });
        let c = Arc::new(Counter::default());
        sup.register("busy", &c);
        sup.start();
        // Keep making progress: the supervisor must never poison.
        for _ in 0..10 {
            c.increment(1);
            thread::sleep(Duration::from_millis(5));
        }
        assert!(c.poison_info().is_none());
        sup.stop();
    }

    #[test]
    fn drop_of_last_clone_joins_watch_thread() {
        let sup = Supervisor::with_config(SupervisorConfig {
            interval: Duration::from_millis(10),
            poison_stuck: false,
            degrade_deadline: None,
        });
        sup.start();
        let clone = sup.clone();
        drop(sup);
        drop(clone); // must not hang and must reap the thread
    }

    /// Regression test for the drop/join race: `Arc::strong_count` could see
    /// the watch thread's transient upgrade mid-tick and skip the join,
    /// leaking the thread. Drop must always reap it — asserted via a flag
    /// the watch loop sets on exit.
    #[test]
    fn drop_always_reaps_watch_thread() {
        for _ in 0..50 {
            let sup = Supervisor::with_config(SupervisorConfig {
                // Zero interval keeps the thread ticking (and thus holding
                // its transient strong reference) almost continuously, which
                // is exactly the window the old strong_count check raced with.
                interval: Duration::from_millis(0),
                poison_stuck: false,
                degrade_deadline: None,
            });
            let c = Arc::new(Counter::default());
            sup.register("c", &c);
            sup.start();
            // The thread holds its clone of the stop counter until it exits.
            let exited = Arc::downgrade(
                &sup.watch
                    .lock()
                    .unwrap()
                    .as_ref()
                    .expect("watch thread started")
                    .stop,
            );
            drop(sup);
            assert!(
                exited.upgrade().is_none(),
                "watch thread survived supervisor drop"
            );
        }
    }

    /// Starts `sup`'s watch thread with a waiter stuck at 100 on `c`, and
    /// asserts that a stall is reported and the waiter released.
    fn assert_watch_releases_stuck_waiter(sup: &Supervisor, c: &Arc<Counter>) {
        sup.start();
        let c = Arc::clone(c);
        let h = thread::spawn(move || c.wait_timeout(100, Duration::from_secs(1)));
        assert!(
            matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))),
            "the watch thread must poison the stuck counter"
        );
        assert!(sup.last_report().is_some(), "stall report recorded");
        sup.stop();
    }

    fn watching_supervisor() -> Supervisor {
        Supervisor::with_config(SupervisorConfig {
            interval: Duration::from_millis(10),
            poison_stuck: true,
            degrade_deadline: None,
        })
    }

    #[test]
    fn start_after_stop_watches_again() {
        let sup = watching_supervisor();
        sup.start();
        sup.stop();
        let c = Arc::new(Counter::default());
        sup.register("stuck", &c);
        assert_watch_releases_stuck_waiter(&sup, &c);
    }

    #[test]
    fn watch_thread_watches_each_counter_that_shares_a_name() {
        // Two values under one name are not progress.
        let sup = watching_supervisor();
        let (a, b) = (Arc::new(Counter::default()), Arc::new(Counter::default()));
        a.increment(3);
        b.increment(5);
        sup.register("jobs", &a);
        sup.register("jobs", &b);
        assert_watch_releases_stuck_waiter(&sup, &a);
    }

    #[test]
    fn poison_stuck_poisons_each_counter_that_shares_a_name() {
        let sup = Supervisor::new();
        let counters = [Arc::new(Counter::default()), Arc::new(Counter::default())];
        let waiters: Vec<_> = counters
            .iter()
            .map(|c| {
                sup.register("jobs", c);
                let c = Arc::clone(c);
                thread::spawn(move || c.wait_timeout(9, Duration::from_secs(2)))
            })
            .collect();
        while counters.iter().any(|c| c.waiters().is_empty()) {
            thread::yield_now();
        }
        assert_eq!(sup.poison_stuck(FailureInfo::new("diagnosed stall")), 2);
        for h in waiters {
            assert!(matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))));
        }
    }

    #[test]
    fn unregister_removes_entries_and_restart_marks() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("gone", &c);
        sup.register("kept", &c);
        sup.note_restarting("gone", 1, Duration::from_millis(5));
        assert!(sup.unregister("gone"));
        assert!(!sup.unregister("gone"), "second unregister finds nothing");
        let report = sup.diagnose();
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].name, "kept");
        assert!(
            !sup.clear_restarting("gone"),
            "unregister must discard the restart mark"
        );
    }

    #[test]
    fn restarting_mark_overrides_never_satisfiable() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("worker", &c);
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait_timeout(9, Duration::from_secs(10)));
        while c.waiters().is_empty() {
            thread::yield_now();
        }
        assert_eq!(
            sup.diagnose().counters[0].verdict,
            StallVerdict::NeverSatisfiable
        );
        sup.note_restarting("worker", 2, Duration::from_millis(8));
        let report = sup.diagnose();
        assert_eq!(
            report.counters[0].verdict,
            StallVerdict::Restarting {
                attempt: 2,
                next_backoff: Duration::from_millis(8),
            }
        );
        assert!(
            report.stuck().is_empty(),
            "a restarting counter is never classified stuck"
        );
        assert_eq!(
            sup.poison_stuck(FailureInfo::new("diagnosed stall")),
            0,
            "poison_stuck must spare restarting counters"
        );
        let shown = report.to_string();
        assert!(shown.contains("restarting (attempt 2"), "got: {shown}");
        assert!(sup.clear_restarting("worker"));
        assert_eq!(
            sup.diagnose().counters[0].verdict,
            StallVerdict::NeverSatisfiable,
            "clearing the mark restores the reachability verdict"
        );
        c.increment(9);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn watch_thread_spares_restarting_counter() {
        let sup = Supervisor::with_config(SupervisorConfig {
            interval: Duration::from_millis(10),
            poison_stuck: true,
            degrade_deadline: None,
        });
        let c = Arc::new(Counter::default());
        sup.register("restarting", &c);
        sup.note_restarting("restarting", 1, Duration::from_millis(50));
        sup.start();
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait_timeout(50, Duration::from_secs(10)));
        while c.waiters().is_empty() {
            thread::yield_now();
        }
        // Give the watch thread several intervals to (wrongly) poison.
        thread::sleep(Duration::from_millis(60));
        assert!(
            c.poison_info().is_none(),
            "watch thread must not poison a counter whose producer is restarting"
        );
        c.increment(50);
        assert!(h.join().unwrap().is_ok());
        sup.stop();
    }

    #[test]
    fn restartable_obligation_rolls_back_on_unwind() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("c", &c);
        let sup2 = sup.clone();
        let h = thread::spawn(move || {
            let ob = sup2.restartable_obligation("c", 4).unwrap();
            assert_eq!(ob.owed(), 4);
            panic!("worker died; the tree will restart it");
        });
        assert!(h.join().is_err());
        assert!(
            c.poison_info().is_none(),
            "rollback must not poison — the tree decides restart vs escalate"
        );
        assert_eq!(c.debug_value(), 0, "rollback must not increment");
        assert_eq!(
            sup.diagnose().counters[0].outstanding_obligations,
            0,
            "rollback must release the accounting"
        );
        // The replacement re-acquires and fulfills.
        sup.restartable_obligation("c", 4).unwrap().fulfill();
        assert_eq!(c.debug_value(), 4);
        // Explicit rollback behaves like the unwind path.
        let ob = sup.restartable_obligation("c", 2).unwrap();
        ob.rollback();
        assert_eq!(c.debug_value(), 4);
        assert_eq!(sup.diagnose().counters[0].outstanding_obligations, 0);
        assert!(sup.restartable_obligation("missing", 1).is_none());
    }

    #[test]
    fn counter_report_displays_on_one_line() {
        let sup = Supervisor::new();
        let c = Arc::new(Counter::default());
        sup.register("jobs", &c);
        c.increment(3);
        let _ob = sup.obligation("jobs", 5).unwrap();
        let report = sup.diagnose();
        let line = report.counters[0].to_string();
        assert!(!line.contains('\n'), "one line, got: {line:?}");
        assert!(line.contains("'jobs'") && line.contains("value 3") && line.contains("+5 owed"));
        assert!(line.contains("idle"), "got: {line}");
        c.poison(FailureInfo::new("exploded"));
        let line = sup.diagnose().counters[0].to_string();
        assert!(line.contains("poisoned: exploded"), "got: {line}");
        let stall = sup.diagnose().to_string();
        assert!(
            !stall.contains('\n'),
            "stall report one line, got: {stall:?}"
        );
    }

    #[test]
    fn verdict_display_and_labels_are_stable() {
        // Pinned: the metrics exporter and log scrapers consume these forms.
        assert_eq!(StallVerdict::Idle.to_string(), "idle");
        assert_eq!(StallVerdict::Slow.to_string(), "slow");
        assert_eq!(
            StallVerdict::NeverSatisfiable.to_string(),
            "never satisfiable"
        );
        let restarting = StallVerdict::Restarting {
            attempt: 3,
            next_backoff: Duration::from_millis(250),
        };
        assert_eq!(
            restarting.to_string(),
            "restarting (attempt 3, backoff 250ms)"
        );
        assert_eq!(StallVerdict::Idle.as_label(), "idle");
        assert_eq!(StallVerdict::Slow.as_label(), "slow");
        assert_eq!(
            StallVerdict::NeverSatisfiable.as_label(),
            "never_satisfiable"
        );
        assert_eq!(restarting.as_label(), "restarting");
    }

    #[test]
    fn health_display_and_labels_are_stable() {
        assert_eq!(HealthStatus::Healthy.to_string(), "healthy");
        assert_eq!(HealthStatus::Poisoned.to_string(), "poisoned");
        let degraded = HealthStatus::Degraded {
            since: std::time::Instant::now(),
            queued: 7,
        };
        let shown = degraded.to_string();
        assert!(
            shown.starts_with("degraded (") && shown.ends_with("ms elapsed, 7 queued)"),
            "got: {shown}"
        );
        assert_eq!(HealthStatus::Healthy.as_label(), "healthy");
        assert_eq!(degraded.as_label(), "degraded");
        assert_eq!(HealthStatus::Poisoned.as_label(), "poisoned");
    }

    #[test]
    fn attached_metrics_count_verdicts_restarts_and_poisons() {
        let registry = Arc::new(Registry::new());
        let sup = Supervisor::new();
        sup.attach_metrics(&registry, "sup");
        let c = Arc::new(Counter::default());
        sup.register("worker", &c);
        sup.diagnose(); // idle
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.wait_timeout(9, Duration::from_secs(10)));
        while c.waiters().is_empty() {
            thread::yield_now();
        }
        sup.diagnose(); // never satisfiable
        sup.note_restarting("worker", 1, Duration::from_millis(5));
        sup.diagnose(); // restarting
        sup.clear_restarting("worker");
        assert_eq!(sup.poison_stuck(FailureInfo::new("stuck")), 1);
        assert!(matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))));
        assert_eq!(registry.event("sup.verdict.idle").get(), 1);
        // 2: the explicit diagnose plus poison_stuck's internal pass.
        assert_eq!(registry.event("sup.verdict.never_satisfiable").get(), 2);
        assert_eq!(registry.event("sup.verdict.restarting").get(), 1);
        assert_eq!(registry.event("sup.restarts_noted").get(), 1);
        assert_eq!(registry.event("sup.poisons_issued").get(), 1);
        // poison_stuck's internal diagnose pass observed the poisoned
        // health, flipping worker's health label from healthy: 1 transition.
        sup.diagnose();
        assert_eq!(registry.event("sup.health_transitions").get(), 1);
        assert!(registry.event("sup.diagnoses").get() >= 4);
    }

    #[test]
    fn counters_sharing_a_name_keep_their_own_health() {
        let registry = Arc::new(Registry::new());
        let sup = Supervisor::new();
        sup.attach_metrics(&registry, "sup");
        let healthy = Arc::new(Counter::default());
        let degraded = Arc::new(crate::testkit::RecordingCounter::degraded());
        sup.register("shard", &healthy);
        sup.register("shard", &degraded);
        for _ in 0..10 {
            healthy.increment(1);
            degraded.increment(2);
            degraded.increment(2);
            sup.diagnose();
        }
        // Neither counter's health changed, so nothing transitioned.
        assert_eq!(registry.event("sup.health_transitions").get(), 0);
        // Their scraped counts add up under the shared name.
        assert_eq!(registry.event("sup.shard.increments").get(), 30);
    }

    #[test]
    fn a_counter_registered_after_a_dropped_one_publishes_from_zero() {
        let registry = Arc::new(Registry::new());
        let sup = Supervisor::new();
        sup.attach_metrics(&registry, "sup");
        let old = Arc::new(Counter::default());
        sup.register("jobs", &old);
        for _ in 0..5 {
            old.increment(1);
        }
        sup.diagnose();
        drop(old);
        // Registering another counter frees the dropped one's allocation,
        // so the fresh counter usually gets its address; its scrape must
        // still start from its own zero.
        let other = Arc::new(Counter::default());
        sup.register("other", &other);
        let fresh = Arc::new(Counter::default());
        sup.register("jobs", &fresh);
        for _ in 0..3 {
            fresh.increment(1);
        }
        sup.diagnose();
        assert_eq!(registry.event("sup.jobs.increments").get(), 8);
    }

    #[test]
    fn a_supervisor_without_metrics_never_reads_stats() {
        struct NoStats(Counter);
        impl MonotonicCounter for NoStats {
            fn increment(&self, amount: Value) {
                self.0.increment(amount);
            }
            fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
                self.0.try_increment(amount)
            }
            fn advance_to(&self, target: Value) {
                self.0.advance_to(target);
            }
            fn wait(&self, level: Value) -> Result<(), CheckError> {
                self.0.wait(level)
            }
            fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
                self.0.wait_timeout(level, timeout)
            }
            fn poison(&self, info: FailureInfo) {
                self.0.poison(info);
            }
            fn poison_info(&self) -> Option<FailureInfo> {
                self.0.poison_info()
            }
        }
        impl CounterDiagnostics for NoStats {
            fn debug_value(&self) -> Value {
                self.0.debug_value()
            }
            fn stats(&self) -> StatsSnapshot {
                panic!("stats read by a supervisor with no metrics attached")
            }
            fn impl_name(&self) -> &'static str {
                "no-stats"
            }
        }
        let sup = Supervisor::new();
        let c = Arc::new(NoStats(Counter::default()));
        sup.register("c", &c);
        sup.diagnose();
        assert_eq!(sup.poison_stuck(FailureInfo::new("stuck")), 0);
    }

    #[test]
    fn works_with_queueless_impls() {
        // SpinCounter has no introspectable waiters: diagnosis degrades to
        // value + obligations without error.
        let sup = Supervisor::new();
        let c = Arc::new(SpinCounter::default());
        sup.register("spin", &c);
        let report = sup.diagnose();
        assert_eq!(report.counters[0].verdict, StallVerdict::Idle);
        assert!(report.counters[0].waiters.is_empty());
    }
}
