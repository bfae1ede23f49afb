//! Supervision trees: restarts with backoff, escalation, and durable
//! resume for supervised thread programs.
//!
//! [`supervised_for`](crate::supervised_for) made worker failure *visible*
//! (panic → poison → fail-fast); a [`SupervisionTree`] makes it
//! *survivable*. A panicking child is restarted alone, with exponential
//! backoff and deterministic jitter (the [`mc_counter::backoff`] schedule
//! and [`mc_counter::jitter`] stream the durable layer's retries use too),
//! bounded by a sliding-window restart intensity ([`RestartLimits`]); when
//! the intensity is exhausted the failure **escalates**: every counter the
//! tree registered is poisoned with a cause that preserves the original
//! panic message, so blocked threads fail with the root cause instead of
//! hanging. `max_restarts: 0` escalates on the first failure. A child that
//! panics on a poisoned counter ([`FailureInfo::is_cascade`]) escalates at
//! once: its restart would only block on the same poison.
//!
//! The counters are what make restart *correct* rather than merely
//! convenient. A replacement worker does not rerun from zero: its
//! [`ResumeCtx`] carries each registered counter's current value (and, for
//! durable counters, the acknowledged-durable watermark), so the body
//! delivers exactly the remaining increments — never double-counting, never
//! losing acked work. Outstanding increment obligations taken through the
//! context ([`ResumeCtx::obligation`]) are **rolled back** on the unwind
//! (released from the supervisor's accounting, neither fulfilled nor
//! poisoned) before the replacement starts, so the reachability math the
//! supervisor's stall verdicts rest on stays exact across a restart. While
//! a restart is pending, the tree marks the child's counters
//! [`StallVerdict::Restarting`] so the watch thread never
//! mistakes the gap for a provably-stuck counter.
//!
//! Poison is the tree's only cancellation (the CQS lesson: abortable
//! waiting is the key enabler for restartable coordination): escalation
//! poisons every registered counter, which releases each blocked waiter
//! with the cause at once, and [`ResumeCtx::aborted`] tells a body that
//! waits on nothing that the tree is going down.
//!
//! # Example
//!
//! ```
//! use mc_counter::{Counter, MonotonicCounter, CounterDiagnostics};
//! use mc_sthreads::{ChildSpec, SupervisionTree};
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//!
//! let done = Arc::new(Counter::default());
//! let crashed = Arc::new(AtomicBool::new(false));
//! let (d, c) = (Arc::clone(&done), Arc::clone(&crashed));
//! let report = SupervisionTree::builder()
//!     .child(
//!         ChildSpec::new("worker", move |ctx| {
//!             // Resume from counter state: deliver only what is missing.
//!             for _ in ctx.value("done").unwrap()..10 {
//!                 d.increment(1);
//!                 if !c.swap(true, Ordering::Relaxed) {
//!                     panic!("transient fault");
//!                 }
//!             }
//!         })
//!         .counter("done", &done),
//!     )
//!     .build()
//!     .run()
//!     .unwrap();
//! assert_eq!(done.debug_value(), 10); // exactly 10 — no double counts
//! assert_eq!(report.total_restarts(), 1);
//! ```

use mc_counter::{jitter, FailureInfo, SupervisedCounter, SupervisedObligation, Supervisor, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bounds on how hard a tree tries to keep a child alive — the
/// `RetryPolicy` shape of the durable layer (base delay doubling to a
/// ceiling) plus a sliding restart-intensity window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartLimits {
    /// Restarts allowed per child within [`window`](Self::window) before
    /// the failure escalates (default 5; 0 escalates on first failure).
    pub max_restarts: u32,
    /// The sliding window the restart intensity is measured over (default
    /// 10s). Restarts older than this no longer count — a child that was
    /// flaky an hour ago has a fresh budget.
    pub window: Duration,
    /// Backoff before the first restart (default 1ms); doubles per
    /// consecutive restart.
    pub base_delay: Duration,
    /// Backoff ceiling (default 100ms).
    pub max_delay: Duration,
}

impl Default for RestartLimits {
    fn default() -> Self {
        RestartLimits {
            max_restarts: 5,
            window: Duration::from_secs(10),
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RestartLimits {
    /// The backoff before restart `attempt` (0-based), without jitter:
    /// `min(max_delay, base_delay << attempt)` ([`mc_counter::backoff`],
    /// the durable layer's retry schedule too).
    pub fn backoff(&self, attempt: u32) -> Duration {
        mc_counter::backoff(self.base_delay, self.max_delay, attempt)
    }
}

/// One registered counter's state at the moment a child (re)starts.
#[derive(Debug, Clone)]
pub struct ResumedCounter {
    /// The name the counter is registered under.
    pub name: String,
    /// The counter's value when the run started — the resume point.
    pub value: Value,
    /// The acknowledged-durable watermark
    /// ([`mc_counter::CounterDiagnostics::durable_watermark`]), for counters backed by
    /// stable storage; `None` for in-memory counters.
    pub durable: Option<Value>,
}

/// Everything a (re)started child body receives: which attempt this is, why
/// the previous run died, and where every registered counter stands — so
/// the body resumes from counter state instead of rerunning from zero.
pub struct ResumeCtx {
    child: String,
    attempt: u32,
    cause: Option<FailureInfo>,
    counters: Vec<ResumedCounter>,
    /// The tree's escalation flag, shared by every run.
    aborted: Arc<AtomicBool>,
    supervisor: Supervisor,
}

impl ResumeCtx {
    /// The child's name.
    pub fn child(&self) -> &str {
        &self.child
    }

    /// How many times this child has been restarted before this run
    /// (0 on the first run).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Whether this is the child's first run.
    pub fn is_first_run(&self) -> bool {
        self.attempt == 0
    }

    /// The failure that ended the previous run, if this is a restart.
    pub fn cause(&self) -> Option<&FailureInfo> {
        self.cause.as_ref()
    }

    /// Every registered counter's resume state, in registration order.
    pub fn counters(&self) -> &[ResumedCounter] {
        &self.counters
    }

    /// The resume value of the counter registered under `name`.
    pub fn value(&self, name: &str) -> Option<Value> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The acknowledged-durable watermark of the counter registered under
    /// `name`, when it is backed by stable storage.
    pub fn durable_value(&self, name: &str) -> Option<Value> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .and_then(|c| c.durable)
    }

    /// Whether the tree is going down: set when a child's failure
    /// escalates, and never cleared. A body blocked on a registered counter
    /// is released by the escalation's poison; a long-running body that
    /// waits on nothing should poll this at convenient boundaries and
    /// return promptly when set.
    pub fn aborted(&self) -> bool {
        self.aborted.load(Relaxed)
    }

    /// Takes a restart-aware increment obligation on the counter registered
    /// under `name` ([`Supervisor::restartable_obligation`]): delivered on
    /// normal drop, **rolled back** — released from the accounting, neither
    /// fulfilled nor poisoned — if this run unwinds, so the replacement
    /// re-acquires exactly the outstanding work.
    pub fn obligation(&self, name: &str, amount: Value) -> Option<SupervisedObligation> {
        self.supervisor.restartable_obligation(name, amount)
    }
}

type ChildBody = dyn Fn(&ResumeCtx) + Send + Sync;

/// A named child of a [`SupervisionTree`]: a body run in its own thread,
/// plus the counters it publishes to or blocks on.
///
/// Register every counter the body waits on: escalation poisons exactly the
/// registered counters, and that poison is what releases a child suspended
/// in a wait when the tree goes down.
pub struct ChildSpec {
    name: String,
    counters: Vec<(String, Arc<dyn SupervisedCounter>)>,
    body: Arc<ChildBody>,
}

impl ChildSpec {
    /// A child running `body` (in a thread named `mc-tree-<name>`) on every
    /// start and restart. The body must be resume-aware: derive the
    /// remaining work from the [`ResumeCtx`] counter values, not from
    /// scratch.
    pub fn new(name: impl Into<String>, body: impl Fn(&ResumeCtx) + Send + Sync + 'static) -> Self {
        ChildSpec {
            name: name.into(),
            counters: Vec::new(),
            body: Arc::new(body),
        }
    }

    /// Attaches a counter under `name`: registered with the tree's
    /// [`Supervisor`], snapshotted into every [`ResumeCtx`], marked
    /// [`Restarting`](mc_counter::StallVerdict::Restarting) while a restart
    /// of this child is pending, and poisoned with the root cause on
    /// escalation. Counter names are tree-wide: give each counter a unique
    /// name even across children.
    pub fn counter<C>(mut self, name: impl Into<String>, counter: &Arc<C>) -> Self
    where
        C: SupervisedCounter + 'static,
    {
        let erased: Arc<dyn SupervisedCounter> = Arc::clone(counter) as _;
        self.counters.push((name.into(), erased));
        self
    }

    /// The child's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The final state of one child after [`SupervisionTree::run`] returns.
#[derive(Debug, Clone)]
pub struct ChildReport {
    /// The child's name.
    pub name: String,
    /// How many replacement runs were started: one per failure of this
    /// child that did not escalate.
    pub restarts: u32,
    /// Whether the child's last run returned normally.
    pub completed: bool,
}

/// The outcome of a tree whose children all completed.
#[derive(Debug, Clone)]
pub struct TreeReport {
    /// One report per child, in registration order.
    pub children: Vec<ChildReport>,
}

impl TreeReport {
    /// Total restarts across all children.
    pub fn total_restarts(&self) -> u32 {
        self.children.iter().map(|c| c.restarts).sum()
    }

    /// The report for the child named `name`.
    pub fn child(&self, name: &str) -> Option<&ChildReport> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// An escalated tree failure: the child that brought the tree down, the
/// preserved root cause, and how many times the tree tried to keep it
/// alive. The same cause (message prefixed with the escalation context,
/// original panic message preserved verbatim) was used to poison every
/// registered counter.
#[derive(Debug, Clone)]
pub struct TreeFailure {
    /// The child whose failure escalated.
    pub child: String,
    /// The escalation cause; its message embeds the original panic message.
    pub cause: FailureInfo,
    /// Replacement runs started for that child before escalation.
    pub restarts: u32,
}

impl fmt::Display for TreeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "supervision tree failed: child '{}' after {} restart(s): {}",
            self.child,
            self.restarts,
            self.cause.message()
        )
    }
}

impl std::error::Error for TreeFailure {}

/// Builder for a [`SupervisionTree`].
#[derive(Default)]
pub struct SupervisionTreeBuilder {
    limits: RestartLimits,
    seed: u64,
    supervisor: Option<Supervisor>,
    children: Vec<ChildSpec>,
}

impl SupervisionTreeBuilder {
    /// Sets the restart intensity and backoff bounds; `max_restarts: 0`
    /// escalates on the first failure.
    pub fn limits(mut self, limits: RestartLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Seeds the backoff jitter stream (default 0): the same seed, children,
    /// and failure pattern reproduce the same restart schedule.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an existing supervisor (shared stall diagnostics, possibly with
    /// a running watch thread) instead of a private one. The tree registers
    /// its children's counters on it and reports pending restarts via
    /// [`Supervisor::note_restarting`].
    pub fn supervisor(mut self, supervisor: &Supervisor) -> Self {
        self.supervisor = Some(supervisor.clone());
        self
    }

    /// Adds a child.
    pub fn child(mut self, spec: ChildSpec) -> Self {
        self.children.push(spec);
        self
    }

    /// Builds the tree.
    pub fn build(self) -> SupervisionTree {
        SupervisionTree {
            limits: self.limits,
            seed: self.seed,
            supervisor: self.supervisor.unwrap_or_default(),
            children: self.children,
        }
    }
}

/// A supervision tree: named children, each restarted alone when it fails,
/// with bounded restart intensity, backoff escalation, and durable resume.
/// See the module docs.
pub struct SupervisionTree {
    limits: RestartLimits,
    seed: u64,
    supervisor: Supervisor,
    children: Vec<ChildSpec>,
}

impl SupervisionTree {
    /// Starts building a tree.
    pub fn builder() -> SupervisionTreeBuilder {
        SupervisionTreeBuilder::default()
    }

    /// The supervisor the tree registers its counters on.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Runs every child to completion, restarting each failed child alone;
    /// blocks until the tree settles.
    ///
    /// Returns [`TreeReport`] when every child completed (possibly after
    /// restarts), or [`TreeFailure`] when a failure escalated — in which
    /// case every registered counter has been poisoned with the preserved
    /// root cause, so no thread blocked on tree state hangs.
    pub fn run(self) -> Result<TreeReport, TreeFailure> {
        let SupervisionTree {
            limits,
            seed,
            supervisor,
            children,
        } = self;
        for spec in &children {
            for (name, counter) in &spec.counters {
                supervisor.register_dyn(name.clone(), counter);
            }
        }
        let (tx, rx) = mpsc::channel();
        let mut run = TreeRun {
            limits,
            supervisor,
            children: children
                .into_iter()
                .map(|spec| ChildRt {
                    spec,
                    state: ChildState::Running,
                    restarts: 0,
                    failures: VecDeque::new(),
                    last_cause: None,
                    handle: None,
                })
                .collect(),
            pending: BinaryHeap::new(),
            aborted: Arc::default(),
            tx,
            rng: seed ^ 0x6d63_2d74_7265_6531, // decorrelate seed 0 from the site streams
            failure: None,
        };
        for idx in 0..run.children.len() {
            run.spawn(idx);
        }
        loop {
            if run.settled() {
                break;
            }
            let now = Instant::now();
            while let Some(&Reverse((due, idx))) = run.pending.peek() {
                if due > now {
                    break;
                }
                run.pending.pop();
                run.spawn(idx);
            }
            let timeout = run
                .pending
                .peek()
                .map(|&Reverse((due, _))| due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(500));
            match rx.recv_timeout(timeout) {
                Ok((idx, outcome)) => run.handle_exit(idx, outcome),
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                // Unreachable while `run.tx` is alive, but treat it as a
                // settled tree rather than panicking in the supervisor.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        match run.failure {
            Some(failure) => Err(failure),
            None => Ok(TreeReport {
                children: run
                    .children
                    .iter()
                    .map(|rt| ChildReport {
                        name: rt.spec.name.clone(),
                        restarts: rt.restarts,
                        completed: matches!(rt.state, ChildState::Done),
                    })
                    .collect(),
            }),
        }
    }
}

enum ChildState {
    Running,
    Backoff,
    Done,
    Dead,
}

struct ChildRt {
    spec: ChildSpec,
    state: ChildState,
    /// Replacement runs started, one per restarted failure.
    restarts: u32,
    /// Failure instants inside the sliding intensity window.
    failures: VecDeque<Instant>,
    last_cause: Option<FailureInfo>,
    handle: Option<JoinHandle<()>>,
}

struct TreeRun {
    limits: RestartLimits,
    supervisor: Supervisor,
    children: Vec<ChildRt>,
    /// Min-heap of (due, child) replacement starts, one per child in
    /// backoff.
    pending: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Set by [`escalate`](Self::escalate); every run's
    /// [`ResumeCtx::aborted`] reads it.
    aborted: Arc<AtomicBool>,
    tx: mpsc::Sender<(usize, Result<(), FailureInfo>)>,
    rng: u64,
    failure: Option<TreeFailure>,
}

impl TreeRun {
    fn settled(&self) -> bool {
        self.children
            .iter()
            .all(|c| matches!(c.state, ChildState::Done | ChildState::Dead))
    }

    /// Starts (or restarts) child `idx`'s body in a fresh thread, with a
    /// fresh counter snapshot.
    fn spawn(&mut self, idx: usize) {
        let rt = &mut self.children[idx];
        for (name, _) in &rt.spec.counters {
            self.supervisor.clear_restarting(name);
        }
        let ctx = ResumeCtx {
            child: rt.spec.name.clone(),
            attempt: rt.restarts,
            cause: rt.last_cause.clone(),
            counters: rt
                .spec
                .counters
                .iter()
                .map(|(name, c)| ResumedCounter {
                    name: name.clone(),
                    value: c.debug_value(),
                    durable: c.durable_watermark(),
                })
                .collect(),
            aborted: Arc::clone(&self.aborted),
            supervisor: self.supervisor.clone(),
        };
        let body = Arc::clone(&rt.spec.body);
        let tx = self.tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("mc-tree-{}", rt.spec.name))
            .spawn(move || {
                let outcome = match catch_unwind(AssertUnwindSafe(|| body(&ctx))) {
                    Ok(()) => Ok(()),
                    Err(payload) => Err(FailureInfo::from_panic(payload.as_ref())),
                };
                // The supervisor loop outliving us holds the receiver; if it
                // is gone (escalation already returned) the result is moot.
                let _ = tx.send((idx, outcome));
            })
            .expect("failed to spawn supervised child thread");
        rt.handle = Some(handle);
        rt.state = ChildState::Running;
    }

    fn handle_exit(&mut self, idx: usize, outcome: Result<(), FailureInfo>) {
        if let Some(handle) = self.children[idx].handle.take() {
            let _ = handle.join();
        }
        match outcome {
            Ok(()) => self.children[idx].state = ChildState::Done,
            // The tree is going down: a late failure — typically a cascade
            // of the escalation poison — is terminal.
            Err(_) if self.failure.is_some() => self.children[idx].state = ChildState::Dead,
            Err(cause) => self.fail(idx, cause),
        }
    }

    /// A child's failure: cascade check, intensity check, then either a
    /// backoff restart of this child alone or escalation.
    fn fail(&mut self, idx: usize, cause: FailureInfo) {
        // A panic raised by a poisoned dependency is a cascade casualty:
        // restarting would only re-block on the same poison, so the root
        // cause escalates instead (the cascade rule `FirstPanic` ranks by).
        if cause.is_cascade() {
            self.escalate(idx, cause, "failed on a poisoned dependency");
            return;
        }
        let now = Instant::now();
        let window = self.limits.window;
        let rt = &mut self.children[idx];
        while rt
            .failures
            .front()
            .is_some_and(|&t| now.duration_since(t) > window)
        {
            rt.failures.pop_front();
        }
        if rt.failures.len() as u32 >= self.limits.max_restarts {
            let n = rt.failures.len();
            self.escalate(
                idx,
                cause,
                &format!("exhausted restart intensity ({n} restart(s) in {window:?})"),
            );
            return;
        }
        rt.failures.push_back(now);
        let exponent = rt.failures.len() as u32 - 1;
        let delay = jitter(&mut self.rng, self.limits.backoff(exponent));
        rt.restarts += 1;
        rt.state = ChildState::Backoff;
        rt.last_cause = Some(cause);
        for (name, _) in &rt.spec.counters {
            self.supervisor
                .note_restarting(name.clone(), rt.restarts, delay);
        }
        self.pending.push(Reverse((now + delay, idx)));
    }

    /// Brings the tree down: marks the failure, cancels pending restarts,
    /// raises the abort flag, and poisons every registered counter with a
    /// cause that preserves the original panic message — releasing every
    /// blocked waiter with the root cause instead of a hang.
    fn escalate(&mut self, idx: usize, cause: FailureInfo, reason: &str) {
        let name = self.children[idx].spec.name.clone();
        let mut info = FailureInfo::new(format!(
            "supervision tree: child '{name}' {reason}: {}",
            cause.message()
        ));
        if let Some(level) = cause.level() {
            info = info.with_level(level);
        }
        self.failure = Some(TreeFailure {
            child: name,
            cause: info.clone(),
            restarts: self.children[idx].restarts,
        });
        self.children[idx].state = ChildState::Dead;
        self.aborted.store(true, Relaxed);
        let mut targets = Vec::new();
        for rt in &mut self.children {
            if matches!(rt.state, ChildState::Backoff) {
                rt.state = ChildState::Dead;
            }
            for (counter_name, counter) in &rt.spec.counters {
                self.supervisor.clear_restarting(counter_name);
                targets.push(Arc::clone(counter));
            }
        }
        // Poison outside any bookkeeping: a durable counter's poison can
        // block until its flusher acknowledges.
        for counter in targets {
            counter.poison(info.clone());
        }
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter, StallVerdict};
    use std::sync::atomic::AtomicU32;

    fn fast_limits() -> RestartLimits {
        RestartLimits {
            max_restarts: 5,
            window: Duration::from_secs(10),
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
        }
    }

    #[test]
    fn backoff_doubles_to_the_ceiling() {
        let l = RestartLimits {
            max_restarts: 5,
            window: Duration::from_secs(1),
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(8),
        };
        assert_eq!(l.backoff(0), Duration::from_millis(1));
        assert_eq!(l.backoff(1), Duration::from_millis(2));
        assert_eq!(l.backoff(2), Duration::from_millis(4));
        assert_eq!(l.backoff(3), Duration::from_millis(8));
        assert_eq!(l.backoff(10), Duration::from_millis(8));
        assert_eq!(l.backoff(63), Duration::from_millis(8));
    }

    #[test]
    fn jitter_stays_in_range_and_replays_per_seed() {
        let d = Duration::from_millis(10);
        let run = |seed: u64| -> Vec<Duration> {
            let mut state = seed;
            (0..8).map(|_| jitter(&mut state, d)).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        for j in run(7) {
            assert!(j >= d / 2 && j <= d, "jitter {j:?} outside [d/2, d]");
        }
        assert_eq!(jitter(&mut 1u64, Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn empty_tree_completes_immediately() {
        let report = SupervisionTree::builder().build().run().unwrap();
        assert!(report.children.is_empty());
        assert_eq!(report.total_restarts(), 0);
    }

    #[test]
    fn restarted_worker_resumes_from_counter_state() {
        let done = Arc::new(Counter::default());
        let d = Arc::clone(&done);
        let report = SupervisionTree::builder()
            .limits(fast_limits())
            .child(
                ChildSpec::new("worker", move |ctx| {
                    let already = ctx.value("done").expect("registered counter");
                    if ctx.is_first_run() {
                        assert_eq!(already, 0);
                        for _ in 0..3 {
                            d.increment(1);
                        }
                        panic!("flaky worker died after 3");
                    }
                    assert_eq!(already, 3, "resume point is the applied prefix");
                    let cause = ctx.cause().expect("restart carries the cause");
                    assert!(cause.message().contains("flaky worker died"));
                    for _ in already..10 {
                        d.increment(1);
                    }
                })
                .counter("done", &done),
            )
            .build()
            .run()
            .unwrap();
        assert_eq!(done.debug_value(), 10, "exact total, no double counts");
        let child = report.child("worker").unwrap();
        assert!(child.completed);
        assert_eq!(child.restarts, 1);
        assert!(done.poison_info().is_none());
    }

    #[test]
    fn obligations_roll_back_across_a_restart() {
        let done = Arc::new(Counter::default());
        let d = Arc::clone(&done);
        let report = SupervisionTree::builder()
            .limits(fast_limits())
            .child(
                ChildSpec::new("debtor", move |ctx| {
                    let remaining = 5 - ctx.value("done").unwrap();
                    let ob = ctx.obligation("done", remaining).expect("registered");
                    if ctx.is_first_run() {
                        // Deliver part of the work outside the obligation,
                        // then die holding it: the obligation must roll
                        // back (not fulfil, not poison, not leak).
                        d.increment(2);
                        panic!("died holding an obligation");
                    }
                    assert_eq!(ob.owed(), 3, "replacement re-acquired the rest");
                    ob.fulfill();
                })
                .counter("done", &done),
            )
            .build()
            .run()
            .unwrap();
        assert_eq!(
            done.debug_value(),
            5,
            "rolled-back obligation not delivered twice"
        );
        assert!(done.poison_info().is_none(), "rollback must not poison");
        assert_eq!(report.total_restarts(), 1);
        // The accounting is exact after the tree settles.
        let outstanding = report.children.len(); // silence unused in release
        let _ = outstanding;
    }

    #[test]
    fn exhausted_intensity_escalates_and_preserves_the_cause() {
        let out = Arc::new(Counter::default());
        let failure = SupervisionTree::builder()
            .limits(RestartLimits {
                max_restarts: 2,
                window: Duration::from_secs(10),
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_micros(400),
            })
            .child(
                ChildSpec::new("hopeless", |_ctx| panic!("boom-42: original cause"))
                    .counter("out", &out),
            )
            .build()
            .run()
            .unwrap_err();
        assert_eq!(failure.child, "hopeless");
        assert_eq!(
            failure.restarts, 2,
            "two restarts allowed, third failure escalates"
        );
        assert!(
            failure.cause.message().contains("boom-42: original cause"),
            "escalation must preserve the original panic cause, got: {}",
            failure.cause.message()
        );
        assert!(failure
            .cause
            .message()
            .contains("exhausted restart intensity"));
        let poison = out
            .poison_info()
            .expect("escalation poisons registered counters");
        assert!(
            poison.message().contains("boom-42: original cause"),
            "poison must preserve the original panic cause, got: {}",
            poison.message()
        );
        assert!(failure.to_string().contains("'hopeless'"));
    }

    #[test]
    fn zero_max_restarts_fails_fast_on_first_panic() {
        let out = Arc::new(Counter::default());
        let failure = SupervisionTree::builder()
            .limits(RestartLimits {
                max_restarts: 0,
                ..fast_limits()
            })
            .child(ChildSpec::new("fragile", |_| panic!("no second chances")).counter("out", &out))
            .build()
            .run()
            .unwrap_err();
        assert_eq!(failure.restarts, 0);
        assert!(failure.cause.message().contains("no second chances"));
        assert!(out.poison_info().is_some());
    }

    #[test]
    fn escalation_releases_a_sibling_blocked_on_a_registered_counter() {
        // "consumer" suspends on a counter only "producer" can satisfy;
        // producer's escalation must poison it and release the consumer
        // with the root cause — no hang, and no restart of the cascade
        // casualty.
        let feed = Arc::new(Counter::default());
        let f = Arc::clone(&feed);
        let failure = SupervisionTree::builder()
            .limits(RestartLimits {
                max_restarts: 0,
                ..fast_limits()
            })
            .child(ChildSpec::new("producer", |_| panic!("source exploded")).counter("feed", &feed))
            .child(ChildSpec::new("consumer", move |_ctx| {
                f.check(1); // plain wait: released only by the poison
            }))
            .build()
            .run()
            .unwrap_err();
        assert_eq!(
            failure.child, "producer",
            "root cause, not the cascade casualty"
        );
        assert!(failure.cause.message().contains("source exploded"));
    }

    #[test]
    fn poisoned_dependency_escalates_instead_of_restarting() {
        // A child that panics because its dependency is poisoned must not
        // burn restart intensity re-blocking on the same poison.
        let feed = Arc::new(Counter::default());
        feed.poison(FailureInfo::new("upstream dead before the tree ran"));
        let f = Arc::clone(&feed);
        let failure = SupervisionTree::builder()
            .limits(fast_limits())
            .child(ChildSpec::new("reader", move |_| f.check(1)).counter("feed", &feed))
            .build()
            .run()
            .unwrap_err();
        assert_eq!(failure.restarts, 0, "cascade failures are not restarted");
        assert!(failure
            .cause
            .message()
            .contains("failed on a poisoned dependency"));
        assert!(failure.cause.message().contains("upstream dead"));
    }

    #[test]
    fn one_for_one_leaves_completed_siblings_alone() {
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        let report = SupervisionTree::builder()
            .limits(fast_limits())
            .child(ChildSpec::new("steady", move |_| {
                r.fetch_add(1, Relaxed);
            }))
            .child(ChildSpec::new("flaky", |ctx| {
                if ctx.is_first_run() {
                    panic!("once");
                }
            }))
            .build()
            .run()
            .unwrap();
        assert_eq!(runs.load(Relaxed), 1, "steady child must run exactly once");
        assert_eq!(report.child("steady").unwrap().restarts, 0);
        assert_eq!(report.child("flaky").unwrap().restarts, 1);
    }

    #[test]
    fn trees_sharing_a_supervisor_reach_their_own_counters() {
        // Each run registers a fresh counter under the same name on one
        // supervisor; by the second run the first counter is gone, and the
        // second child's obligation must still reach its own counter.
        let sup = Supervisor::new();
        for run in 0..2 {
            let done = Arc::new(Counter::default());
            SupervisionTree::builder()
                .supervisor(&sup)
                .limits(fast_limits())
                .child(
                    ChildSpec::new("worker", |ctx| {
                        let ob = ctx
                            .obligation("done", 1)
                            .expect("live counter under 'done'");
                        ob.fulfill();
                    })
                    .counter("done", &done),
                )
                .build()
                .run()
                .unwrap_or_else(|failure| panic!("run {run}: {failure}"));
            assert_eq!(done.debug_value(), 1, "run {run}");
        }
    }

    #[test]
    fn tree_restarts_surface_in_an_attached_metrics_registry() {
        // A supervised tree run must export its restart count: the tree
        // reports each pending restart (per registered counter) via
        // `Supervisor::note_restarting`, which the supervisor mirrors into
        // an attached registry.
        let registry = Arc::new(mc_metrics::Registry::new());
        let sup = Supervisor::new();
        sup.attach_metrics(&registry, "sup");
        let done = Arc::new(Counter::default());
        let d = Arc::clone(&done);
        let report = SupervisionTree::builder()
            .supervisor(&sup)
            .limits(fast_limits())
            .child(
                ChildSpec::new("flaky", move |ctx| {
                    if ctx.attempt() < 2 {
                        panic!("twice");
                    }
                    d.increment(1);
                })
                .counter("done", &done),
            )
            .build()
            .run()
            .unwrap();
        assert_eq!(report.child("flaky").unwrap().restarts, 2);
        assert_eq!(
            registry.event("sup.restarts_noted").get(),
            2,
            "each note_restarting call must reach the registry"
        );
    }

    #[test]
    fn pending_restart_reports_restarting_verdict() {
        // While the failed child backs off, its counter must be diagnosed
        // Restarting (not NeverSatisfiable) and must not be poisoned by a
        // poison_stuck sweep.
        let done = Arc::new(Counter::default());
        let d = Arc::clone(&done);
        let sup = Supervisor::new();
        let sup_probe = sup.clone();
        let probed = Arc::new(AtomicBool::new(false));
        let probed2 = Arc::clone(&probed);
        let report = SupervisionTree::builder()
            .supervisor(&sup)
            .limits(RestartLimits {
                max_restarts: 3,
                window: Duration::from_secs(10),
                // A long, observable backoff window.
                base_delay: Duration::from_millis(80),
                max_delay: Duration::from_millis(80),
            })
            .child(
                ChildSpec::new("worker", move |ctx| {
                    if ctx.is_first_run() {
                        panic!("observe my backoff");
                    }
                    d.increment(1);
                })
                .counter("done", &done),
            )
            .child(ChildSpec::new("prober", move |_ctx| {
                // Wait until the sibling's restart is pending, then assert
                // the supervisor reports it as such.
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    let report = sup_probe.diagnose();
                    if let Some(c) = report.counters.iter().find(|c| c.name == "done") {
                        if let StallVerdict::Restarting { attempt, .. } = c.verdict {
                            assert_eq!(attempt, 1);
                            assert_eq!(
                                sup_probe.poison_stuck(FailureInfo::new("sweep")),
                                0,
                                "restarting counters are spared"
                            );
                            probed2.store(true, Relaxed);
                            return;
                        }
                    }
                    if Instant::now() > deadline {
                        return; // let the outer assertion report the miss
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }))
            .build()
            .run()
            .unwrap();
        assert!(
            probed.load(Relaxed),
            "prober never saw the Restarting verdict"
        );
        assert_eq!(done.debug_value(), 1);
        assert_eq!(report.child("worker").unwrap().restarts, 1);
    }

    #[test]
    fn durable_watermark_reaches_the_resume_ctx() {
        // In-memory counters resume with `durable: None`; the durable
        // integration (Some(watermark)) is covered in the restart-torture
        // suite where mc-durable is available.
        let done = Arc::new(Counter::default());
        let seen = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&seen);
        SupervisionTree::builder()
            .child(
                ChildSpec::new("w", move |ctx| {
                    assert_eq!(ctx.durable_value("done"), None);
                    assert_eq!(ctx.counters()[0].durable, None);
                    assert_eq!(ctx.counters()[0].name, "done");
                    s.store(true, Relaxed);
                })
                .counter("done", &done),
            )
            .build()
            .run()
            .unwrap();
        assert!(seen.load(Relaxed));
    }

    #[test]
    fn seeded_backoff_schedule_is_deterministic() {
        // Two trees with the same seed and failure pattern produce the same
        // jittered backoff sequence — observable via the rng directly.
        let l = fast_limits();
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut state = seed ^ 0x6d63_2d74_7265_6531;
            (0..4).map(|i| jitter(&mut state, l.backoff(i))).collect()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }
}
