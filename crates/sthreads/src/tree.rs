//! Supervision trees: restart policies, backoff escalation, and durable
//! resume for supervised thread programs.
//!
//! [`supervised_for`](crate::supervised_for) made worker failure *visible*
//! (panic → poison → fail-fast); a [`SupervisionTree`] makes it
//! *survivable*. Named child workers run under a restart policy
//! ([`RestartPolicy`]): a panicking child is restarted with exponential
//! backoff and deterministic jitter (the [`mc_counter::backoff`] schedule
//! and [`mc_counter::jitter`] stream the durable layer's retries use too),
//! bounded by a sliding-window restart intensity; when the intensity is
//! exhausted — or the policy says so — the failure **escalates**: every
//! counter the tree registered is poisoned with a cause that preserves the
//! original panic message, so blocked threads fail with the root cause
//! instead of hanging. A child that panics on a poisoned counter
//! ([`FailureInfo::is_cascade`]) escalates at once: its restart would only
//! block on the same poison.
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
//! Poison doubles as cancellation (the CQS lesson: abortable waiting is the
//! key enabler for restartable coordination): escalation releases every
//! blocked waiter with the cause, and [`ResumeCtx::wait_abortable`] lets
//! `OneForAll` siblings observe a group restart while suspended.
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

use mc_counter::{
    jitter, CheckError, FailureInfo, MonotonicCounter, SupervisedCounter, SupervisedObligation,
    Supervisor, Value,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`SupervisionTree`] reacts when a child panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Restart only the failed child; siblings keep running. The default.
    #[default]
    OneForOne,
    /// Restart the failed child **and** every sibling that has not yet
    /// completed: running siblings are signalled to abort (observe it via
    /// [`ResumeCtx::aborted`] / [`ResumeCtx::wait_abortable`]), and no
    /// replacement starts until every interrupted sibling has exited
    /// (quiesce, then restart). A sibling run that saw the abort rejoins at
    /// the failed child's backoff deadline; one that returned without
    /// seeing it completed its work and stays completed, as do children
    /// that finished before the failure — rerunning completed work is
    /// exactly the double-counting restart semantics must exclude. Bodies
    /// must therefore wait through [`ResumeCtx::wait_abortable`]: a sibling
    /// stuck in a plain wait on the failed child's counter holds the group
    /// restart back.
    OneForAll,
    /// Never restart: the first child failure escalates immediately.
    Escalate,
}

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
    abort: Arc<AbortFlag>,
    supervisor: Supervisor,
}

/// One run's cooperative-abort handshake: the tree sets `requested`, and
/// the run sets `observed` when it sees the request, so the tree can tell
/// an aborted run from one that completed before noticing.
#[derive(Default)]
struct AbortFlag {
    requested: AtomicBool,
    observed: AtomicBool,
}

impl AbortFlag {
    fn request(&self) {
        self.requested.store(true, Relaxed);
    }
}

/// Why an abortable wait returned without its level being reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitInterrupted {
    /// The tree asked this run to stop (a group restart or an escalation is
    /// in progress): hand back any obligations and return promptly.
    Aborted,
    /// The counter was poisoned with this cause.
    Poisoned(FailureInfo),
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

    /// Whether the tree has asked this run to stop (a `OneForAll` group
    /// restart, or an escalation in progress). Long-running bodies should
    /// poll this at convenient boundaries and return promptly when set;
    /// the replacement run re-acquires the remaining work from counter
    /// state.
    pub fn aborted(&self) -> bool {
        let requested = self.abort.requested.load(Relaxed);
        if requested {
            self.abort.observed.store(true, Relaxed);
        }
        requested
    }

    /// Takes a restart-aware increment obligation on the counter registered
    /// under `name` ([`Supervisor::restartable_obligation`]): delivered on
    /// normal drop, **rolled back** — released from the accounting, neither
    /// fulfilled nor poisoned — if this run unwinds, so the replacement
    /// re-acquires exactly the outstanding work.
    pub fn obligation(&self, name: &str, amount: Value) -> Option<SupervisedObligation> {
        self.supervisor.restartable_obligation(name, amount)
    }

    /// Waits for `counter` to reach `level`, but remains responsive to the
    /// tree: returns [`WaitInterrupted::Aborted`] when this run is asked to
    /// stop, and [`WaitInterrupted::Poisoned`] when the counter fails — the
    /// abortable waiting that makes `OneForAll` restart (and clean
    /// escalation) possible for suspended siblings.
    pub fn wait_abortable(
        &self,
        counter: &dyn MonotonicCounter,
        level: Value,
    ) -> Result<(), WaitInterrupted> {
        const POLL: Duration = Duration::from_millis(5);
        loop {
            if self.aborted() {
                return Err(WaitInterrupted::Aborted);
            }
            match counter.wait_timeout(level, POLL) {
                Ok(()) => return Ok(()),
                Err(CheckError::Timeout(_)) => continue,
                Err(CheckError::Poisoned(info)) => return Err(WaitInterrupted::Poisoned(info)),
            }
        }
    }
}

type ChildBody = dyn Fn(&ResumeCtx) + Send + Sync;

/// A named child of a [`SupervisionTree`]: a body run in its own thread,
/// plus the counters it publishes to or blocks on.
///
/// Register every counter the body waits on: escalation poisons exactly the
/// registered counters, and that poison is what releases a child suspended
/// in a plain (non-abortable) wait when the tree goes down.
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
    /// How many replacement runs were started (own failures and `OneForAll`
    /// group rejoins).
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
    policy: RestartPolicy,
    limits: RestartLimits,
    seed: u64,
    supervisor: Option<Supervisor>,
    children: Vec<ChildSpec>,
}

impl SupervisionTreeBuilder {
    /// Sets the restart policy (default [`RestartPolicy::OneForOne`]).
    pub fn policy(mut self, policy: RestartPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the restart intensity and backoff bounds.
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
            policy: self.policy,
            limits: self.limits,
            seed: self.seed,
            supervisor: self.supervisor.unwrap_or_default(),
            children: self.children,
        }
    }
}

/// A supervision tree: named children with restart policies, bounded
/// restart intensity, backoff escalation, and durable resume. See the
/// module docs.
pub struct SupervisionTree {
    policy: RestartPolicy,
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

    /// Runs every child to completion, restarting per the policy; blocks
    /// until the tree settles.
    ///
    /// Returns [`TreeReport`] when every child completed (possibly after
    /// restarts), or [`TreeFailure`] when a failure escalated — in which
    /// case every registered counter has been poisoned with the preserved
    /// root cause, so no thread blocked on tree state hangs.
    pub fn run(self) -> Result<TreeReport, TreeFailure> {
        let SupervisionTree {
            policy,
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
            policy,
            limits,
            supervisor,
            children: children
                .into_iter()
                .map(|spec| ChildRt {
                    spec,
                    state: ChildState::Running,
                    restarts: 0,
                    failures: VecDeque::new(),
                    abort: Arc::default(),
                    rejoin_at: None,
                    last_cause: None,
                    handle: None,
                })
                .collect(),
            pending: BinaryHeap::new(),
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
            // Start any replacement whose backoff has elapsed, but only once
            // every sibling interrupted by a group restart has exited:
            // a replacement that ran beside a still-running interrupted
            // sibling could satisfy that sibling's wait, and the sibling's
            // effect would then happen in both of its runs.
            let quiescing = run.quiescing();
            let now = Instant::now();
            while let Some(&Reverse((due, idx))) = run.pending.peek() {
                if quiescing || due > now {
                    break;
                }
                run.pending.pop();
                if matches!(run.children[idx].state, ChildState::Backoff) {
                    run.spawn(idx);
                }
            }
            let timeout = run
                .pending
                .peek()
                .filter(|_| !quiescing)
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
    /// Replacement runs started (own failures + group rejoins).
    restarts: u32,
    /// Own-failure instants inside the sliding intensity window.
    failures: VecDeque<Instant>,
    /// The current run's cooperative-abort flag.
    abort: Arc<AbortFlag>,
    /// Set while a `OneForAll` group restart has interrupted this child's
    /// run; the instant is when the group restarts.
    rejoin_at: Option<Instant>,
    last_cause: Option<FailureInfo>,
    handle: Option<JoinHandle<()>>,
}

struct TreeRun {
    policy: RestartPolicy,
    limits: RestartLimits,
    supervisor: Supervisor,
    children: Vec<ChildRt>,
    /// Min-heap of (due, child) replacement starts.
    pending: BinaryHeap<Reverse<(Instant, usize)>>,
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

    /// Whether a group restart is still waiting for an interrupted sibling
    /// to exit.
    fn quiescing(&self) -> bool {
        self.children
            .iter()
            .any(|c| matches!(c.state, ChildState::Running) && c.rejoin_at.is_some())
    }

    /// Starts (or restarts) child `idx`'s body in a fresh thread, with a
    /// fresh counter snapshot and a fresh abort flag.
    fn spawn(&mut self, idx: usize) {
        let rt = &mut self.children[idx];
        rt.rejoin_at = None;
        for (name, _) in &rt.spec.counters {
            self.supervisor.clear_restarting(name);
        }
        let abort = Arc::new(AbortFlag::default());
        rt.abort = Arc::clone(&abort);
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
            abort,
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
        if self.failure.is_some() {
            // The tree is going down: every late exit — normal, aborted, or
            // a cascade of the escalation poison — is terminal.
            self.children[idx].state = if outcome.is_ok() {
                ChildState::Done
            } else {
                ChildState::Dead
            };
            return;
        }
        let rt = &mut self.children[idx];
        // A run that returned without seeing the abort finished its work
        // before the request reached it: it is done, not part of the group.
        let rejoin = match outcome {
            Ok(()) if !rt.abort.observed.load(Relaxed) => None,
            _ => rt.rejoin_at.take(),
        };
        match (outcome, rejoin) {
            // The run was asked to abort for a group restart and came back
            // (normally or by unwinding): rejoin at the group deadline
            // without charging this child's own intensity window.
            (_, Some(due)) => self.schedule(idx, None, due.max(Instant::now())),
            (Ok(()), None) => rt.state = ChildState::Done,
            (Err(cause), None) => self.fail(idx, cause),
        }
    }

    /// A child's own failure: cascade check, intensity check, then either a
    /// backoff restart or escalation.
    fn fail(&mut self, idx: usize, cause: FailureInfo) {
        // A panic raised by a poisoned dependency is a cascade casualty:
        // restarting would only re-block on the same poison, so the root
        // cause escalates instead (the cascade rule `FirstPanic` ranks by).
        if cause.is_cascade() {
            self.escalate(idx, cause, "failed on a poisoned dependency");
            return;
        }
        if matches!(self.policy, RestartPolicy::Escalate) {
            self.escalate(idx, cause, "failed under RestartPolicy::Escalate");
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
        let due = now + delay;
        self.schedule(idx, Some(cause), due);
        if matches!(self.policy, RestartPolicy::OneForAll) {
            self.interrupt_siblings(idx, due);
        }
    }

    /// Puts child `idx` into backoff until `due` and records the pending
    /// restart with the supervisor.
    fn schedule(&mut self, idx: usize, cause: Option<FailureInfo>, due: Instant) {
        let rt = &mut self.children[idx];
        rt.restarts += 1;
        rt.state = ChildState::Backoff;
        rt.rejoin_at = None;
        if cause.is_some() {
            rt.last_cause = cause;
        }
        let attempt = rt.restarts;
        let backoff = due.saturating_duration_since(Instant::now());
        for (name, _) in &rt.spec.counters {
            self.supervisor
                .note_restarting(name.clone(), attempt, backoff);
        }
        self.pending.push(Reverse((due, idx)));
    }

    /// `OneForAll`: asks every incomplete sibling of `failed` to abort and
    /// rejoin at the group deadline. Siblings already in backoff are pulled
    /// to the same deadline implicitly (their own pending entries fire no
    /// earlier than their state allows); completed siblings stay completed.
    fn interrupt_siblings(&mut self, failed: usize, due: Instant) {
        for (idx, rt) in self.children.iter_mut().enumerate() {
            if idx == failed {
                continue;
            }
            if matches!(rt.state, ChildState::Running) {
                rt.rejoin_at = Some(due);
                rt.abort.request();
            }
        }
    }

    /// Brings the tree down: marks the failure, cancels pending restarts,
    /// aborts running children, and poisons every registered counter with a
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
        let mut targets = Vec::new();
        for rt in &mut self.children {
            match rt.state {
                ChildState::Backoff => rt.state = ChildState::Dead,
                ChildState::Running => rt.abort.request(),
                _ => {}
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
    use mc_counter::{Counter, CounterDiagnostics, StallVerdict};
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
    fn escalate_policy_fails_fast_on_first_panic() {
        let out = Arc::new(Counter::default());
        let failure = SupervisionTree::builder()
            .policy(RestartPolicy::Escalate)
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
            .policy(RestartPolicy::Escalate)
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
    fn one_for_all_restarts_incomplete_siblings_together() {
        let gate = Arc::new(Counter::default());
        let done = Arc::new(Counter::default());
        let (g1, g2, d2) = (Arc::clone(&gate), Arc::clone(&gate), Arc::clone(&done));
        let report = SupervisionTree::builder()
            .policy(RestartPolicy::OneForAll)
            .limits(fast_limits())
            .child(
                ChildSpec::new("flaky", move |ctx| {
                    if ctx.is_first_run() {
                        panic!("flaky first run");
                    }
                    g1.increment(1);
                })
                .counter("gate", &gate),
            )
            .child(
                ChildSpec::new("watcher", move |ctx| {
                    match ctx.wait_abortable(g2.as_ref(), 1) {
                        Ok(()) => d2.increment(1),
                        Err(WaitInterrupted::Aborted) => (), // group restart
                        Err(WaitInterrupted::Poisoned(info)) => {
                            panic!("unexpected poison: {info}")
                        }
                    }
                })
                .counter("done", &done),
            )
            .build()
            .run()
            .unwrap();
        assert_eq!(
            done.debug_value(),
            1,
            "watcher completed after the group restart"
        );
        assert_eq!(gate.debug_value(), 1);
        assert!(report.child("flaky").unwrap().restarts >= 1);
        assert!(
            report.child("watcher").unwrap().restarts >= 1,
            "the incomplete sibling must rejoin the group restart"
        );
        assert!(report.children.iter().all(|c| c.completed));
    }

    /// The failed child's backoff is far below `wait_abortable`'s 5 ms
    /// poll, so a replacement started beside the interrupted watcher would
    /// satisfy its wait before it saw the abort, and the rejoin would then
    /// run the effect a second time. Quiescing first makes it happen
    /// exactly once.
    #[test]
    fn one_for_all_effect_happens_once_when_backoff_beats_the_abort_poll() {
        let limits = RestartLimits {
            base_delay: Duration::from_micros(1),
            max_delay: Duration::from_micros(1),
            ..fast_limits()
        };
        for round in 0..20 {
            let gate = Arc::new(Counter::default());
            let effects = Arc::new(AtomicU32::new(0));
            let (g1, g2, e) = (Arc::clone(&gate), Arc::clone(&gate), Arc::clone(&effects));
            let report = SupervisionTree::builder()
                .policy(RestartPolicy::OneForAll)
                .limits(limits)
                .child(
                    ChildSpec::new("flaky", move |ctx| {
                        if ctx.is_first_run() {
                            panic!("flaky first run");
                        }
                        g1.increment(1);
                    })
                    .counter("gate", &gate),
                )
                .child(ChildSpec::new("watcher", move |ctx| {
                    if ctx.wait_abortable(g2.as_ref(), 1).is_ok() {
                        e.fetch_add(1, Relaxed);
                    }
                }))
                .build()
                .run()
                .unwrap();
            assert_eq!(effects.load(Relaxed), 1, "round {round}: effect repeated");
            assert_eq!(report.child("watcher").unwrap().restarts, 1);
            assert!(report.children.iter().all(|c| c.completed));
        }
    }

    #[test]
    fn one_for_all_sibling_that_finishes_unaware_of_the_abort_is_done() {
        let crashed = Arc::new(AtomicBool::new(false));
        let runs = Arc::new(AtomicU32::new(0));
        let (c1, c2, r) = (
            Arc::clone(&crashed),
            Arc::clone(&crashed),
            Arc::clone(&runs),
        );
        let report = SupervisionTree::builder()
            .policy(RestartPolicy::OneForAll)
            .limits(fast_limits())
            .child(ChildSpec::new("flaky", move |ctx| {
                if ctx.is_first_run() {
                    c1.store(true, Relaxed);
                    panic!("flaky first run");
                }
            }))
            .child(ChildSpec::new("steady", move |_| {
                // Finish after the failure, likely after the abort request,
                // without ever looking at it.
                while !c2.load(Relaxed) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
                r.fetch_add(1, Relaxed);
            }))
            .build()
            .run()
            .unwrap();
        assert_eq!(runs.load(Relaxed), 1, "a completed run must not rerun");
        assert_eq!(report.child("steady").unwrap().restarts, 0);
        assert_eq!(report.child("flaky").unwrap().restarts, 1);
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
