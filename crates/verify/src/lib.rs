//! # Static determinacy verification for counter programs
//!
//! Section 6 of the paper claims that counter-only synchronization plus
//! guarded shared variables yields deterministic results in **every**
//! interleaving. `mc-detcheck` checks one *observed* execution; this crate
//! proves the claim *statically*, over all interleavings, for programs
//! abstracted to a [synchronization skeleton](Skeleton): per-thread
//! sequences of `Inc(counter, amount)`, `Check(counter, level)`,
//! `Read(var)`, `Write(var)`.
//!
//! The key leverage is monotonicity ("Lost in Abstraction"): counters only
//! grow and checks are the only blocking operation, so an enabled operation
//! can never become disabled. Greedy scheduling is therefore *confluent* and
//! computes the unique maximal reachable cut — making every analysis here
//! exact on the IR, not just sound:
//!
//! * [`greedy_cut`] / [`deadlock_analysis`] — each counter's maximum
//!   achievable value; statically never-satisfiable checks; wait-for cycles.
//!   The whole-program analogue of `Supervisor::NeverSatisfiable`.
//! * [`MustOrder`] / [`race_analysis`] — must-happen-before via thread
//!   truncation: `a` precedes `b` in all schedules iff `b` is unreachable
//!   with `a`'s thread stopped just before `a`. Unordered conflicting
//!   accesses are reported with a minimal executable witness schedule.
//! * [`sequential_equivalence`] — the Section 6 theorem's sequential
//!   precondition (declared thread order satisfies every check it reaches).
//!
//! [`verify`] bundles the three into a [`Verdict`]: a determinacy
//! [`Certificate`] or a [`Rejection`] carrying concrete counterexamples.
//! Skeletons come from the [`SkeletonBuilder`] API or from the
//! [models] of the `mc-algos`/`mc-patterns` protocols.
//!
//! On top of the concrete layer sits **parameterized verification**:
//! [`Template`]s declare replicated thread roles (`N` producers, `M`
//! consumers) with amounts and levels as [linear expressions](LinExpr) in
//! the parameters, [`Template::instantiate`] lowers them to concrete
//! skeletons, and [`param_verify`] computes a *cutoff* `c` — exploiting the
//! same monotonicity (adding a replica only grows reachable counter
//! values) — such that the verdict at `c` certifies **every** `N ≥ c`,
//! validated internally by brute-force enumeration of all instantiations up
//! to `c + 2`. [`models::template_corpus`] models the shipped protocols at
//! symbolic scale; parameterized rejections carry a [`ParamWitness`] at the
//! smallest failing size, replayable through the `mc-chaos` interpreter.
//!
//! ```
//! use mc_verify::{SkeletonBuilder, verify};
//!
//! let mut b = SkeletonBuilder::new();
//! let done = b.counter("done");
//! let x = b.var("x");
//! b.thread("producer").write(x).inc(done, 1);
//! b.thread("consumer").check(done, 1).read(x);
//! let sk = b.build();
//! assert!(verify(&sk).is_certified());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod concrete;
mod cutoff;
mod fixpoint;
mod hb;
mod ir;
pub mod models;
mod mutate;
mod race;
mod seqeq;
mod template;
mod verdict;

pub use cutoff::{
    param_verify, param_verify_bounded, CutoffError, CutoffProof, ParamVerdict, ParamWitness,
    VerdictClass, DEFAULT_MAX_CUTOFF,
};
pub use fixpoint::{
    deadlock_analysis, greedy_cut, greedy_cut_limited, BlockedThread, Cut, DeadlockFinding,
    StuckReason,
};
pub use hb::MustOrder;
pub use ir::{CounterId, Op, OpRef, Skeleton, SkeletonBuilder, ThreadBuilder, VarId};
pub use mutate::{
    all_mutations, all_template_mutations, Mutation, TemplateMutation, TemplateMutationKind,
};
pub use race::{race_analysis, AccessKind, RaceFinding};
pub use seqeq::{sequential_equivalence, SeqEqViolation};
pub use template::{
    CSel, EvalError, Guard, Instance, InstantiateError, LinExpr, Param, RoleId, TCounter,
    TCounterFam, TVar, TVarFam, TVarFamWide, TVarWide, Template, TemplateBuilder,
    TemplateThreadBuilder, VSel,
};
pub use verdict::{verify, Certificate, Rejection, Verdict};
