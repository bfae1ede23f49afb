//! # Determinacy checking for counter-synchronized programs
//!
//! The paper's Section 6 states the conditions under which a multithreaded
//! program using only counter synchronization is deterministic and equivalent
//! to its sequential execution: *"each pair of operations on a shared
//! variable must be separated by a transitive chain of counter operations"*
//! (the full conditions are in Thornley's thesis, the paper's reference
//! \[21\]).
//!
//! This crate checks those conditions **dynamically** on a given execution:
//!
//! * every thread carries a [vector clock](VectorClock);
//! * [`fork`](ThreadCtx::fork)/[`join`](ThreadCtx::join) edges from the
//!   structured-multithreading model order parent and child events;
//! * a [`TrackedCounter`]'s `increment` *releases* the caller's clock into
//!   the counter and its `check` *acquires* the counter's accumulated clock —
//!   the "transitive chain of counter operations";
//! * every access to a [`Shared`] variable is checked against the previous
//!   accesses: two accesses (at least one a write) not ordered by the
//!   happens-before relation are reported as a [race](RaceReport).
//!
//! Soundness: the happens-before relation computed here contains every real
//! synchronization edge of the observed execution (it may contain *extra*
//! edges when a `check` acquires increments beyond its level), so a reported
//! race is always a real violation of the paper's conditions, while some
//! violations may go unreported on a lucky schedule. That is exactly the
//! paper's point, inverted: a *static* chain of counter operations (one that
//! exists in every execution, e.g. in the sequential one) guarantees no
//! execution has a race.
//!
//! ```
//! use mc_detcheck::{Checker, Shared, TrackedCounter};
//!
//! let checker = Checker::new();
//! let root = checker.register_root();
//! let x = Shared::new("x", 0);
//! let c = TrackedCounter::new();
//!
//! let t1 = root.fork();
//! let t2 = root.fork();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         x.write(&t1, 1);
//!         c.increment(&t1, 1); // release
//!     });
//!     s.spawn(|| {
//!         c.check(&t2, 1); // acquire: ordered after the write
//!         let _ = x.read(&t2);
//!     });
//! });
//! root.join(t1);
//! root.join(t2);
//! assert!(checker.report().is_clean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checker;
mod counter;
mod run;
mod shared;
mod vclock;

pub use checker::{Checker, RaceKind, RaceReport, Report, ThreadCtx};
pub use counter::TrackedCounter;
pub use run::{run_checked, CheckedTask};
pub use shared::Shared;
pub use vclock::VectorClock;
