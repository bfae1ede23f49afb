//! # Traditional synchronization primitives
//!
//! The mechanisms the paper (Thornley & Chandy, IPPS 2000) measures
//! monotonic counters against, each built from scratch on
//! `std::sync::{Mutex, Condvar}`:
//!
//! * [`Barrier`] — N-way cyclic barrier with a `pass()` operation, as used by
//!   `ShortestPaths2` (Section 4.3) and the boundary-exchange simulation
//!   (Section 5.1).
//! * [`Event`] — a set-once condition flag with `set()`/`check()`, the
//!   `Condition` type of `ShortestPaths3` (Section 4.4).
//!
//! Each has exactly **one** thread suspension queue; the point of the paper
//! — and of the experiments in this workspace that compare against these
//! two — is that a single counter replaces arrays of these objects because
//! it maintains a *dynamically varying number* of suspension queues.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod barrier;
mod event;

pub use barrier::Barrier;
pub use event::Event;
