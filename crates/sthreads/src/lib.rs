//! # Structured multithreading (the paper's Section 3 model)
//!
//! The paper expresses programs in a `parbegin`–`parend` style notation:
//!
//! * a **multithreaded block** runs each statement of a block as an
//!   asynchronous thread and joins them all before continuing;
//! * a **multithreaded for-loop** runs each iteration as a thread, each with
//!   its own copy of the loop variable, and joins them all.
//!
//! This crate provides both constructs on top of `std::thread::scope`, plus
//! the ingredient the paper's Section 6 determinacy results need: an
//! [`ExecutionMode`] that runs the *same program text* either multithreaded
//! or sequentially ("execution ignoring the `multithreaded` keyword"), so
//! tests can assert that both executions produce identical results.
//!
//! ```
//! use mc_sthreads::{multithreaded_for, ExecutionMode};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! multithreaded_for(ExecutionMode::Multithreaded, 0..10u64, |i| {
//!     sum.fetch_add(i, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 45);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chunk;
mod mode;
mod run;
mod supervise;
mod tree;
mod watchdog;

pub use chunk::{chunk_of, chunks};
pub use mode::ExecutionMode;
pub use run::{multithreaded_chunks, multithreaded_for, multithreaded_tasks, par_for};
pub use supervise::{supervised_for, supervised_tasks};
pub use tree::{
    ChildReport, ChildSpec, RestartLimits, ResumeCtx, ResumedCounter, SupervisionTree,
    SupervisionTreeBuilder, TreeFailure, TreeReport,
};
pub use watchdog::{run_with_deadline, DeadlineExceeded};

// Re-exported so deadline-supervised programs (whose closures receive a
// `&Supervisor`) need not depend on mc-counter directly.
pub use mc_counter::Supervisor;

/// Runs each block as an asynchronous thread and joins them all — the
/// paper's `multithreaded { stmt ... stmt }` construct.
///
/// Execution does not continue past the macro until every block has
/// terminated, and (as in the paper) it is impossible to jump between blocks
/// or in/out of the construct.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
/// let a = AtomicU32::new(0);
/// let b = AtomicU32::new(0);
/// mc_sthreads::multithreaded! {
///     { a.store(1, Ordering::SeqCst); }
///     { b.store(2, Ordering::SeqCst); }
/// }
/// assert_eq!(a.load(Ordering::SeqCst) + b.load(Ordering::SeqCst), 3);
/// ```
#[macro_export]
macro_rules! multithreaded {
    ($($body:block)+) => {
        ::std::thread::scope(|scope| {
            $( scope.spawn(|| $body); )+
        })
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn multithreaded_block_joins_all() {
        let x = AtomicU32::new(0);
        multithreaded! {
            { x.fetch_add(1, Ordering::SeqCst); }
            { x.fetch_add(2, Ordering::SeqCst); }
            { x.fetch_add(4, Ordering::SeqCst); }
        }
        // All three threads have terminated by the time the macro returns.
        assert_eq!(x.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn multithreaded_block_single_statement() {
        let x = AtomicU32::new(0);
        multithreaded! {
            { x.store(9, Ordering::SeqCst); }
        }
        assert_eq!(x.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn nested_multithreaded_blocks() {
        // The paper: "Multithreaded and ordinary blocks and for-loops can be
        // arbitrarily nested."
        let x = AtomicU32::new(0);
        multithreaded! {
            {
                multithreaded! {
                    { x.fetch_add(1, Ordering::SeqCst); }
                    { x.fetch_add(1, Ordering::SeqCst); }
                }
            }
            { x.fetch_add(1, Ordering::SeqCst); }
        }
        assert_eq!(x.load(Ordering::SeqCst), 3);
    }
}
