//! # monotonic-counters
//!
//! Facade crate for the full reproduction of *"Monotonic Counters: A New
//! Mechanism for Thread Synchronization"* (John Thornley and K. Mani Chandy,
//! IPPS 2000).
//!
//! Re-exports every workspace crate under one roof:
//!
//! * [`counter`] — the monotonic counter primitive itself (the paper's core
//!   contribution, Sections 2 and 7).
//! * [`primitives`] — the traditional mechanisms the paper measures against
//!   (barrier, event/condition), built from scratch.
//! * [`sthreads`] — the structured multithreading model of Section 3
//!   (`multithreaded` blocks and for-loops) with a sequential execution mode
//!   for the Section 6 equivalence results.
//! * [`detcheck`] — a dynamic happens-before determinacy checker for
//!   counter-synchronized programs (Section 6).
//! * [`patterns`] — the Section 5 synchronization patterns as reusable
//!   abstractions (ragged barrier, sequencer, SWMR broadcast, pipeline).
//! * [`algos`] — the evaluation workloads (Floyd–Warshall, heat diffusion,
//!   ordered accumulation, Paraffins, wavefront LCS).
//! * [`chaos`] — schedule perturbation for testing the Section 6 determinacy
//!   claims across many interleavings, plus a kill-9 crash harness for the
//!   durability layer.
//! * [`durable`] — crash-durable counters: a two-slot CRC32-framed log of
//!   the absolute value with group-commit batching, and recovery that
//!   restores both value and poison state after a crash.
//! * [`metrics`] — dependency-free observability: a [`Registry`] of counters
//!   and log-bucketed histograms with Prometheus and JSON exporters, fed by
//!   the supervisor (which scrapes each registered counter's statistics)
//!   and the durable flusher.
//!
//! [`Registry`]: mc_metrics::Registry
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction results.
//!
//! ## Quickstart
//!
//! ```
//! use monotonic_counters::prelude::*;
//!
//! let c = Counter::default();
//! c.increment(1);
//! c.check(1);
//! ```

mod error;

pub use error::Error;

pub use mc_algos as algos;
pub use mc_chaos as chaos;
pub use mc_counter as counter;
pub use mc_detcheck as detcheck;
pub use mc_durable as durable;
pub use mc_metrics as metrics;
pub use mc_patterns as patterns;
pub use mc_primitives as primitives;
pub use mc_sthreads as sthreads;

/// The most commonly used items, for glob import.
///
/// Includes all three counter traits ([`MonotonicCounter`],
/// [`Resettable`], [`CounterDiagnostics`]), every implementation, the common
/// value/error/stats types, and the Section 5 patterns — everything the
/// `examples/` directory needs from a single `use`.
///
/// [`MonotonicCounter`]: mc_counter::MonotonicCounter
/// [`Resettable`]: mc_counter::Resettable
/// [`CounterDiagnostics`]: mc_counter::CounterDiagnostics
pub mod prelude {
    pub use crate::Error;
    pub use mc_chaos::{FailConfig, Failpoints};
    pub use mc_counter::{
        check_all, BTreeCounter, BuildConfig, Buildable, CheckError, CheckTimeoutError, Counter,
        CounterBuilder, CounterDiagnostics, CounterExt, CounterOverflowError, DynCounter,
        FailureInfo, HealthStatus, MetricsSink, MonotonicCounter, NaiveCounter, Obligation,
        Resettable, SpinCounter, StallReport, StallVerdict, StatsSnapshot, Supervisor,
        SupervisorConfig, TracingCounter, Value,
    };
    pub use mc_durable::{
        DurabilityMode, DurableCounter, DurableOptions, PoisonPolicy, RetryPolicy, WalError,
        WalStats,
    };
    pub use mc_metrics::Registry;
    pub use mc_patterns::{
        Broadcast, CheckpointedPipeline, DataflowGraph, Pipeline, RaggedBarrier,
        RestartablePipeline, Sequencer,
    };
    pub use mc_primitives::{Barrier, Event};
    pub use mc_sthreads::{
        multithreaded, multithreaded_for, supervised_for, supervised_tasks, ChildSpec,
        ExecutionMode, RestartLimits, SupervisionTree,
    };
}
