//! `handoff`: ordered mutual exclusion with a [`Sequencer`] (paper §5.2).
//!
//! Two threads take the even and the odd tickets; the critical section only
//! folds the ticket's seeded value into an order-sensitive checksum and
//! checks it runs in ticket order. Nearly every op is one blocked check
//! plus one waking increment, so this is the slow-path workload. Latency is
//! wake-to-run: from the start of the previous ticket's guard drop to this
//! ticket's `enter` returning.

use super::{fold, input, pin, repeat_setup, Config, Outcome, FOLD_INIT};
use crate::sample::{median, percentile};
use crate::trace::{self, durations, TracedCounter, Tracer};
use mc_counter::{Counter, CounterDiagnostics, MonotonicCounter};
use mc_patterns::Sequencer;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Application threads.
pub const THREADS: u64 = 2;
/// Tickets of the single-thread sequential reference in setup.
pub const SEQ_TICKETS: u64 = 1 << 20;
/// Length of one two-thread slice of the measured loop.
pub const SLICE_SECONDS: f64 = 0.5;
/// Tickets of the sequential reference after each slice.
pub const SEQ_SLICE_TICKETS: u64 = 1 << 20;

/// Critical-section state. The sequencer orders every access, so relaxed
/// atomics suffice: each section reads what the previous one wrote.
struct Section {
    seed: u64,
    /// The next ticket the sections expect.
    next: AtomicU64,
    checksum: AtomicU64,
    /// When the last section started releasing its guard (ns since base).
    released_ns: AtomicU64,
    /// One past the last ticket to run; `u64::MAX` until the deadline.
    end: AtomicU64,
}

impl Section {
    fn new(seed: u64) -> Self {
        Section {
            seed,
            next: AtomicU64::new(0),
            checksum: AtomicU64::new(FOLD_INIT),
            released_ns: AtomicU64::new(0),
            end: AtomicU64::new(u64::MAX),
        }
    }

    /// The critical section of `ticket`; `false` if it ran out of order.
    fn run(&self, ticket: u64) -> bool {
        let h = self.checksum.load(Relaxed);
        self.checksum
            .store(fold(h, input(self.seed, 2, ticket)), Relaxed);
        self.next.swap(ticket + 1, Relaxed) == ticket
    }
}

/// The checksum of tickets `0..n` in order.
fn expected(seed: u64, n: u64) -> u64 {
    (0..n).map(|t| input(seed, 2, t)).fold(FOLD_INIT, fold)
}

/// Runs `n` tickets through a fresh sequencer on the calling thread, where
/// every check is satisfied on the fast path; returns ns per ticket.
fn sequential(seed: u64, n: u64) -> Result<f64, String> {
    let seq = Sequencer::new();
    let sec = Section::new(seed);
    let t0 = Instant::now();
    for t in 0..n {
        let _g = seq.enter(t);
        sec.run(t);
    }
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    if sec.checksum.load(Relaxed) != expected(seed, n) {
        return Err("sequential handoff reference ran out of order".into());
    }
    Ok(ns)
}

/// Runs one phase; traced when `tracer` is given.
pub fn run(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    let (_, setup) = repeat_setup(|| sequential(cfg.seed, SEQ_TICKETS))?;

    trace::set_active(tracer.cloned());
    let mut out = match tracer {
        None => measure(cfg, &Sequencer::<Counter>::new(), None),
        Some(t) => {
            let seq = Sequencer::<TracedCounter>::with_counter();
            let out = measure(cfg, &seq, Some(t));
            drop(seq); // folds the counter's statistics into the tracer
            out
        }
    }?;
    trace::set_active(None);
    out.setup = Some(setup);

    if let Some(t) = tracer {
        out.spans = t.spans();
        let sampled = out.ops.div_ceil(t.stride());
        out.counter_layer(&t.stats(), out.ops);
        out.counter_span_layer(sampled, out.ops, THREADS as u32, out.wall);
        let mut enter = durations(&out.spans, "patterns.sequencer.enter");
        let mut exit = durations(&out.spans, "patterns.sequencer.exit");
        let (ne, nx) = (enter.len() as u64, exit.len() as u64);
        out.layer.push((
            "patterns.sequencer.enter_us_p50",
            percentile(&mut enter, 50.0) / 1e3,
            ne,
            String::new(),
        ));
        out.layer.push((
            "patterns.sequencer.exit_ns_p50",
            percentile(&mut exit, 50.0),
            nx,
            String::new(),
        ));
    }
    Ok(out)
}

/// Slices of two-thread handoff until the deadline, each followed by a
/// short sequential reference on application thread 0's CPU, so
/// `speedup_vs_seq` compares the two under the same host conditions.
/// Tickets continue across slices.
fn measure<C: MonotonicCounter + CounterDiagnostics>(
    cfg: &Config,
    seq: &Sequencer<C>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Outcome, String> {
    let sec = Section::new(cfg.seed);
    let mut out = Outcome::default();
    let mut ratios = Vec::new();
    let mut masks = Vec::new();
    let deadline = cfg.deadline(Instant::now());
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let first = sec.next.load(Relaxed);
        sec.end.store(u64::MAX, Relaxed);
        let slice = left.min(Duration::from_secs_f64(SLICE_SECONDS));
        let (ops, wall) = slice_run(seq, &sec, first, slice, tracer, &mut out, &mut masks)?;
        out.ops += ops;
        out.wall += wall;
        out.windows.push((ops, wall));
        let seq_ns = super::on_app_thread(|| sequential(cfg.seed, SEQ_SLICE_TICKETS))?;
        ratios.push(seq_ns / (wall.as_nanos() as f64 / ops.max(1) as f64));
    }
    out.speedup = median(&ratios);
    out.placement = super::placement_label(&masks);
    if out.failed == 0 && sec.checksum.load(Relaxed) != expected(cfg.seed, out.ops) {
        out.failed = 1;
    }
    Ok(out)
}

/// One slice: both threads take tickets from `first` on for `slice`.
/// Returns the tickets run and the slice's wall time; latencies, failures
/// and the threads' masks go into `out` and `masks`.
fn slice_run<C: MonotonicCounter>(
    seq: &Sequencer<C>,
    sec: &Section,
    first: u64,
    slice: Duration,
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
    masks: &mut Vec<String>,
) -> Result<(u64, Duration), String> {
    let gate = Barrier::new(THREADS as usize);
    let base = Instant::now();
    let results: Vec<Result<Worker, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let gate = &gate;
                s.spawn(move || {
                    let pinned = pin(k as usize);
                    gate.wait();
                    let w = take_tickets(seq, sec, first, k, slice, base, tracer);
                    Ok(Worker { mask: pinned?, ..w })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("handoff thread panicked"))
            .collect()
    });
    let (mut start, mut end, mut ops) = (u64::MAX, 0, 0);
    masks.clear();
    for r in results {
        let w = r?;
        ops += w.ops;
        out.failed += w.out_of_order;
        out.latency_ns.extend(w.latency_ns);
        start = start.min(w.start_ns);
        end = end.max(w.end_ns);
        masks.push(w.mask);
    }
    Ok((ops, Duration::from_nanos(end.saturating_sub(start))))
}

#[derive(Default)]
struct Worker {
    ops: u64,
    out_of_order: u64,
    latency_ns: Vec<f64>,
    start_ns: u64,
    end_ns: u64,
    mask: String,
}

/// Thread `k`'s closed loop over its tickets `first + i` (those congruent
/// to `k` modulo [`THREADS`]) for `slice`.
///
/// The first thread whose section sees the slice over sets `end` to
/// `ticket + THREADS` while it still holds the guard: the other thread's
/// pending ticket `ticket + 1` still runs, and no thread enters a ticket at
/// or past `end`, so nobody waits on a ticket that will never come and
/// every ticket below `end` ran.
fn take_tickets<C: MonotonicCounter>(
    seq: &Sequencer<C>,
    sec: &Section,
    first: u64,
    k: u64,
    slice: Duration,
    base: Instant,
    tracer: Option<&Arc<Tracer>>,
) -> Worker {
    let now = || base.elapsed().as_nanos() as u64;
    let deadline_ns = now() + slice.as_nanos() as u64;
    let mut w = Worker {
        start_ns: now(),
        latency_ns: Vec::with_capacity(1 << 18),
        ..Worker::default()
    };
    let mut ticket = first + (k + THREADS - first % THREADS) % THREADS;
    while ticket < sec.end.load(Relaxed) {
        let _op = tracer.map(|t| t.op("handoff.ticket", ticket, false));
        let guard = {
            let _s = tracer.map(|t| t.span("patterns.sequencer.enter"));
            seq.enter(ticket)
        };
        let admitted = now();
        if ticket > first {
            w.latency_ns
                .push(admitted.saturating_sub(sec.released_ns.load(Relaxed)) as f64);
        }
        if !sec.run(ticket) {
            w.out_of_order += 1;
        }
        w.ops += 1;
        if admitted >= deadline_ns && sec.end.load(Relaxed) == u64::MAX {
            sec.end.store(ticket + THREADS, Relaxed);
        }
        sec.released_ns.store(now(), Relaxed);
        {
            let _s = tracer.map(|t| t.span("patterns.sequencer.exit"));
            drop(guard);
        }
        ticket += THREADS;
    }
    w.end_ns = now();
    w
}
