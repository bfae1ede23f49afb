//! Bounded dynamic exploration of synchronization skeletons.
//!
//! The static verifier (`mc-verify`) proves properties over **all**
//! interleavings; this module samples interleavings of the same
//! [`Skeleton`] IR with a seeded random scheduler, and can replay an
//! explicit schedule — including the witness schedules the static analyses
//! emit — so static counterexamples are confirmed dynamically.
//!
//! An interleaving's observable *outcome* is its dataflow: which write each
//! read observed, each variable's final writer, and whether every thread
//! completed. A skeleton is dynamically deterministic over a seed set when
//! all sampled schedules produce the same outcome.

use std::fmt;

use mc_counter::splitmix64;
use mc_verify::{greedy_cut_limited, Op, OpRef, Skeleton};

/// The schedule-observable result of one interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkeletonOutcome {
    /// True if every thread ran to completion.
    pub completed: bool,
    /// For each executed read (in position order): the write it observed,
    /// if any.
    pub reads: Vec<(OpRef, Option<OpRef>)>,
    /// Final writer of each variable, by variable index.
    pub final_writes: Vec<Option<OpRef>>,
    /// Where each thread stopped (its length if it completed).
    pub stopped_at: Vec<usize>,
}

impl fmt::Display for SkeletonOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "completed={}, {} reads, final writers {:?}",
            self.completed,
            self.reads.len(),
            self.final_writes
        )
    }
}

/// Interpreter state while executing a skeleton one operation at a time.
struct Interp<'a> {
    sk: &'a Skeleton,
    positions: Vec<usize>,
    values: Vec<u64>,
    last_write: Vec<Option<OpRef>>,
    reads: Vec<(OpRef, Option<OpRef>)>,
}

impl<'a> Interp<'a> {
    fn new(sk: &'a Skeleton) -> Self {
        Interp {
            sk,
            positions: vec![0; sk.num_threads()],
            values: vec![0; sk.num_counters()],
            last_write: vec![None; sk.num_vars()],
            reads: Vec::new(),
        }
    }

    /// Threads whose next operation is executable right now.
    fn enabled(&self) -> Vec<usize> {
        (0..self.sk.num_threads())
            .filter(|&t| {
                let i = self.positions[t];
                if i >= self.sk.ops(t).len() {
                    return false;
                }
                match self.sk.ops(t)[i] {
                    Op::Check { counter, level } => self.values[counter.0] >= level,
                    _ => true,
                }
            })
            .collect()
    }

    /// Execute thread `t`'s next operation. Panics if not enabled.
    fn step(&mut self, t: usize) -> OpRef {
        let i = self.positions[t];
        let r = OpRef {
            thread: t,
            index: i,
        };
        match self.sk.op(r) {
            Op::Inc { counter, amount } => {
                self.values[counter.0] = self.values[counter.0]
                    .checked_add(amount)
                    .expect("counter overflow in skeleton interpreter");
            }
            Op::Check { counter, level } => {
                assert!(
                    self.values[counter.0] >= level,
                    "stepped a disabled check: {}",
                    self.sk.describe(r)
                );
            }
            Op::Read { var } => self.reads.push((r, self.last_write[var.0])),
            Op::Write { var } => self.last_write[var.0] = Some(r),
        }
        self.positions[t] = i + 1;
        r
    }

    fn outcome(self) -> SkeletonOutcome {
        let completed = self
            .positions
            .iter()
            .enumerate()
            .all(|(t, &p)| p >= self.sk.ops(t).len());
        // Reads are pushed in interleaving order; normalize to position
        // order so outcomes compare by dataflow, not by schedule.
        let mut reads = self.reads;
        reads.sort_unstable_by_key(|(r, _)| *r);
        SkeletonOutcome {
            completed,
            reads,
            final_writes: self.last_write,
            stopped_at: self.positions,
        }
    }
}

/// Execute one maximal interleaving chosen by a seeded uniform scheduler:
/// at each step, a uniformly random enabled thread executes its next
/// operation, until no thread is enabled.
pub fn run_random(sk: &Skeleton, seed: u64) -> SkeletonOutcome {
    let mut state = seed;
    let mut interp = Interp::new(sk);
    loop {
        let enabled = interp.enabled();
        if enabled.is_empty() {
            return interp.outcome();
        }
        let pick = (splitmix64(&mut state) % enabled.len() as u64) as usize;
        interp.step(enabled[pick]);
    }
}

/// Sample one outcome per seed and collect the distinct ones, with a
/// witness seed for each.
pub fn explore_skeleton(
    sk: &Skeleton,
    seeds: impl IntoIterator<Item = u64>,
) -> crate::Outcomes<SkeletonOutcome> {
    crate::explore(seeds, |seed| run_random(sk, seed))
}

/// An error replaying an explicit schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The schedule asks a thread to execute an operation out of program
    /// order.
    OutOfOrder {
        /// The offending schedule entry.
        at: OpRef,
        /// The position the thread was actually at.
        expected_index: usize,
    },
    /// The schedule executes a check whose level is not yet satisfied.
    CheckNotSatisfied {
        /// The offending schedule entry.
        at: OpRef,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::OutOfOrder { at, expected_index } => write!(
                f,
                "schedule entry {at} is out of program order (thread is at index {expected_index})"
            ),
            ReplayError::CheckNotSatisfied { at } => {
                write!(f, "schedule executes unsatisfied check at {at}")
            }
        }
    }
}

/// Execute an explicit schedule (e.g. a witness emitted by `mc-verify`),
/// validating that every step is executable, then let every thread run to
/// quiescence greedily. Returns the outcome of the completed run.
pub fn replay_schedule(sk: &Skeleton, schedule: &[OpRef]) -> Result<SkeletonOutcome, ReplayError> {
    let mut interp = Interp::new(sk);
    for &r in schedule {
        if interp.positions[r.thread] != r.index {
            return Err(ReplayError::OutOfOrder {
                at: r,
                expected_index: interp.positions[r.thread],
            });
        }
        if let Op::Check { counter, level } = sk.op(r) {
            if interp.values[counter.0] < level {
                return Err(ReplayError::CheckNotSatisfied { at: r });
            }
        }
        interp.step(r.thread);
    }
    // Drain: run the remainder greedily so the outcome covers a maximal
    // execution extending the prescribed prefix.
    loop {
        let enabled = interp.enabled();
        if enabled.is_empty() {
            return Ok(interp.outcome());
        }
        interp.step(enabled[0]);
    }
}

/// Why a static finding could not be reproduced dynamically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfirmError {
    /// A witness schedule did not replay.
    Replay {
        /// Which finding's witness failed.
        finding: String,
        /// The replay failure.
        error: ReplayError,
    },
    /// The witness replayed but the execution did not exhibit the reported
    /// violation.
    Mismatch {
        /// Which finding failed to reproduce.
        finding: String,
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for ConfirmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfirmError::Replay { finding, error } => {
                write!(f, "{finding}: witness does not replay: {error}")
            }
            ConfirmError::Mismatch { finding, detail } => {
                write!(f, "{finding}: witness replayed but {detail}")
            }
        }
    }
}

/// What [`confirm_rejection`] reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfirmedRejection {
    /// The deadlock witness replayed and left the reported threads stuck.
    pub deadlock: bool,
    /// Number of race witnesses that replayed with the reversed pair.
    pub races: usize,
    /// The sequential schedule failed at exactly the reported check.
    pub seq_eq: bool,
}

impl ConfirmedRejection {
    /// Total findings reproduced.
    pub fn total(&self) -> usize {
        self.deadlock as usize + self.races + self.seq_eq as usize
    }
}

/// Dynamically reproduce every finding of a static
/// [`Rejection`](mc_verify::Rejection) on its skeleton:
///
/// * each **race** witness must replay, executing the textually-later
///   access (`first`) before ending with the textually-earlier one
///   (`second`) — demonstrating the pair really is unordered in this
///   executable interleaving;
/// * the **deadlock** witness must replay to a state where no operation is
///   enabled, with every reported thread stuck exactly where the analysis
///   said;
/// * the **sequential-equivalence** violation must make the declared-order
///   sequential schedule fail at exactly the reported check.
///
/// Returns what was reproduced, or the first finding that would not
/// reproduce — which would mean the static analyses emitted a bogus
/// counterexample.
pub fn confirm_rejection(
    sk: &Skeleton,
    rej: &mc_verify::Rejection,
) -> Result<ConfirmedRejection, ConfirmError> {
    let mut confirmed = ConfirmedRejection::default();

    if let Some(dl) = &rej.deadlock {
        let finding = || "deadlock".to_string();
        let outcome = replay_schedule(sk, &dl.witness).map_err(|error| ConfirmError::Replay {
            finding: finding(),
            error,
        })?;
        if outcome.completed {
            return Err(ConfirmError::Mismatch {
                finding: finding(),
                detail: "every thread ran to completion".into(),
            });
        }
        for b in &dl.blocked {
            if outcome.stopped_at[b.at.thread] != b.at.index {
                return Err(ConfirmError::Mismatch {
                    finding: finding(),
                    detail: format!(
                        "thread {} stopped at index {}, analysis reported {}",
                        b.at.thread, outcome.stopped_at[b.at.thread], b.at.index
                    ),
                });
            }
        }
        confirmed.deadlock = true;
    }

    for (i, race) in rej.races.iter().enumerate() {
        let finding = || format!("race #{i} on {}", sk.var_name(race.var));
        let reversed = race.witness.last() == Some(&race.second.0)
            && race.witness[..race.witness.len().saturating_sub(1)].contains(&race.first.0);
        if !reversed {
            return Err(ConfirmError::Mismatch {
                finding: finding(),
                detail: "witness does not execute the pair in reversed order".into(),
            });
        }
        replay_schedule(sk, &race.witness).map_err(|error| ConfirmError::Replay {
            finding: finding(),
            error,
        })?;
        confirmed.races += 1;
    }

    if let Some(v) = &rej.seq_eq {
        let finding = || "sequential-equivalence violation".to_string();
        // The declared-order sequential schedule, up to and including the
        // reported check.
        let mut schedule = Vec::new();
        for t in 0..v.at.thread {
            for i in 0..sk.ops(t).len() {
                schedule.push(OpRef {
                    thread: t,
                    index: i,
                });
            }
        }
        for i in 0..=v.at.index {
            schedule.push(OpRef {
                thread: v.at.thread,
                index: i,
            });
        }
        match replay_schedule(sk, &schedule) {
            Err(ReplayError::CheckNotSatisfied { at }) if at == v.at => {
                confirmed.seq_eq = true;
            }
            Err(error) => {
                return Err(ConfirmError::Replay {
                    finding: finding(),
                    error,
                })
            }
            Ok(_) => {
                return Err(ConfirmError::Mismatch {
                    finding: finding(),
                    detail: "the sequential schedule satisfied the reported check".into(),
                })
            }
        }
    }

    Ok(confirmed)
}

/// [`confirm_rejection`] for a parameterized witness: replay the rejection
/// of the smallest failing instantiation through the skeleton interpreter.
pub fn confirm_param_witness(
    w: &mc_verify::ParamWitness,
) -> Result<ConfirmedRejection, ConfirmError> {
    confirm_rejection(&w.instance.skeleton, &w.rejection)
}

/// Convenience: does the maximal greedy execution complete? (Mirrors the
/// static fixpoint; exposed for tests that want the dynamic view only.)
pub fn completes(sk: &Skeleton) -> bool {
    let limits: Vec<usize> = (0..sk.num_threads()).map(|t| sk.ops(t).len()).collect();
    let cut = greedy_cut_limited(sk, &limits);
    cut.positions.iter().zip(&limits).all(|(p, l)| p >= l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_verify::SkeletonBuilder;

    fn guarded() -> Skeleton {
        let mut b = SkeletonBuilder::new();
        let c = b.counter("c");
        let x = b.var("x");
        b.thread("w").write(x).inc(c, 1);
        b.thread("r").check(c, 1).read(x);
        b.build()
    }

    fn unguarded() -> Skeleton {
        let mut b = SkeletonBuilder::new();
        let x = b.var("x");
        b.thread("w").write(x);
        b.thread("r").read(x);
        b.build()
    }

    #[test]
    fn guarded_skeleton_is_deterministic_over_seeds() {
        let sk = guarded();
        let outcomes = explore_skeleton(&sk, 0..64);
        assert!(outcomes.is_deterministic(), "{outcomes}");
        let o = outcomes.unique().expect("deterministic");
        assert!(o.completed);
        assert_eq!(
            o.reads,
            vec![(
                OpRef {
                    thread: 1,
                    index: 1
                },
                Some(OpRef {
                    thread: 0,
                    index: 0
                })
            )]
        );
    }

    #[test]
    fn unguarded_skeleton_shows_nondeterminism() {
        let sk = unguarded();
        let outcomes = explore_skeleton(&sk, 0..64);
        assert!(
            !outcomes.is_deterministic(),
            "64 seeds should hit both orders of a 2-op race"
        );
    }

    #[test]
    fn replay_validates_program_order() {
        let sk = guarded();
        let bad = [OpRef {
            thread: 0,
            index: 1,
        }];
        assert!(matches!(
            replay_schedule(&sk, &bad),
            Err(ReplayError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn replay_validates_check_levels() {
        let sk = guarded();
        let bad = [OpRef {
            thread: 1,
            index: 0,
        }];
        assert_eq!(
            replay_schedule(&sk, &bad),
            Err(ReplayError::CheckNotSatisfied {
                at: OpRef {
                    thread: 1,
                    index: 0
                }
            })
        );
    }

    #[test]
    fn confirm_reproduces_all_three_finding_kinds() {
        use mc_verify::{verify, Verdict};

        // Unguarded read races; consumer checks a level the producer never
        // reaches (deadlock); and the declared order runs the consumer's
        // check before the producer increments (seq-eq violation).
        let mut b = SkeletonBuilder::new();
        let c = b.counter("c");
        let x = b.var("x");
        b.thread("consumer").read(x).check(c, 2);
        b.thread("producer").write(x).inc(c, 1);
        let sk = b.build();
        let Verdict::Rejected(rej) = verify(&sk) else {
            panic!("skeleton should be rejected");
        };
        assert!(rej.deadlock.is_some());
        assert!(!rej.races.is_empty());
        assert!(rej.seq_eq.is_some());
        let confirmed = confirm_rejection(&sk, &rej).expect("all findings reproduce");
        assert!(confirmed.deadlock);
        assert_eq!(confirmed.races, rej.races.len());
        assert!(confirmed.seq_eq);
        assert_eq!(confirmed.total(), 1 + rej.races.len() + 1);
    }

    #[test]
    fn confirm_param_witness_replays_smallest_failing_instance() {
        use mc_verify::{models, param_verify};

        let t = models::fan_in_off_by_one_template();
        let v = param_verify(&t).expect("cutoff search succeeds");
        let w = v.witness().expect("off-by-one is rejected");
        let confirmed = confirm_param_witness(w).expect("witness reproduces");
        assert!(confirmed.races >= 1);
    }

    #[test]
    fn confirm_rejects_bogus_witness() {
        use mc_verify::{verify, Verdict};

        let mut b = SkeletonBuilder::new();
        let x = b.var("x");
        b.thread("w").write(x);
        b.thread("r").read(x);
        let sk = b.build();
        let Verdict::Rejected(mut rej) = verify(&sk) else {
            panic!("unguarded pair should be rejected");
        };
        // Corrupt the race witness: drop the final (reversed) access.
        rej.races[0].witness.pop();
        assert!(matches!(
            confirm_rejection(&sk, &rej),
            Err(ConfirmError::Mismatch { .. })
        ));
    }

    #[test]
    fn replay_executes_witness_order() {
        let sk = unguarded();
        // Reader first, then writer: the read observes no write.
        let schedule = [
            OpRef {
                thread: 1,
                index: 0,
            },
            OpRef {
                thread: 0,
                index: 0,
            },
        ];
        let o = replay_schedule(&sk, &schedule).expect("schedule is valid");
        assert_eq!(
            o.reads,
            vec![(
                OpRef {
                    thread: 1,
                    index: 0
                },
                None
            )]
        );
        assert!(o.completed);
    }
}
