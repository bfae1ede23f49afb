//! The cutoff engine: one verdict for **every** thread count.
//!
//! [`param_verify`] decides the deadlock/race/seq-eq verdict of a
//! [`Template`] for *all* parameter assignments at once, by computing a
//! **cutoff** `c`: a size at which the verdict provably stops changing, so
//! the verdict at `c` certifies every `N ≥ c` and brute-force enumeration
//! covers every `N < c`.
//!
//! ## Why a cutoff exists
//!
//! The skeleton transition system is monotone (counters only grow, checks
//! never consume), so greedy scheduling is confluent and the greedy cut is
//! *the* canonical behaviour of an instantiation. Adding a replica to a role
//! only **adds** increments and threads; it never removes an enabled
//! transition from the existing replicas, so each counter's maximal value is
//! non-decreasing in every parameter, and a template-level check site whose
//! level is linear in the parameters is discharged uniformly once the
//! supplied increments outgrow it ("Lost in Abstraction": monotone systems
//! admit parameterized proofs). Concretely, once every role has distinct
//! first / interior / last replicas and every level expression is past its
//! crossover with the supplied-increment expression, one more replica
//! changes the greedy cut only by stamping out another interior copy — the
//! verdict is frozen.
//!
//! ## What the engine actually checks
//!
//! The crossover point is not computed symbolically; it is *detected and
//! then validated*. For a candidate `c` (starting at the structural minimum
//! — 3 when the template uses neighbour selectors or replica guards, else
//! 2, and at least `2·max_offset + 1`), the engine brute-force verifies
//! **every** instantiation with all parameters in `1..=c+2` and accepts `c`
//! as the cutoff iff, on the stabilization band (all parameters in
//! `[c, c+2]`):
//!
//! 1. the [`VerdictClass`] is identical at every band point;
//! 2. the *template-level finding sites* (which role/op deadlocks, which
//!    pairs race, mapped through [`Instance::site`]) are identical at every
//!    band point — the finding is replica-generic, not an artefact of one
//!    size;
//! 3. each counter family's total greedy-cut value is an exact affine
//!    function of the parameters across the band — growth is uniform, no
//!    latent crossover is pending;
//! 4. family totals are monotonically non-decreasing along every `+1` edge
//!    of the band — the monotonicity premise itself, observed where the
//!    claim applies. (Below the band the premise can genuinely fail for
//!    *topology* templates: growing the role re-shapes the edge replicas'
//!    bodies, e.g. the old last replica gains a `next()` neighbour check,
//!    so a buggy template may certify at `N = 1` yet deadlock with a
//!    smaller cut at `N = 2`. Those sizes are exhaustively enumerated
//!    instead of extrapolated.)
//!
//! A class flip inside the band (or non-affine growth) rejects the
//! candidate and the search moves to `c + 1`; a template that never
//! stabilizes within the bound reports [`CutoffError::NoStabilization`]
//! rather than guessing. Every accepted cutoff therefore ships with its own
//! validation data: the full grid of enumerated verdicts up to `c + 2`
//! ([`CutoffProof::enumerated`]), which the property tests and the E12
//! experiment re-derive independently.
//!
//! Rejections carry a [`ParamWitness`]: the **smallest failing assignment**
//! (minimal parameter sum, then lexicographic), its lowered [`Instance`],
//! and the concrete [`Rejection`] — replayable through the `mc-chaos`
//! skeleton interpreter like any other static counterexample.

use std::collections::BTreeSet;
use std::fmt;

use crate::fixpoint::greedy_cut;
use crate::ir::OpRef;
use crate::template::{Instance, InstantiateError, RoleId, Template};
use crate::verdict::{verify, Certificate, Rejection, Verdict};

/// The shape of a verdict, comparable across instantiation sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VerdictClass {
    /// Deadlock-free and race-free (a certificate was issued).
    pub certified: bool,
    /// A deadlock finding is present.
    pub deadlock: bool,
    /// At least one race finding is present.
    pub race: bool,
    /// The Section 6 sequential precondition holds.
    pub seq_eq: bool,
}

impl VerdictClass {
    /// Classify a concrete verdict.
    pub fn of(v: &Verdict) -> Self {
        match v {
            Verdict::Certified(c) => VerdictClass {
                certified: true,
                deadlock: false,
                race: false,
                seq_eq: c.sequentially_equivalent(),
            },
            Verdict::Rejected(r) => VerdictClass {
                certified: false,
                deadlock: r.deadlock.is_some(),
                race: !r.races.is_empty(),
                seq_eq: r.seq_eq.is_none(),
            },
        }
    }
}

impl fmt::Display for VerdictClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.certified {
            write!(f, "certified (seq-eq: {})", self.seq_eq)
        } else {
            write!(
                f,
                "rejected (deadlock: {}, race: {}, seq-eq: {})",
                self.deadlock, self.race, self.seq_eq
            )
        }
    }
}

/// A template-level finding profile: which sites deadlock and which site
/// pairs race, independent of the instantiation size.
type SiteProfile = (
    BTreeSet<(RoleId, usize)>,
    BTreeSet<((RoleId, usize), (RoleId, usize))>,
);

/// The validation data behind an accepted cutoff.
#[derive(Clone, Debug)]
pub struct CutoffProof {
    /// The accepted cutoff.
    pub cutoff: u64,
    /// Every enumerated assignment (all parameters in `1..=cutoff+2`) with
    /// its brute-force verdict class, in grid order.
    pub enumerated: Vec<(Vec<u64>, VerdictClass)>,
    /// The class shared by every band point — the verdict claimed for all
    /// assignments with every parameter `≥ cutoff`.
    pub stable_class: VerdictClass,
    /// Enumerated assignments (necessarily below the band) whose class
    /// differs from `stable_class` — small-size degenerate behaviour,
    /// reported rather than hidden.
    pub exceptions: Vec<Vec<u64>>,
    /// Evidence check 2: finding sites identical across the band.
    pub uniform_sites: bool,
    /// Evidence check 3: family totals affine in the parameters on the band.
    pub affine_totals: bool,
    /// Evidence check 4: family totals non-decreasing along every band edge.
    pub monotone_totals: bool,
}

impl CutoffProof {
    /// Number of brute-forced instantiations.
    pub fn instantiations(&self) -> usize {
        self.enumerated.len()
    }

    /// The enumerated class at an assignment, if it was in the grid.
    pub fn class_at(&self, assign: &[u64]) -> Option<VerdictClass> {
        self.enumerated
            .iter()
            .find(|(a, _)| a == assign)
            .map(|&(_, c)| c)
    }
}

/// A parameterized rejection: the smallest failing assignment with its
/// lowered instance and concrete findings, replayable through `mc-chaos`.
#[derive(Clone, Debug)]
pub struct ParamWitness {
    /// The smallest failing parameter assignment (minimal sum, then lex).
    pub assign: Vec<u64>,
    /// The template lowered at `assign`.
    pub instance: Instance,
    /// The findings at `assign`.
    pub rejection: Rejection,
}

/// Result of [`param_verify`]: one verdict for every parameter assignment.
#[derive(Clone, Debug)]
pub enum ParamVerdict {
    /// Certified at every band point: deadlock- and race-free for all
    /// assignments with every parameter `≥ cutoff` (and each smaller
    /// assignment's verdict is in the proof's enumeration).
    Certified {
        /// The validation data.
        proof: CutoffProof,
        /// The certificate at the all-parameters-=-cutoff instantiation.
        at_cutoff: Certificate,
    },
    /// Rejected at every band point, with a concrete witness at the
    /// smallest failing assignment.
    Rejected {
        /// The validation data.
        proof: CutoffProof,
        /// The smallest failing assignment's findings (boxed: the lowered
        /// instance dwarfs the certified variant).
        witness: Box<ParamWitness>,
    },
}

impl ParamVerdict {
    /// True if certified for all sizes past the cutoff.
    pub fn is_certified(&self) -> bool {
        matches!(self, ParamVerdict::Certified { .. })
    }

    /// The proof, whichever the verdict.
    pub fn proof(&self) -> &CutoffProof {
        match self {
            ParamVerdict::Certified { proof, .. } | ParamVerdict::Rejected { proof, .. } => proof,
        }
    }

    /// The witness, if rejected.
    pub fn witness(&self) -> Option<&ParamWitness> {
        match self {
            ParamVerdict::Certified { .. } => None,
            ParamVerdict::Rejected { witness, .. } => Some(witness),
        }
    }

    /// Render a one-paragraph summary with template names.
    pub fn render(&self, t: &Template) -> String {
        let proof = self.proof();
        let params: Vec<&str> = (0..t.num_params()).map(|i| t.param_name(i)).collect();
        let mut out = format!(
            "cutoff {} over ({}) — {} instantiations enumerated, class for all {} >= {}: {}",
            proof.cutoff,
            params.join(", "),
            proof.instantiations(),
            params.join(", "),
            proof.cutoff,
            proof.stable_class,
        );
        if !proof.exceptions.is_empty() {
            out.push_str(&format!(
                "; small-size exceptions at {:?}",
                proof.exceptions
            ));
        }
        if let ParamVerdict::Rejected { witness, .. } = self {
            out.push_str(&format!(
                "\nsmallest failing assignment {:?}:\n{}",
                witness.assign,
                witness.rejection.render(&witness.instance.skeleton)
            ));
        }
        out
    }
}

/// Why no cutoff could be established.
#[derive(Clone, Debug)]
pub enum CutoffError {
    /// The verdict (or its evidence) kept changing up to the search bound —
    /// the template is outside the fragment the monotonicity argument
    /// covers (e.g. a level growing faster than its supplied increments
    /// crosses over at an unexplored size).
    NoStabilization {
        /// The largest candidate cutoff tried.
        max_tried: u64,
        /// The class observed at the last band, if it was at least
        /// class-stable (evidence checks failed instead).
        last_class: Option<VerdictClass>,
    },
    /// An instantiation in the enumerated grid failed to lower.
    Instantiate(InstantiateError),
}

impl fmt::Display for CutoffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CutoffError::NoStabilization {
                max_tried,
                last_class,
            } => {
                write!(f, "verdict did not stabilize by cutoff {max_tried}")?;
                if let Some(c) = last_class {
                    write!(f, " (last band class: {c})")?;
                }
                Ok(())
            }
            CutoffError::Instantiate(e) => write!(f, "instantiation failed: {e}"),
        }
    }
}

impl std::error::Error for CutoffError {}

impl From<InstantiateError> for CutoffError {
    fn from(e: InstantiateError) -> Self {
        CutoffError::Instantiate(e)
    }
}

/// Everything the engine needs to know about one grid point.
struct Point {
    class: VerdictClass,
    sites: SiteProfile,
    /// Greedy-cut total per counter family.
    totals: Vec<u64>,
}

fn evaluate_point(t: &Template, assign: &[u64]) -> Result<Point, CutoffError> {
    let inst = t.instantiate_full(assign)?;
    let verdict = verify(&inst.skeleton);
    let class = VerdictClass::of(&verdict);
    let mut dl_sites = BTreeSet::new();
    let mut race_sites = BTreeSet::new();
    if let Verdict::Rejected(rej) = &verdict {
        if let Some(dl) = &rej.deadlock {
            for b in &dl.blocked {
                dl_sites.insert(inst.site(b.at.thread, b.at.index));
            }
        }
        for race in &rej.races {
            let site = |r: OpRef| inst.site(r.thread, r.index);
            let (a, b) = (site(race.first.0), site(race.second.0));
            race_sites.insert(if a <= b { (a, b) } else { (b, a) });
        }
    }
    // Family totals from the greedy cut — defined whether or not the
    // instantiation certifies.
    let cut = greedy_cut(&inst.skeleton);
    let mut totals = vec![0u64; inst.counter_families];
    for (c, &v) in cut.values.iter().enumerate() {
        totals[inst.counter_origin[c].0] = totals[inst.counter_origin[c].0].saturating_add(v);
    }
    Ok(Point {
        class,
        sites: (dl_sites, race_sites),
        totals,
    })
}

/// Enumerate the grid `1..=hi` in every dimension, in lexicographic order.
fn grid(dims: usize, hi: u64) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new()];
    for _ in 0..dims {
        let mut next = Vec::with_capacity(out.len() * hi as usize);
        for prefix in &out {
            for v in 1..=hi {
                let mut p = prefix.clone();
                p.push(v);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

/// Exact affine fit of family totals over the band: derive coefficients
/// from the corner points, then require every band point to match.
fn affine_on_band(points: &[(&Vec<u64>, &Point)], c: u64, dims: usize, families: usize) -> bool {
    let at = |assign: &[u64]| -> Option<&Point> {
        points
            .iter()
            .find(|(a, _)| a.as_slice() == assign)
            .map(|&(_, p)| p)
    };
    let base = vec![c; dims];
    let Some(p0) = at(&base) else { return false };
    for fam in 0..families {
        let v0 = p0.totals[fam] as i128;
        let mut coeffs = Vec::with_capacity(dims);
        for d in 0..dims {
            let mut corner = base.clone();
            corner[d] += 1;
            let Some(pd) = at(&corner) else { return false };
            coeffs.push(pd.totals[fam] as i128 - v0);
        }
        let a0 = v0
            - coeffs
                .iter()
                .zip(&base)
                .map(|(a, &x)| a * x as i128)
                .sum::<i128>();
        for (assign, p) in points {
            let predicted = a0
                + coeffs
                    .iter()
                    .zip(assign.iter())
                    .map(|(a, &x)| a * x as i128)
                    .sum::<i128>();
            if predicted != p.totals[fam] as i128 {
                return false;
            }
        }
    }
    true
}

/// Default search bound for [`param_verify`].
pub const DEFAULT_MAX_CUTOFF: u64 = 8;

/// Verify a template for **all** parameter assignments, searching for a
/// cutoff up to [`DEFAULT_MAX_CUTOFF`]. The [crate docs](crate) outline why
/// such a cutoff exists.
pub fn param_verify(t: &Template) -> Result<ParamVerdict, CutoffError> {
    param_verify_bounded(t, DEFAULT_MAX_CUTOFF)
}

/// [`param_verify`] with an explicit search bound.
pub fn param_verify_bounded(t: &Template, max_cutoff: u64) -> Result<ParamVerdict, CutoffError> {
    let dims = t.num_params();
    if dims == 0 {
        // Degenerate: a concrete skeleton in template clothing. The single
        // instantiation *is* the proof.
        let point = evaluate_point(t, &[])?;
        let proof = CutoffProof {
            cutoff: 0,
            enumerated: vec![(Vec::new(), point.class)],
            stable_class: point.class,
            exceptions: Vec::new(),
            uniform_sites: true,
            affine_totals: true,
            monotone_totals: true,
        };
        return finish(t, proof);
    }

    // Structural minimum: roles with topology need first/interior/last
    // replicas (and offsets need reach) before one more replica is just
    // another interior copy.
    let mut start = if t.has_topology() { 3 } else { 2 };
    start = start.max(2 * t.max_offset() + 1);
    let start = start.min(max_cutoff);

    let mut cache: Vec<(Vec<u64>, Point)> = Vec::new();
    let mut last_class = None;
    for c in start..=max_cutoff {
        // Evaluate every grid point once, reusing earlier candidates' work.
        for assign in grid(dims, c + 2) {
            if cache.iter().any(|(a, _)| *a == assign) {
                continue;
            }
            let point = evaluate_point(t, &assign)?;
            cache.push((assign, point));
        }
        let in_grid: Vec<(&Vec<u64>, &Point)> = cache
            .iter()
            .filter(|(a, _)| a.iter().all(|&v| v <= c + 2))
            .map(|(a, p)| (a, p))
            .collect();
        let band: Vec<(&Vec<u64>, &Point)> = in_grid
            .iter()
            .filter(|(a, _)| a.iter().all(|&v| v >= c))
            .copied()
            .collect();

        // Check 1: one class across the band.
        let stable_class = band[0].1.class;
        if band.iter().any(|(_, p)| p.class != stable_class) {
            last_class = None;
            continue;
        }
        last_class = Some(stable_class);

        // Check 2: replica-generic finding sites.
        let uniform_sites = band.iter().all(|(_, p)| p.sites == band[0].1.sites);
        // Check 3: affine family totals on the band.
        let families = band[0].1.totals.len();
        let affine_totals = affine_on_band(&band, c, dims, families);
        // Check 4: monotone totals along every +1 edge of the band. Edges
        // below the band are exempt: growing a *topology* role re-shapes the
        // edge replicas' bodies (a new last replica gives the old one a
        // `next()` neighbour check), so totals may legitimately drop at
        // small sizes — and every sub-band point is exhaustively enumerated
        // regardless.
        let monotone_totals = band.iter().all(|(a, p)| {
            (0..dims).all(|d| {
                let mut succ = (*a).clone();
                succ[d] += 1;
                in_grid
                    .iter()
                    .find(|(b, _)| **b == succ)
                    .is_none_or(|(_, q)| p.totals.iter().zip(&q.totals).all(|(x, y)| x <= y))
            })
        });
        if !(uniform_sites && affine_totals && monotone_totals) {
            continue;
        }

        let mut enumerated: Vec<(Vec<u64>, VerdictClass)> = in_grid
            .iter()
            .map(|(a, p)| ((*a).clone(), p.class))
            .collect();
        enumerated.sort();
        let exceptions = enumerated
            .iter()
            .filter(|(_, cl)| *cl != stable_class)
            .map(|(a, _)| a.clone())
            .collect();
        let proof = CutoffProof {
            cutoff: c,
            enumerated,
            stable_class,
            exceptions,
            uniform_sites,
            affine_totals,
            monotone_totals,
        };
        return finish(t, proof);
    }
    Err(CutoffError::NoStabilization {
        max_tried: max_cutoff,
        last_class,
    })
}

/// Package the proof into the final verdict, materializing the certificate
/// or the smallest-failing-assignment witness.
fn finish(t: &Template, proof: CutoffProof) -> Result<ParamVerdict, CutoffError> {
    if proof.stable_class.certified {
        let at = vec![proof.cutoff.max(1); t.num_params()];
        let inst = t.instantiate_full(&at)?;
        match verify(&inst.skeleton) {
            Verdict::Certified(at_cutoff) => Ok(ParamVerdict::Certified { proof, at_cutoff }),
            Verdict::Rejected(_) => unreachable!("band point re-verification flipped"),
        }
    } else {
        // Smallest failing assignment: minimal parameter sum, then lex.
        let mut failing: Vec<&Vec<u64>> = proof
            .enumerated
            .iter()
            .filter(|(_, cl)| !cl.certified)
            .map(|(a, _)| a)
            .collect();
        failing.sort_by_key(|a| (a.iter().sum::<u64>(), (*a).clone()));
        let assign = failing
            .first()
            .expect("rejected stable class implies a failing point")
            .to_vec();
        let instance = t.instantiate_full(&assign)?;
        match verify(&instance.skeleton) {
            Verdict::Rejected(rejection) => Ok(ParamVerdict::Rejected {
                proof,
                witness: Box::new(ParamWitness {
                    assign,
                    instance,
                    rejection,
                }),
            }),
            Verdict::Certified(_) => unreachable!("enumerated rejection re-verified as certified"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplateBuilder;

    fn fan_in() -> Template {
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let workers = b.role("worker", n);
        let done = b.counter("done");
        let slot = b.var_per("slot", workers);
        b.body(workers).write(slot.me()).inc(done, 1);
        b.thread("combiner").check(done, n).read_all(slot);
        b.build()
    }

    #[test]
    fn fan_in_certified_for_all_n() {
        let v = param_verify(&fan_in()).expect("stabilizes");
        let ParamVerdict::Certified { proof, at_cutoff } = v else {
            panic!("fan_in must certify");
        };
        assert_eq!(proof.cutoff, 2);
        assert!(proof.exceptions.is_empty());
        assert!(proof.uniform_sites && proof.affine_totals && proof.monotone_totals);
        // Grid is 1..=4 in one dimension.
        assert_eq!(proof.instantiations(), 4);
        assert_eq!(at_cutoff.final_values, vec![2]);
    }

    #[test]
    fn off_by_one_level_rejected_with_smallest_witness() {
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let workers = b.role("worker", n);
        let done = b.counter("done");
        let slot = b.var_per("slot", workers);
        b.body(workers).write(slot.me()).inc(done, 1);
        // The classic parameterized off-by-one: waits for N-1 of N arrivals.
        b.thread("combiner").check(done, n - 1u64).read_all(slot);
        let t = b.build();
        let v = param_verify(&t).expect("stabilizes");
        let ParamVerdict::Rejected { proof, witness } = v else {
            panic!("off-by-one fan_in must be rejected");
        };
        assert!(proof.stable_class.race);
        assert!(!proof.stable_class.deadlock);
        // Smallest failing N is 1: with level 0 the only slot is unguarded.
        assert_eq!(witness.assign, vec![1]);
        assert!(!witness.rejection.races.is_empty());
    }

    #[test]
    fn raised_level_deadlocks_for_all_n() {
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let workers = b.role("worker", n);
        let done = b.counter("done");
        b.body(workers).inc(done, 1);
        b.thread("combiner").check(done, n + 1u64);
        let t = b.build();
        let v = param_verify(&t).expect("stabilizes");
        assert!(!v.is_certified());
        let w = v.witness().unwrap();
        assert_eq!(w.assign, vec![1]);
        let dl = w.rejection.deadlock.as_ref().expect("deadlock finding");
        assert_eq!(dl.blocked.len(), 1);
    }

    #[test]
    fn two_parameter_template_gets_grid_cutoff() {
        // N producers, M consumers each waiting for all N.
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let m = b.param("M");
        let producers = b.role("producer", n);
        let consumers = b.role("consumer", m);
        let done = b.counter("done");
        let slot = b.var_per("slot", producers);
        b.body(producers).write(slot.me()).inc(done, 1);
        b.body(consumers).check(done, n).read_all(slot);
        let t = b.build();
        let v = param_verify(&t).expect("stabilizes");
        let ParamVerdict::Certified { proof, .. } = v else {
            panic!("fan_in_fan_out must certify");
        };
        assert_eq!(proof.cutoff, 2);
        assert_eq!(proof.instantiations(), 16); // 4 x 4 grid
        assert!(proof.class_at(&[1, 4]).unwrap().certified);
    }

    #[test]
    fn zero_param_template_is_concrete_verification() {
        let mut b = TemplateBuilder::new();
        let c = b.counter("c");
        b.thread("t").inc(c, 1).check(c, 1);
        let t = b.build();
        let v = param_verify(&t).expect("trivial");
        assert!(v.is_certified());
        assert_eq!(v.proof().cutoff, 0);
    }

    #[test]
    fn render_mentions_cutoff_and_witness() {
        let v = param_verify(&fan_in()).unwrap();
        let s = v.render(&fan_in());
        assert!(s.contains("cutoff 2"), "{s}");
        assert!(s.contains("certified"), "{s}");
    }
}
