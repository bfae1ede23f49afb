//! Synchronization skeletons of the protocols implemented in `mc-algos` and
//! `mc-patterns`, built with the declarative [`SkeletonBuilder`] API — plus
//! their parameterized forms as [`Template`]s.
//!
//! Each model mirrors the counter discipline of the corresponding
//! implementation (same counters, same levels, same guarded accesses) so the
//! static verifier's certificate transfers to the real code: the
//! implementation's synchronization-relevant behaviour *is* the skeleton.
//!
//! Protocols whose replica structure is regular (every worker/reader/stage
//! runs the same body with at most neighbour-relative indexing) are modeled
//! **once, symbolically**, as templates in [`template_corpus`]; the concrete
//! model functions for those protocols are literally
//! [`Template::instantiate`] at the requested size, so the parameterized
//! proof and the concrete corpus can never drift apart. Protocols with
//! irregular structure (`floyd_warshall`'s row ownership, `heat`'s boundary
//! pseudo-threads, `odd_even_sort`'s `2i + p%2` slot arithmetic) stay
//! concrete-only: their indexing is not expressible with linear expressions
//! and neighbour offsets, which is exactly the template grammar's documented
//! limit.
//!
//! [`buggy_corpus`] carries seeded-buggy templates (the canonical
//! parameterized off-by-one `check(done >= N-1)` among them) used to
//! validate that parameterized rejections come with concrete witnesses at
//! the smallest failing size.

use crate::ir::{Skeleton, SkeletonBuilder};
use crate::template::{Guard, Template, TemplateBuilder};

// ---------------------------------------------------------------------------
// Parameterized templates
// ---------------------------------------------------------------------------

/// Parameterized fan-in/fan-out: `N` producers each write a private slot and
/// arrive on `done`; `M` consumers each wait for all `N` arrivals and read
/// every slot. Two independent parameters — the cutoff engine enumerates the
/// full `(N, M)` grid.
pub fn fan_in_fan_out_template() -> Template {
    let mut b = TemplateBuilder::new();
    let n = b.param("N");
    let m = b.param("M");
    let producers = b.role("producer", n);
    let consumers = b.role("consumer", m);
    let done = b.counter("done");
    let slot = b.var_per("slot", producers);
    b.body(producers).write(slot.me()).inc(done, 1);
    b.body(consumers).check(done, n).read_all(slot);
    b.build()
}

/// Section 5's sequenced accumulation at symbolic scale: `N` workers each
/// write their own slot and increment `done`; the combiner checks
/// `done >= N` before reading all slots.
pub fn sequenced_accumulate_template() -> Template {
    let mut b = TemplateBuilder::new();
    let n = b.param("N");
    let workers = b.role("worker", n);
    let done = b.counter("done");
    let slot = b.var_per("slot", workers);
    b.body(workers).write(slot.me()).inc(done, 1);
    b.thread("combiner").check(done, n).read_all(slot);
    b.build()
}

/// The single-writer broadcast of `mc-patterns` with a symbolic reader
/// count: the writer publishes slot `i` then increments `count`; each of
/// `K` readers checks `count >= i+1` before reading slot `i`.
pub fn broadcast_template(items: usize) -> Template {
    let mut b = TemplateBuilder::new();
    let k = b.param("K");
    let count = b.counter("count");
    let slot = b.vars("slot", items);
    {
        let mut tb = b.thread("writer");
        for i in 0..items {
            tb = tb.write(slot.at(i)).inc(count, 1);
        }
    }
    let readers = b.role("reader", k);
    {
        let mut tb = b.body(readers);
        for i in 0..items {
            tb = tb.check(count, i as u64 + 1).read(slot.at(i));
        }
    }
    b.build()
}

/// The multi-stage pipeline of `mc-patterns` with a symbolic stage count:
/// stage `s` reads item `i` from the previous stage's buffer once
/// `stage[s-1] >= i+1`, writes its own buffer slot, and increments its
/// stage counter. Stage 0 (guard [`Guard::First`]) reads a pre-written
/// input instead; the `prev()` selectors drop out of range there, exactly
/// like the concrete model's `if s > 0` guard.
pub fn pipeline_template(items: usize) -> Template {
    let mut b = TemplateBuilder::new();
    let s = b.param("S");
    let stages = b.role("stage", s);
    let done = b.counter_per("stage", stages);
    let input = b.vars("input", items);
    let buf = b.var_per_wide("buf", stages, items);
    let mut tb = b.body(stages);
    for i in 0..items {
        tb = tb
            .when(Guard::First)
            .read(input.at(i))
            .check(done.prev(), i as u64 + 1)
            .read(buf.prev(i))
            .write(buf.me(i))
            .inc(done.me(), 1);
    }
    let _ = tb;
    b.build()
}

/// The ragged-barrier stencil of `mc-patterns` with a symbolic participant
/// count: each participant arrives twice per step (read-done, write-done)
/// and waits only on its neighbours; `prev()`/`next()` drop out of range at
/// the edges, so participants 0 and `N-1` simply have fewer neighbours.
pub fn ragged_barrier_template(steps: usize) -> Template {
    let mut b = TemplateBuilder::new();
    let n = b.param("N");
    let parts = b.role("part", n);
    let c = b.counter_per("c", parts);
    let cell = b.var_per("cell", parts);
    let mut tb = b.body(parts);
    for t in 1..=steps as u64 {
        tb = tb
            .check(c.prev(), 2 * t - 2)
            .read(cell.prev())
            .check(c.next(), 2 * t - 2)
            .read(cell.next())
            .inc(c.me(), 1)
            .check(c.prev(), 2 * t - 1)
            .check(c.next(), 2 * t - 1)
            .write(cell.me())
            .inc(c.me(), 1);
    }
    let _ = tb;
    b.build()
}

/// Supervision restart rounds from `mc-sthreads` at symbolic scale: each
/// round the supervisor releases all `N` workers (`inc(go, 1)`) and waits
/// for every worker to have completed the round (`check(done >= N*(r+1))`,
/// another parameter-coefficient level) before starting the next; after the
/// final round it inspects every worker's state.
pub fn supervisor_rounds_template(rounds: usize) -> Template {
    let mut b = TemplateBuilder::new();
    let n = b.param("N");
    let workers = b.role("worker", n);
    let go = b.counter("go");
    let done = b.counter("done");
    let cell = b.var_per("cell", workers);
    let mut tb = b.body(workers);
    for r in 0..rounds as u64 {
        tb = tb.check(go, r + 1).write(cell.me()).inc(done, 1);
    }
    let _ = tb;
    let mut sup = b.thread("supervisor");
    for r in 0..rounds as u64 {
        sup = sup.inc(go, 1).check(done, n * (r + 1));
    }
    sup = sup.read_all(cell);
    let _ = sup;
    b.build()
}

/// The banded wavefront of `mc-algos` with a symbolic band count: band `t`
/// processes blocks left to right, waiting for band `t-1` to have published
/// `k+1` blocks before reading block `k`'s boundary row.
pub fn wavefront_template(blocks: usize) -> Template {
    let mut b = TemplateBuilder::new();
    let n = b.param("N");
    let bands = b.role("band", n);
    let progress = b.counter_per("progress", bands);
    let boundary = b.var_per_wide("boundary", bands, blocks);
    let mut tb = b.body(bands);
    for k in 0..blocks {
        tb = tb
            .check(progress.prev(), k as u64 + 1)
            .read(boundary.prev(k))
            .write(boundary.me(k))
            .inc(progress.me(), 1);
    }
    let _ = tb;
    b.build()
}

/// All parameterized models, with names — the corpus [`crate::param_verify`]
/// proves for every replica count, used by the parameterized gate tests and
/// the E12 experiment.
pub fn template_corpus() -> Vec<(&'static str, Template)> {
    vec![
        ("fan_in_fan_out", fan_in_fan_out_template()),
        ("sequenced_accumulate", sequenced_accumulate_template()),
        ("broadcast", broadcast_template(4)),
        ("pipeline", pipeline_template(4)),
        ("ragged_barrier", ragged_barrier_template(3)),
        ("supervisor_rounds", supervisor_rounds_template(3)),
        ("wavefront", wavefront_template(4)),
    ]
}

/// Seeded-buggy templates: each injects a classic parameterized-protocol
/// bug, and [`crate::param_verify`] must reject it with a concrete witness
/// at the smallest failing size.
pub fn buggy_corpus() -> Vec<(&'static str, Template)> {
    vec![
        ("fan_in_off_by_one", fan_in_off_by_one_template()),
        (
            "broadcast_unwaited_reader",
            broadcast_unwaited_reader_template(4),
        ),
        (
            "ragged_barrier_over_sync",
            ragged_barrier_over_sync_template(3),
        ),
    ]
}

/// The canonical parameterized off-by-one: the combiner checks
/// `done >= N - 1`, so one worker's slot may still be in flight when the
/// combiner reads it — a race at every `N >= 1`.
pub fn fan_in_off_by_one_template() -> Template {
    let mut b = TemplateBuilder::new();
    let n = b.param("N");
    let workers = b.role("worker", n);
    let done = b.counter("done");
    let slot = b.var_per("slot", workers);
    b.body(workers).write(slot.me()).inc(done, 1);
    b.thread("combiner").check(done, n - 1).read_all(slot);
    b.build()
}

/// Broadcast where readers check `count >= i` instead of `i + 1`: slot `i`
/// may be read while the writer is still writing it.
pub fn broadcast_unwaited_reader_template(items: usize) -> Template {
    let mut b = TemplateBuilder::new();
    let k = b.param("K");
    let count = b.counter("count");
    let slot = b.vars("slot", items);
    {
        let mut tb = b.thread("writer");
        for i in 0..items {
            tb = tb.write(slot.at(i)).inc(count, 1);
        }
    }
    let readers = b.role("reader", k);
    {
        let mut tb = b.body(readers);
        for i in 0..items {
            tb = tb.check(count, i as u64).read(slot.at(i));
        }
    }
    b.build()
}

/// Ragged barrier whose write phase waits for the neighbours' *write*
/// arrival (`2t`) instead of their read arrival (`2t - 1`): adjacent
/// participants wait on each other symmetrically and deadlock at every
/// `N >= 2` (at `N = 1` there are no neighbours and the protocol is
/// trivially correct — a below-cutoff exception the enumeration records).
pub fn ragged_barrier_over_sync_template(steps: usize) -> Template {
    let mut b = TemplateBuilder::new();
    let n = b.param("N");
    let parts = b.role("part", n);
    let c = b.counter_per("c", parts);
    let cell = b.var_per("cell", parts);
    let mut tb = b.body(parts);
    for t in 1..=steps as u64 {
        tb = tb
            .check(c.prev(), 2 * t - 2)
            .read(cell.prev())
            .check(c.next(), 2 * t - 2)
            .read(cell.next())
            .inc(c.me(), 1)
            .check(c.prev(), 2 * t)
            .check(c.next(), 2 * t)
            .write(cell.me())
            .inc(c.me(), 1);
    }
    let _ = tb;
    b.build()
}

// ---------------------------------------------------------------------------
// Concrete models
// ---------------------------------------------------------------------------

/// Section 5's sequenced accumulation: `n` workers each write their own slot,
/// increment `done`, and the combiner checks `done >= n` before reading all
/// slots. Instantiated from [`sequenced_accumulate_template`].
pub fn sequenced_accumulate(workers: usize) -> Skeleton {
    sequenced_accumulate_template()
        .instantiate(&[workers as u64])
        .expect("concrete size instantiates")
}

/// The counter-synchronized Floyd–Warshall of `mc-algos`: one counter `kc`
/// gates iteration `k`; the owner of row `k+1` publishes `krow[k+1]` during
/// iteration `k` and then increments. `krow[0]` is written before the
/// threads start, so it has no modeled writer.
pub fn floyd_warshall(threads: usize, n: usize) -> Skeleton {
    assert!(threads >= 1 && n >= 1);
    let mut b = SkeletonBuilder::new();
    let kc = b.counter("k_count");
    let krow: Vec<_> = (0..n).map(|k| b.var(format!("krow[{k}]"))).collect();
    // Row r is owned by the thread whose contiguous chunk contains it.
    let owner = |r: usize| r * threads / n;
    for t in 0..threads {
        let mut tb = b.thread(format!("fw{t}"));
        for k in 0..n {
            tb = tb.check(kc, k as u64).read(krow[k]);
            if k + 1 < n && owner(k + 1) == t {
                tb = tb.write(krow[k + 1]).inc(kc, 1);
            }
        }
        let _ = tb;
    }
    b.build()
}

/// The 1-D heat-diffusion ragged protocol of `mc-algos`: per-thread counters
/// where `c[i] >= 2t-1` means "finished reading for step t" and
/// `c[i] >= 2t` means "finished writing step t". Boundary pseudo-threads
/// arrive for all steps upfront.
pub fn heat(interior: usize, steps: usize) -> Skeleton {
    assert!(interior >= 1);
    let mut b = SkeletonBuilder::new();
    // Counters 0 and interior+1 are the boundary pseudo-participants.
    let c: Vec<_> = (0..interior + 2)
        .map(|i| b.counter(format!("c[{i}]")))
        .collect();
    let cell: Vec<_> = (0..interior + 2)
        .map(|i| b.var(format!("cell[{i}]")))
        .collect();
    b.thread("left-boundary").inc(c[0], 2 * steps as u64);
    for i in 1..=interior {
        let mut tb = b.thread(format!("heat{i}"));
        for t in 1..=steps as u64 {
            // Read phase: neighbours must have finished writing step t-1.
            tb = tb
                .check(c[i - 1], 2 * t - 2)
                .read(cell[i - 1])
                .check(c[i + 1], 2 * t - 2)
                .read(cell[i + 1])
                .inc(c[i], 1); // arrived: finished reading for step t
                               // Write phase: neighbours must have finished reading for step t.
            tb = tb
                .check(c[i - 1], 2 * t - 1)
                .check(c[i + 1], 2 * t - 1)
                .write(cell[i])
                .inc(c[i], 1); // arrived: finished writing step t
        }
        let _ = tb;
    }
    b.thread("right-boundary")
        .inc(c[interior + 1], 2 * steps as u64);
    b.build()
}

/// The banded wavefront of `mc-algos`: band `t` processes blocks left to
/// right, waiting for band `t-1` to have published `k+1` blocks before
/// reading block `k`'s boundary row. Instantiated from
/// [`wavefront_template`].
pub fn wavefront(bands: usize, blocks: usize) -> Skeleton {
    assert!(bands >= 1);
    wavefront_template(blocks)
        .instantiate(&[bands as u64])
        .expect("concrete size instantiates")
}

/// The odd–even transposition sort of `mc-algos`: thread `i` owns slots
/// `2i..2i+1`; in phase `p` it compare-exchanges pair `(2i + p%2, 2i + p%2 + 1)`
/// after waiting for both neighbours to have completed phase `p` count.
pub fn odd_even_sort(cells: usize, phases: usize) -> Skeleton {
    assert!(cells >= 2);
    let threads = cells / 2 + 1;
    let mut b = SkeletonBuilder::new();
    let c: Vec<_> = (0..threads).map(|i| b.counter(format!("c[{i}]"))).collect();
    let cell: Vec<_> = (0..cells).map(|j| b.var(format!("cell[{j}]"))).collect();
    for i in 0..threads {
        let mut tb = b.thread(format!("sort{i}"));
        for p in 0..phases as u64 {
            if i > 0 {
                tb = tb.check(c[i - 1], p);
            }
            if i + 1 < threads {
                tb = tb.check(c[i + 1], p);
            }
            let j = 2 * i + (p as usize % 2);
            if j + 1 < cells {
                // Compare-exchange: read then write both slots.
                tb = tb
                    .read(cell[j])
                    .read(cell[j + 1])
                    .write(cell[j])
                    .write(cell[j + 1]);
            }
            tb = tb.inc(c[i], 1);
        }
        let _ = tb;
    }
    b.build()
}

/// The single-writer broadcast of `mc-patterns`: the writer publishes slot
/// `i` then increments `count`; each reader checks `count >= i+1` before
/// reading slot `i`. Instantiated from [`broadcast_template`].
pub fn broadcast(readers: usize, items: usize) -> Skeleton {
    broadcast_template(items)
        .instantiate(&[readers as u64])
        .expect("concrete size instantiates")
}

/// The multi-stage pipeline of `mc-patterns`: stage `s` reads item `i` from
/// the previous stage's buffer once `stage[s-1] >= i+1`, writes its own
/// buffer slot, and increments its stage counter. Stage 0 reads a
/// pre-written input (no modeled writer). Instantiated from
/// [`pipeline_template`].
pub fn pipeline(stages: usize, items: usize) -> Skeleton {
    assert!(stages >= 1);
    pipeline_template(items)
        .instantiate(&[stages as u64])
        .expect("concrete size instantiates")
}

/// A pure-synchronization ragged-barrier stencil from `mc-patterns`: each
/// participant arrives twice per step (read-done, write-done) and waits only
/// on its neighbours — the `RaggedBarrier` discipline with the data accesses
/// of a 1-D stencil. Instantiated from [`ragged_barrier_template`].
pub fn ragged_stencil(participants: usize, steps: usize) -> Skeleton {
    assert!(participants >= 1);
    ragged_barrier_template(steps)
        .instantiate(&[participants as u64])
        .expect("concrete size instantiates")
}

/// All models at small exercise sizes, with names — the corpus used by the
/// cross-validation tests and the E10 experiment.
pub fn corpus() -> Vec<(&'static str, Skeleton)> {
    vec![
        ("sequenced_accumulate", sequenced_accumulate(4)),
        ("floyd_warshall", floyd_warshall(3, 6)),
        ("heat", heat(3, 3)),
        ("wavefront", wavefront(3, 4)),
        ("odd_even_sort", odd_even_sort(6, 6)),
        ("broadcast", broadcast(3, 4)),
        ("pipeline", pipeline(3, 4)),
        ("ragged_stencil", ragged_stencil(3, 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::param_verify;
    use crate::verdict::verify;

    #[test]
    fn every_model_is_certified() {
        for (name, sk) in corpus() {
            let v = verify(&sk);
            assert!(
                v.is_certified(),
                "{name} should certify but was rejected:\n{}",
                v.render(&sk)
            );
        }
    }

    #[test]
    fn forward_dependency_models_are_sequentially_equivalent() {
        // Producer-before-consumer protocols satisfy the Section 6
        // sequential precondition; cyclic neighbour protocols are
        // deterministic but genuinely concurrent.
        let expect = [
            ("sequenced_accumulate", true),
            ("floyd_warshall", false),
            ("heat", false),
            ("wavefront", true),
            ("odd_even_sort", false),
            ("broadcast", true),
            ("pipeline", true),
            ("ragged_stencil", false),
        ];
        for (name, sk) in corpus() {
            let v = verify(&sk);
            let cert = v.certificate().expect("corpus certifies");
            let &(_, want) = expect.iter().find(|(n, _)| *n == name).unwrap();
            assert_eq!(
                cert.sequentially_equivalent(),
                want,
                "{name}: unexpected sequential-equivalence verdict"
            );
        }
    }

    #[test]
    fn template_corpus_certifies_for_all_sizes() {
        for (name, t) in template_corpus() {
            let v = param_verify(&t).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(v.is_certified(), "{name} should certify:\n{}", v.render(&t));
        }
    }

    #[test]
    fn buggy_corpus_rejected_with_smallest_witness() {
        for (name, t) in buggy_corpus() {
            let v = param_verify(&t).unwrap_or_else(|e| panic!("{name}: {e}"));
            let w = v
                .witness()
                .unwrap_or_else(|| panic!("{name} should be rejected with a witness"));
            assert!(
                !w.rejection.races.is_empty() || w.rejection.deadlock.is_some(),
                "{name}: witness must carry a concrete finding"
            );
        }
    }

    #[test]
    fn off_by_one_witness_is_at_the_smallest_size() {
        let t = fan_in_off_by_one_template();
        let v = param_verify(&t).unwrap();
        let w = v.witness().expect("off-by-one is rejected");
        // Already racy with a single worker: `check(done >= 0)` guards
        // nothing.
        assert_eq!(w.assign, vec![1]);
        assert!(!w.rejection.races.is_empty());
    }
}
