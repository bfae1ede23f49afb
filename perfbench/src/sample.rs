//! Latency summaries: percentiles and the tail rule.
//!
//! The tail is the highest percentile of [`LADDER`] that still has at least
//! [`MIN_BEYOND`] samples above its rank, so a tail figure always rests on
//! enough samples to repeat. Ranks are nearest-rank: the `p`-th percentile
//! of `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`.

/// Percentiles the tail may report, lowest first. Capped at p90: on a
/// small shared host, higher ranks are set by preemption of the
/// benchmark's threads and by the shared disk's fsync jitter, not by the
/// code under test, and do not repeat from run to run.
pub const LADDER: [f64; 1] = [90.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples (`n > 0`).
fn rank(p: f64, n: usize) -> usize {
    // Integer arithmetic in tenths of a percent: `99.9 / 100.0 * n` in
    // floating point can land a hair above an integer and round up a rank.
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// A tail percentile chosen by the rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// The tail of `samples` (sorted in place): the highest percentile of
/// `ladder` with at least [`MIN_BEYOND`] samples beyond it, or `None` when
/// even the lowest has fewer.
pub fn tail(samples: &mut [f64], ladder: &[f64]) -> Option<Tail> {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    ladder.iter().rev().find_map(|&p| {
        let r = rank(p, n.max(1));
        (n >= r + MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: samples[r - 1],
            beyond: n - r,
        })
    })
}

/// Most chunks [`chunked_tail`] splits a run's samples into.
pub const TAIL_CHUNKS: usize = 10;

/// A run's tail: the median of the tails of consecutive chunks of its
/// samples, so one host hiccup moves one chunk's tail, not the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedTail {
    /// Median over the chunks of each chunk's tail value.
    pub value: f64,
    /// Number of chunks.
    pub chunks: usize,
    /// Lowest and highest percentile the chunks' tails used.
    pub percentiles: (f64, f64),
    /// Fewest samples beyond the tail in any chunk.
    pub beyond: usize,
}

/// Splits `samples` (in the order taken) into as many chunks as possible,
/// up to [`TAIL_CHUNKS`], each large enough to have a tail, and returns the
/// median of the chunks' tails. `None` with too few samples for any tail.
pub fn chunked_tail(samples: &[f64], ladder: &[f64]) -> Option<ChunkedTail> {
    // The smallest chunk in which p90 has MIN_BEYOND samples beyond it.
    let min_chunk = MIN_BEYOND * 10;
    let k = (samples.len() / min_chunk).clamp(1, TAIL_CHUNKS);
    let size = samples.len() / k;
    let tails: Vec<Tail> = (0..k)
        .map(|c| {
            let end = if c + 1 == k {
                samples.len()
            } else {
                (c + 1) * size
            };
            tail(&mut samples[c * size..end].to_vec(), ladder)
        })
        .collect::<Option<_>>()?;
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let pct = |f: fn(f64, f64) -> f64| {
        tails
            .iter()
            .map(|t| t.percentile)
            .fold(tails[0].percentile, f)
    };
    Some(ChunkedTail {
        value: median(&values),
        chunks: k,
        percentiles: (pct(f64::min), pct(f64::max)),
        beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
    })
}

/// The nearest-rank `p`-th percentile of `samples` (sorted in place), or 0
/// when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[rank(p, samples.len()) - 1]
}

/// The nearest-rank median of `values`, or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 50.0)
}

/// The `q`-quantile of a log-bucketed histogram snapshot, interpolated
/// linearly inside the bucket that holds it (bucket `i` spans
/// `[2^(i-1), 2^i)`), so the estimate moves with the data instead of
/// snapping to bucket edges. 0 for an empty histogram.
pub fn hist_quantile(snap: &mc_metrics::HistogramSnapshot, q: f64) -> f64 {
    let n = snap.count();
    if n == 0 {
        return 0.0;
    }
    let target = (q * n as f64).clamp(1.0, n as f64);
    let mut seen = 0.0;
    for (i, &c) in snap.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if seen + c >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u128 << (i - 1)) as f64;
            let hi = ((1u128 << i) as f64).min(snap.max as f64 + 1.0).max(lo);
            return lo + (hi - lo) * (target - seen) / c;
        }
        seen += c;
    }
    snap.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_STEP: [f64; 2] = [90.0, 99.0];

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_ladder_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond.
        let t = tail(&mut ramp(1000), &TWO_STEP).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));

        // 999 samples: p99 has 9 beyond, so the tail drops to p90.
        let t = tail(&mut ramp(999), &TWO_STEP).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 99));

        // Many samples stop at the top of the ladder.
        let t = tail(&mut ramp(100_000), &TWO_STEP).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 99_000.0, 1000));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&mut ramp(99), &LADDER), None);
        assert_eq!(tail(&mut [], &LADDER), None);
    }

    #[test]
    fn tail_sorts_unsorted_input() {
        let mut v: Vec<f64> = ramp(200).into_iter().rev().collect();
        assert_eq!(tail(&mut v, &LADDER).unwrap().value, 180.0);
    }

    #[test]
    fn chunked_tail_is_the_median_of_chunk_tails() {
        // 1000 samples: 10 chunks of 100, each with its p90 at 90 + 100c.
        let t = chunked_tail(&ramp(1000), &LADDER).unwrap();
        assert_eq!((t.chunks, t.percentiles, t.beyond), (10, (90.0, 90.0), 10));
        assert_eq!(t.value, 490.0);

        // One hiccup of huge samples moves only its own chunk's tail.
        let mut v = vec![1.0; 1000];
        v[..15].fill(1e9);
        assert_eq!(chunked_tail(&v[..100], &LADDER).unwrap().value, 1e9);
        assert_eq!(chunked_tail(&v, &LADDER).unwrap().value, 1.0);

        // Too few samples for ten chunks use fewer; too few for one, none.
        assert_eq!(chunked_tail(&ramp(250), &LADDER).unwrap().chunks, 2);
        assert!(chunked_tail(&ramp(99), &LADDER).is_none());
    }

    #[test]
    fn median_and_percentile_of_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&mut ramp(100), 99.0), 99.0);
    }

    #[test]
    fn hist_quantile_interpolates_within_a_bucket() {
        let h = mc_metrics::Histogram::new();
        for v in [64u64, 70, 100, 127] {
            h.record(v); // all in bucket [64, 128)
        }
        let snap = h.snapshot();
        let p50 = hist_quantile(&snap, 0.5);
        assert!((64.0..128.0).contains(&p50), "{p50}");
        assert!(hist_quantile(&snap, 0.25) < p50);
        assert!(hist_quantile(&snap, 1.0) <= 128.0);
        assert_eq!(
            hist_quantile(&mc_metrics::Histogram::new().snapshot(), 0.5),
            0.0
        );
    }
}
