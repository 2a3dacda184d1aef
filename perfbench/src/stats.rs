//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`.
//! The samples *beyond* it are the `n - rank` strictly later ranks.

/// Nearest-rank percentile of `samples` (any order). `None` if empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p / 100 * n` (99.9% of 10000 is
    // 9990.000000000002) from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Total samples the tail was taken over.
    pub samples: usize,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_BEYOND`] samples beyond it; `None` when even the median has
/// fewer (under 20 samples), so no tail can be stated honestly.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let percentile = TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_BEYOND)?;
    Some(Tail {
        percentile,
        value: self::percentile(samples, percentile)?,
        samples: n,
        beyond: n - rank(n, percentile),
    })
}

/// [`tail`] when there are enough samples for one, and otherwise the
/// largest sample (percentile 100, none beyond): a run of a few long
/// operations still reports the worst one it saw, labelled as such.
pub fn tail_or_max(samples: &[f64]) -> Option<Tail> {
    tail(samples).or_else(|| {
        let value = samples.iter().copied().max_by(f64::total_cmp)?;
        Some(Tail {
            percentile: 100.0,
            value,
            samples: samples.len(),
            beyond: 0,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order: the helpers must not assume sorted input.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 99.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median's rank is 10, only 9 beyond — no tail.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 100 samples: p90 (rank 90) has 10 beyond; p95 only 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        // 1000 samples: p99 (rank 990) has exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 10000 samples: p99.9 (rank 9990) has 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_or_max_falls_back_to_the_largest_sample() {
        let t = tail_or_max(&ramp(7)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (100.0, 7.0, 7, 0)
        );
        assert_eq!(tail_or_max(&ramp(20)), tail(&ramp(20)));
        assert_eq!(tail_or_max(&[]), None);
    }

    #[test]
    fn tail_beyond_count_is_exact_between_ladder_steps() {
        // 30 samples: p75 is rank 23 (7 beyond) — too few; p60 is rank 18
        // with 12 beyond.
        let t = tail(&ramp(30)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (60.0, 18.0, 12));
    }
}
