//! Order statistics for timing samples.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it, so a tail figure
//! never rests on one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Value at percentile `q` (0–100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `q`% of samples at or below
/// it. `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile in `1..=wanted` that leaves at least
/// [`MIN_TAIL`] samples above its nearest-rank position in `n`
/// samples, or `None` when even the median does not.
#[must_use]
pub fn tail_rank(n: usize, wanted: u32) -> Option<u32> {
    (50..=wanted).rev().find(|&q| {
        let rank = ((f64::from(q) / 100.0) * n as f64).ceil() as usize;
        n >= rank + MIN_TAIL
    })
}

/// Median of unsorted samples (mean of the middle pair for even
/// counts). `None` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A sorted copy of `samples` (NaN-free input assumed).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule run-to-run spread is
/// judged by. Needs at least two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: clamping `j` makes Python extrapolate at the ends.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Latency summary of one class of samples: the nearest-rank median,
/// the tail percentile actually reported, and its value.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile rank reported as the tail (≤ the one asked for).
    pub tail_rank: u32,
    /// Value at `tail_rank`.
    pub tail: f64,
}

/// Summarize `samples`, reporting percentile `wanted` or, when fewer
/// than [`MIN_TAIL`] samples would lie beyond it, the highest
/// percentile that has them (the median when none does).
#[must_use]
pub fn summarize(samples: &[f64], wanted: u32) -> Option<Summary> {
    let s = sorted(samples);
    let rank = tail_rank(s.len(), wanted).unwrap_or(50);
    Some(Summary {
        n: s.len(),
        p50: percentile(&s, 50.0)?,
        tail_rank: rank,
        tail: percentile(&s, f64::from(rank))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(tail_rank(1000, 99), Some(99));
        // 999 samples leave only 9 beyond rank 990.
        assert_eq!(tail_rank(999, 99), Some(98));
        // 100 samples: rank 90 leaves 10 beyond, rank 91 leaves 9.
        assert_eq!(tail_rank(100, 99), Some(90));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail_rank(20, 99), Some(50));
        assert_eq!(tail_rank(19, 99), None);
        assert_eq!(tail_rank(0, 99), None);
    }

    #[test]
    fn summary_reports_the_rank_it_used() {
        let s = summarize(&ramp(100), 99).unwrap();
        assert_eq!(s.tail_rank, 90);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.p50, 50.0);
        // Too few samples for any tail: the tail is the median itself.
        let few = summarize(&ramp(6), 99).unwrap();
        assert_eq!((few.p50, few.tail_rank, few.tail), (3.0, 50, 3.0));
        assert!(summarize(&[], 99).is_none());
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&ramp(3)), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
