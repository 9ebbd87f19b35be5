//! Order statistics used by the ledger: percentiles inside a pass, the
//! median across passes, and the pass-to-pass spread.

/// The `p`-th percentile (0 ≤ p ≤ 100) of `xs` by the nearest-rank rule:
/// the smallest sample with at least `p` % of the samples at or below it.
/// Nearest rank never interpolates, so a reported latency is always one
/// that was actually measured. Panics on an empty slice (a pass with no
/// ops is a bug in the workload definition).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the usual midpoint rule for even counts — used across
/// passes, where the count is small and interpolating is the convention.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over passes of a per-pass statistic: interference on a shared
/// machine hits whole passes and only ever slows them, so the middle pass
/// is far steadier than a statistic over the pooled samples.
pub fn median_of_passes<P>(passes: &[P], stat: impl Fn(&P) -> f64) -> f64 {
    median(&passes.iter().map(stat).collect::<Vec<_>>())
}

/// `(max − min) / median` — how far apart the passes of one run landed.
pub fn spread_frac(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_vectors() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Order of the input does not matter, and ten samples sit beyond
        // p90 of a hundred.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > 90.0).count(), 10);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_passes_ignores_one_slow_pass() {
        let fast = vec![1.0, 1.0, 2.0, 1.0, 1.0];
        let slow: Vec<f64> = fast.iter().map(|x| x * 10.0).collect();
        let passes = vec![fast.clone(), slow, fast.clone(), fast.clone(), fast];
        assert_eq!(median_of_passes(&passes, |p| percentile(p, 50.0)), 1.0);
        assert_eq!(median_of_passes(&passes, |p| percentile(p, 90.0)), 2.0);
        // Pooling the same samples would have reported the slow pass.
        let pooled: Vec<f64> = passes.concat();
        assert_eq!(percentile(&pooled, 90.0), 10.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_frac(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(spread_frac(&[5.0, 5.0]), 0.0);
    }
}
