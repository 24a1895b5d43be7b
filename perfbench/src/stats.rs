//! Order statistics for latency samples.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that one or two outliers decide its value.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Fewest samples for which the `pct`-th percentile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn samples_needed(pct: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND)
        .expect("some count suffices")
}

/// Nearest-rank `pct`-th percentile of ascending, non-empty `sorted`,
/// however few samples lie beyond it.
pub fn nearest_rank(sorted: &[f64], pct: u32) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    sorted[rank(sorted.len(), pct) - 1]
}

/// [`nearest_rank`], or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), pct) < MIN_BEYOND {
        return None;
    }
    Some(nearest_rank(sorted, pct))
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: rank 90 leaves 9 beyond p90.
        assert_eq!(percentile(&sorted, 90), None);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 90), Some(90.0));
        assert_eq!(percentile(&sorted, 50), Some(50.0));
        assert_eq!(percentile(&sorted, 99), None);
    }

    #[test]
    fn samples_needed_matches_the_rule() {
        assert_eq!(samples_needed(50), 20);
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(99), 1000);
        for pct in [50, 90, 99] {
            let n = samples_needed(pct);
            assert!(beyond(n, pct) >= MIN_BEYOND);
            assert!(beyond(n - 1, pct) < MIN_BEYOND);
        }
    }

    #[test]
    fn percentile_is_a_sample_not_an_interpolation() {
        let mut sorted: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.5).collect();
        sorted.sort_by(f64::total_cmp);
        let p99 = percentile(&sorted, 99).expect("1000 samples back p99");
        assert!(sorted.contains(&p99));
        assert_eq!(sorted.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
