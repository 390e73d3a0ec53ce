//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p/100 · n)`, so small samples surface their tail
/// (the p99 of ten samples is the maximum). `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon absorbs float error in `p · n / 100` landing a hair
    // above an exact integer rank (e.g. 98% of 500).
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile, at most `cap`, whose nearest rank leaves at
/// least `beyond` samples above it: `min(cap, 100 · (n − beyond) / n)`.
/// `None` when the sample is too small to leave `beyond` samples above
/// any rank. A reported "p90" is this percentile with `cap = 90` and
/// `beyond = 10`, so a tail figure always rests on ten or more samples.
pub fn tail_percentile(n: usize, cap: f64, beyond: usize) -> Option<f64> {
    if n <= beyond {
        return None;
    }
    Some(cap.min(100.0 * (n - beyond) as f64 / n as f64))
}

/// The tail figure of an ascending-sorted sample: the value at
/// [`tail_percentile`]`(n, cap, 10)`.
pub fn tail(sorted: &[f64], cap: f64) -> Option<f64> {
    nearest_rank(sorted, tail_percentile(sorted.len(), cap, 10)?)
}

/// Nearest-rank percentile `p` of an unsorted sample.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

/// Arithmetic mean; 0 for an empty sample (a layer no operation crossed
/// did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_surfaces_the_tail_of_small_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&ten, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&ten, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&ten, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_its_rank() {
        // 100 samples: p90 has rank 90 and exactly ten samples above it.
        assert_eq!(tail_percentile(100, 90.0, 10), Some(90.0));
        // 50 samples: p90 would leave only five beyond, so p80 is used.
        assert_eq!(tail_percentile(50, 90.0, 10), Some(80.0));
        // 1000 samples support p99 with ten beyond; 500 only p98.
        assert_eq!(tail_percentile(1000, 99.0, 10), Some(99.0));
        assert_eq!(tail_percentile(500, 99.0, 10), Some(98.0));
        assert_eq!(tail_percentile(10, 90.0, 10), None);
        for n in 11..400 {
            let p = tail_percentile(n, 90.0, 10).unwrap();
            let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
            assert!(n - rank >= 10, "n={n} p={p} rank={rank}");
        }
    }

    #[test]
    fn tail_reads_the_value_at_that_rank() {
        let sample: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&sample, 90.0), Some(40.0));
        assert_eq!(tail(&sample[..10], 90.0), None);
    }

    #[test]
    fn quantile_and_mean() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 25.0), Some(1.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
