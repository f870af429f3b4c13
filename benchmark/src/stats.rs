//! Order statistics and the regression-bound comparator.

/// Samples that must lie beyond a reported percentile: with fewer the value
/// is one or two outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile: the sample of rank `ceil(p·n)` (1-based) in
/// sorted order. Refuses — rather than quietly reporting a maximum — when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie above that rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside [0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {} beyond it, need {MIN_SAMPLES_BEYOND}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Plain median (mean of the two middle samples when `n` is even). For the
/// few set-up constructions, where [`percentile`]'s tail rule cannot apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The distance between two runs' values of one metric, as a share of the
/// first. `repeat` holds it against the metric's bound: two runs of the same
/// code further apart than the bound would make the bound meaningless.
pub fn gap(first: f64, second: f64) -> f64 {
    (second - first).abs() / first.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_stated_order_statistic() {
        // 1..=100 shuffled by a fixed stride: rank ceil(0.9·100) = 90.
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        assert_eq!(percentile(&samples, 0.90), Ok(90.0));
        assert_eq!(percentile(&samples, 0.50), Ok(50.0));
        // 101 samples: ceil(0.9·101) = 91.
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.90), Ok(91.0));
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // rank 90 of 99 leaves nine beyond.
        assert!(percentile(&samples, 0.90).is_err());
        // One more sample and the same percentile is supported.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&samples, 0.90).is_ok());
        assert!(percentile(&samples, 0.99).is_err());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn comparator_flags_eleven_percent_and_passes_nine() {
        let bound = 0.10;
        assert!(gap(100.0, 111.0) > bound, "+11 % is above a 10 % bound");
        assert!(gap(100.0, 109.0) <= bound, "+9 % is within it");
        // The gap is symmetric in direction: a run 11 % lower disagrees too.
        assert!(gap(100.0, 89.0) > bound);
        assert!(gap(100.0, 91.0) <= bound);
        assert_eq!(gap(250.0, 250.0), 0.0);
    }
}
