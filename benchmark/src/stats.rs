//! Order statistics over the samples of one run.

/// The `q`-quantile (`0.0..=1.0`) of `values` with linear interpolation
/// between the two nearest ranks — the same convention as numpy's default.
/// `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// `(max − min) / median`: how far apart the blocks of one run are, as a
/// share of their median. `0` for fewer than two values.
pub fn relative_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// The highest percentile a sample of this size supports is the one with
/// at least ten samples beyond it; p90 needs 110 samples.
pub const P90_MIN_SAMPLES: usize = 110;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_fixed_vectors() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // Even count: the median interpolates between the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        // p90 of 0..=10 sits on rank 9.
        let ramp: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&ramp, 0.9), 9.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn mad_on_fixed_vectors() {
        // median 3, deviations {2,1,0,1,2} → MAD 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        // One wild sample does not move the MAD.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 500.0]), 1.0);
        assert_eq!(mad(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn block_median_and_spread() {
        // Five block rates, one disturbed block: the median ignores it, the
        // spread reports it.
        let rates = [27.0, 28.0, 14.0, 28.5, 27.5];
        assert_eq!(median(&rates), 27.5);
        assert!((relative_spread(&rates) - 14.5 / 27.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0]), 0.0);
    }
}
