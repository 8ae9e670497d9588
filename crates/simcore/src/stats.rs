//! Summary statistics used throughout the reproduction.

/// Arithmetic mean; returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; returns 0.0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation quantile of an *unsorted* slice, `q` in `[0, 1]`.
/// Returns 0.0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Linear-interpolation quantile of an already-sorted slice.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Mean absolute percentage error between predictions and actuals.
/// Pairs whose actual value is zero are skipped.
pub fn mape(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "mape: length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (p, a) in predicted.iter().zip(actual) {
        if *a != 0.0 {
            sum += ((p - a) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Root-mean-square error between two equally long series.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse: length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let se: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).powi(2))
        .sum();
    (se / predicted.len() as f64).sqrt()
}

/// Jain's fairness index over per-entity allocations:
/// `J = (Σx)² / (n · Σx²)`, in `(0, 1]` — `1.0` when every entity gets
/// the same share, `1/n` when one entity gets everything. Used by the
/// multi-tenant accounting to score how evenly goodput is divided across
/// tenants.
///
/// Edge cases: an empty slice and an all-zero slice are both reported as
/// perfectly fair (`1.0`) — there is no allocation to be unfair about.
/// Negative allocations are rejected.
///
/// # Panics
///
/// Panics if any allocation is negative or non-finite.
pub fn jain_fairness_index(xs: &[f64]) -> f64 {
    assert!(
        xs.iter().all(|x| x.is_finite() && *x >= 0.0),
        "jain_fairness_index: allocations must be finite and non-negative"
    );
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// Weighted Jain fairness: each allocation is first normalized by its
/// entity's weight (`x_i / w_i`), so an allocation exactly proportional
/// to the weights scores `1.0`. A tenant with priority weight 2 is
/// *supposed* to get twice the goodput; this variant does not punish
/// that.
///
/// # Panics
///
/// Panics on length mismatch, or if any weight is non-positive, or any
/// allocation negative/non-finite.
pub fn weighted_jain_fairness_index(xs: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        xs.len(),
        weights.len(),
        "weighted_jain_fairness_index: length mismatch"
    );
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "weighted_jain_fairness_index: weights must be finite and positive"
    );
    let normalized: Vec<f64> = xs.iter().zip(weights).map(|(x, w)| x / w).collect();
    jain_fairness_index(&normalized)
}

/// Five-number summary (min, p25, median, p75, max) plus mean — exactly
/// the statistics shown in the paper's latency box plot (fig. 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Minimum observation.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl FiveNumber {
    /// Computes the summary from unsorted samples. Returns all zeros for an
    /// empty slice.
    pub fn from_samples(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return FiveNumber {
                min: 0.0,
                p25: 0.0,
                median: 0.0,
                p75: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        FiveNumber {
            min: sorted[0],
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.50),
            p75: quantile_sorted(&sorted, 0.75),
            max: *sorted.last().expect("nonempty"),
            mean: mean(xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(variance(&xs), 1.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn mape_and_rmse() {
        let p = [2.0, 4.0];
        let a = [1.0, 4.0];
        assert!((mape(&p, &a) - 0.5).abs() < 1e-12);
        assert!((rmse(&p, &a) - (0.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(mape(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn jain_bounds_and_extremes() {
        // Equal shares are perfectly fair.
        assert_eq!(jain_fairness_index(&[3.0, 3.0, 3.0, 3.0]), 1.0);
        // One entity hogging everything floors the index at 1/n.
        let hog = jain_fairness_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((hog - 0.25).abs() < 1e-12, "hog={hog}");
        // Intermediate skew lands strictly between.
        let mid = jain_fairness_index(&[4.0, 2.0, 2.0]);
        assert!(mid > 1.0 / 3.0 && mid < 1.0, "mid={mid}");
        // Scale invariance.
        assert!(
            (jain_fairness_index(&[1.0, 2.0, 3.0]) - jain_fairness_index(&[10.0, 20.0, 30.0]))
                .abs()
                < 1e-12
        );
        // Degenerate inputs are vacuously fair.
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn weighted_jain_respects_priorities() {
        // Allocation proportional to weight is perfectly fair.
        let j = weighted_jain_fairness_index(&[2.0, 1.0], &[2.0, 1.0]);
        assert!((j - 1.0).abs() < 1e-12, "j={j}");
        // The same allocation under equal weights is not.
        let j_eq = weighted_jain_fairness_index(&[2.0, 1.0], &[1.0, 1.0]);
        assert!(j_eq < 1.0, "j_eq={j_eq}");
        // Unit weights reduce to the plain index.
        let xs = [5.0, 1.0, 3.0];
        assert!(
            (weighted_jain_fairness_index(&xs, &[1.0, 1.0, 1.0]) - jain_fairness_index(&xs)).abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn jain_rejects_negative_allocations() {
        let _ = jain_fairness_index(&[1.0, -0.5]);
    }

    #[test]
    fn five_number_summary() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        let s = FiveNumber::from_samples(&xs);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 51.0);
        assert_eq!(s.p25, 26.0);
        assert_eq!(s.p75, 76.0);
        assert_eq!(s.max, 101.0);
        assert_eq!(s.mean, 51.0);
    }
}
