//! Batch-shrinkage profiles.
//!
//! The central observable of the whole system (§3.1): how the batch size
//! decays as a batch traverses the ramps. [`BatchProfile`] stores the
//! expected *survival fraction* entering each layer — `survival[k]` is the
//! expected fraction of the original batch still active when layer `k`
//! starts (with an extra final entry for "completed the whole model").
//! The profiler estimates these from ramp observations; the optimizer
//! scales them by the input batch size.

/// Expected fraction of a batch surviving to the start of each layer.
///
/// Invariants: `survival[0] == 1.0`, the sequence is non-increasing, and
/// every value lies in `[0, 1]`. Length is `num_layers + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProfile {
    survival: Vec<f64>,
}

impl BatchProfile {
    /// Builds a profile from per-layer survival fractions.
    ///
    /// # Panics
    ///
    /// Panics if the invariants are violated (this type is constructed by
    /// trusted code — the profiler and tests — where violation is a bug).
    pub fn new(survival: Vec<f64>) -> Self {
        assert!(survival.len() >= 2, "profile needs at least one layer");
        assert!(
            (survival[0] - 1.0).abs() < 1e-9,
            "profile must start at 1.0"
        );
        for w in survival.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "survival must be non-increasing: {survival:?}"
            );
        }
        assert!(
            survival.iter().all(|s| (0.0..=1.0 + 1e-9).contains(s)),
            "survival must lie in [0,1]"
        );
        BatchProfile { survival }
    }

    /// A profile with no exits (stock model): all ones.
    pub fn no_exits(num_layers: usize) -> Self {
        BatchProfile {
            survival: vec![1.0; num_layers + 1],
        }
    }

    /// Builds a profile from observed exit counts: `exits_after[k]` is the
    /// number of samples that exited at the ramp after layer `k` (zero
    /// where there is no ramp), out of `total` samples entering the model.
    /// Samples not exiting at any ramp complete the full model.
    pub fn from_exit_counts(exits_after: &[f64], total: f64) -> Self {
        assert!(total > 0.0, "total must be positive");
        let mut survival = Vec::with_capacity(exits_after.len() + 1);
        let mut alive = 1.0;
        survival.push(alive);
        for e in exits_after {
            alive = (alive - e / total).max(0.0);
            survival.push(alive);
        }
        BatchProfile::new(survival)
    }

    /// Number of layers this profile covers.
    pub fn num_layers(&self) -> usize {
        self.survival.len() - 1
    }

    /// Survival fraction entering layer `k` (`k == num_layers` means
    /// "completed every layer").
    pub fn survival_at(&self, k: usize) -> f64 {
        self.survival[k]
    }

    /// All survival fractions.
    pub fn survival(&self) -> &[f64] {
        &self.survival
    }

    /// Expected batch size entering layer `k` for an input batch `b0`.
    pub fn batch_at(&self, k: usize, b0: f64) -> f64 {
        self.survival[k] * b0
    }

    /// Average depth: expected fraction of layers a sample executes.
    pub fn mean_depth_fraction(&self) -> f64 {
        // survival[k] is exactly P(sample executes layer k), so the mean
        // executed-layer count is the sum over layers.
        let layers = self.num_layers() as f64;
        self.survival[..self.num_layers()].iter().sum::<f64>() / layers
    }

    /// Applies a multiplicative error to the *exit* amounts, as in the
    /// misprediction-sensitivity study (fig. 22): `error = 0.5` makes the
    /// profile predict 50% *less* shrinkage than reality (survival biased
    /// high). Survival fractions stay clamped to `[0, 1]` and monotone.
    pub fn with_shrinkage_error(&self, error: f64) -> BatchProfile {
        let mut survival = Vec::with_capacity(self.survival.len());
        survival.push(1.0);
        for k in 1..self.survival.len() {
            let true_drop = 1.0 - self.survival[k];
            let biased = (1.0 - true_drop * (1.0 - error)).clamp(0.0, 1.0);
            let prev = *survival.last().expect("nonempty");
            survival.push(biased.min(prev));
        }
        BatchProfile::new(survival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_exit_counts_basic() {
        // 16 samples; 4 exit after layer 0, 4 after layer 1, rest finish.
        let p = BatchProfile::from_exit_counts(&[4.0, 4.0, 0.0], 16.0);
        assert_eq!(p.num_layers(), 3);
        assert_eq!(p.survival(), &[1.0, 0.75, 0.5, 0.5]);
        assert_eq!(p.batch_at(2, 16.0), 8.0);
    }

    #[test]
    fn no_exit_profile_is_flat() {
        let p = BatchProfile::no_exits(12);
        assert_eq!(p.num_layers(), 12);
        assert_eq!(p.mean_depth_fraction(), 1.0);
    }

    #[test]
    fn mean_depth_fraction_half() {
        // Everyone exits after the first of two layers.
        let p = BatchProfile::from_exit_counts(&[10.0, 0.0], 10.0);
        assert!((p.mean_depth_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shrinkage_error_biases_survival_up() {
        let p = BatchProfile::new(vec![1.0, 0.5, 0.25]);
        let biased = p.with_shrinkage_error(0.5);
        assert_eq!(biased.survival(), &[1.0, 0.75, 0.625]);
        let exact = p.with_shrinkage_error(0.0);
        assert_eq!(exact.survival(), p.survival());
        let total = p.with_shrinkage_error(1.0);
        assert_eq!(total.survival(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn increasing_survival_rejected() {
        let _ = BatchProfile::new(vec![1.0, 0.5, 0.6]);
    }

    #[test]
    fn batches_in_range() {
        let p = BatchProfile::new(vec![1.0, 0.5, 0.5, 0.25]);
        assert_eq!([1, 2].map(|k| p.batch_at(k, 8.0)), [4.0, 4.0]);
    }
}
