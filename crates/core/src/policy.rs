//! Online-adaptive exit policies.
//!
//! The paper's exit thresholds are static: a DeeBERT-style entropy bound
//! fixed at deployment time. EENet (PAPERS.md) shows per-input exit
//! *scheduling* can be tuned online against a compute budget. This module
//! adds the minimal serving-side version of that idea: an
//! [`OnlineThresholdTuner`] observes the realized early-exit fraction of
//! each profiling window and nudges its entropy threshold toward a target
//! exit rate, so the effective compute per input tracks a budget even as
//! input hardness drifts.
//!
//! The adaptation happens strictly *between* windows — within a window
//! the policy is a plain [`ExitPolicy`], so the kernel, profiler, and
//! optimizer are untouched and determinism is preserved.

use e3_model::ExitPolicy;

/// Proportional online tuner for an entropy threshold.
///
/// Tracks a target early-exit fraction: after each window the threshold
/// moves by `gain * (target - observed)`, clamped to `[min, max]`. A
/// higher entropy threshold admits more exits, so undershooting the
/// target raises the threshold and overshooting lowers it. The update is
/// deterministic — no randomness, no wall-clock — so matrix runs stay
/// replayable from their seed.
#[derive(Debug, Clone)]
pub struct OnlineThresholdTuner {
    threshold: f64,
    target_exit_fraction: f64,
    gain: f64,
    min: f64,
    max: f64,
}

impl OnlineThresholdTuner {
    /// A tuner starting from `threshold`, chasing `target_exit_fraction`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_exit_fraction < 1`, `gain > 0`, and the
    /// starting threshold lies in the default `[0.05, 0.95]` band.
    pub fn new(threshold: f64, target_exit_fraction: f64, gain: f64) -> Self {
        let (min, max) = (0.05, 0.95);
        assert!(
            target_exit_fraction > 0.0 && target_exit_fraction < 1.0,
            "target exit fraction must be in (0, 1)"
        );
        assert!(gain > 0.0, "gain must be positive");
        assert!(
            (min..=max).contains(&threshold),
            "starting threshold must be in [{min}, {max}]"
        );
        OnlineThresholdTuner {
            threshold,
            target_exit_fraction,
            gain,
            min,
            max,
        }
    }

    /// The current threshold (for tests and reports).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The exit fraction the tuner is chasing.
    pub fn target(&self) -> f64 {
        self.target_exit_fraction
    }

    /// The entropy policy for the next window (frozen for its duration).
    pub fn policy(&self) -> ExitPolicy {
        ExitPolicy::Entropy {
            threshold: self.threshold,
        }
    }

    /// Feeds back one served window's realized early-exit fraction in
    /// `[0, 1]` (fraction of completions that left via a ramp).
    pub fn observe_window(&mut self, exit_fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&exit_fraction),
            "exit fraction must be in [0, 1]"
        );
        let step = self.gain * (self.target_exit_fraction - exit_fraction);
        self.threshold = (self.threshold + step).clamp(self.min, self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_raises_threshold_when_exits_undershoot() {
        let mut t = OnlineThresholdTuner::new(0.4, 0.6, 0.5);
        t.observe_window(0.2); // too few exits -> loosen
        assert!(t.threshold() > 0.4);
        let ExitPolicy::Entropy { threshold } = t.policy() else {
            panic!("tuner must stay an entropy policy");
        };
        assert_eq!(threshold, t.threshold());
    }

    #[test]
    fn tuner_lowers_threshold_when_exits_overshoot() {
        let mut t = OnlineThresholdTuner::new(0.4, 0.3, 0.5);
        t.observe_window(0.9); // too many exits -> tighten
        assert!(t.threshold() < 0.4);
    }

    #[test]
    fn tuner_converges_on_a_monotone_exit_curve() {
        // Synthetic world: exit fraction responds linearly to the
        // threshold. The fixed point is where threshold == target.
        let mut t = OnlineThresholdTuner::new(0.1, 0.5, 0.8);
        for _ in 0..50 {
            let observed = t.threshold(); // exit_fraction == threshold
            t.observe_window(observed);
        }
        assert!((t.threshold() - 0.5).abs() < 1e-3, "got {}", t.threshold());
    }

    #[test]
    fn tuner_clamps_to_its_band() {
        let mut t = OnlineThresholdTuner::new(0.9, 0.99, 10.0);
        for _ in 0..5 {
            t.observe_window(0.0);
        }
        assert!(t.threshold() <= 0.95);
        let mut t = OnlineThresholdTuner::new(0.1, 0.01, 10.0);
        for _ in 0..5 {
            t.observe_window(1.0);
        }
        assert!(t.threshold() >= 0.05);
    }

    #[test]
    #[should_panic(expected = "exit fraction")]
    fn tuner_rejects_out_of_range_observations() {
        let mut t = OnlineThresholdTuner::new(0.4, 0.5, 0.5);
        t.observe_window(1.5);
    }
}
