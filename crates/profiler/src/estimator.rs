//! The online batch-profile estimator (§3.1).
//!
//! One exponentially weighted moving average per layer boundary, fed by
//! per-window survival observations. The forecast for the next
//! scheduling window is assembled into a [`BatchProfile`] with the
//! paper's safety checks applied: survival fractions are clamped to
//! `[0, 1]` and forced monotone non-increasing over depth (a predicted
//! batch can never exceed what the resources, i.e. the incoming batch,
//! can supply).
//!
//! The EWMA stands in for the paper's autoregressive model, a deviation
//! made on measured forecast error (DESIGN.md, decision 9). Before any
//! observation the estimator predicts "no exits" — the conservative
//! profile under which E3 behaves exactly like a stock model.

use e3_model::BatchProfile;

/// EWMA smoothing factor: the weight of the newest window.
const EWMA_ALPHA: f64 = 0.4;
/// Mean absolute survival error above which
/// [`BatchProfileEstimator::drift_exceeds`] reports drift.
const DRIFT_THRESHOLD: f64 = 0.12;

/// Online batch-profile estimator: ingest one observed profile per
/// scheduling window, forecast the next window's profile.
#[derive(Debug, Clone)]
pub struct BatchProfileEstimator {
    num_layers: usize,
    /// Per layer-boundary EWMA of survival fractions; `None` until the
    /// first observation (or since the last reset).
    level: Option<Vec<f64>>,
    /// Last forecast issued, for drift measurement.
    last_forecast: Option<BatchProfile>,
}

impl BatchProfileEstimator {
    /// Creates an estimator for a model with `num_layers` layers.
    pub fn new(num_layers: usize) -> Self {
        BatchProfileEstimator {
            num_layers,
            level: None,
            last_forecast: None,
        }
    }

    /// Ingests the observed profile of the window that just ended.
    pub fn observe_window(&mut self, observed: &BatchProfile) {
        assert_eq!(
            observed.num_layers(),
            self.num_layers,
            "profile shape mismatch"
        );
        match &mut self.level {
            None => self.level = Some(observed.survival().to_vec()),
            Some(level) => {
                for (v, x) in level.iter_mut().zip(observed.survival()) {
                    *v = EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * *v;
                }
            }
        }
    }

    /// Forecasts the next window's batch profile (with safety clamps) and
    /// records it for drift measurement.
    pub fn forecast(&mut self) -> BatchProfile {
        let mut survival = Vec::with_capacity(self.num_layers + 1);
        survival.push(1.0);
        for k in 1..=self.num_layers {
            // Conservative: assume no exits until observed.
            let raw = self.level.as_ref().map_or(1.0, |level| level[k]);
            // Safety checks (§3.1): in range, and never above the
            // previous boundary's survival.
            let prev = *survival.last().expect("nonempty");
            survival.push(raw.clamp(0.0, 1.0).min(prev));
        }
        let profile = BatchProfile::new(survival);
        self.last_forecast = Some(profile.clone());
        profile
    }

    /// Mean absolute survival error between the last forecast and the
    /// observation that followed it (0 when no forecast was issued).
    pub fn drift(&self, observed: &BatchProfile) -> f64 {
        let Some(f) = &self.last_forecast else {
            return 0.0;
        };
        let n = f.survival().len() as f64;
        f.survival()
            .iter()
            .zip(observed.survival())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / n
    }

    /// True when observed drift exceeds `DRIFT_THRESHOLD` — E3's
    /// signal to reactively re-run the optimizer (§3.1).
    pub fn drift_exceeds(&self, observed: &BatchProfile) -> bool {
        self.drift(observed) > DRIFT_THRESHOLD
    }

    /// Discards the EWMA level. Called on detected regime changes so
    /// the forecast follows the new regime from its first observation
    /// instead of averaging it with the dead one (§3.1's reactive
    /// correction).
    pub fn reset_history(&mut self) {
        self.level = None;
        self.last_forecast = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(survivals: &[f64]) -> BatchProfile {
        let mut v = vec![1.0];
        v.extend_from_slice(survivals);
        BatchProfile::new(v)
    }

    #[test]
    fn cold_start_predicts_no_exits() {
        let mut e = BatchProfileEstimator::new(3);
        let f = e.forecast();
        assert_eq!(f.survival(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn stationary_profile_converges() {
        let mut e = BatchProfileEstimator::new(2);
        let obs = profile(&[0.6, 0.4]);
        for _ in 0..20 {
            e.observe_window(&obs);
        }
        let f = e.forecast();
        assert!((f.survival_at(1) - 0.6).abs() < 0.05, "{:?}", f.survival());
        assert!((f.survival_at(2) - 0.4).abs() < 0.05);
    }

    #[test]
    fn ewma_lag_on_a_linear_ramp_matches_closed_form() {
        // Survival at boundary 1 falls by DELTA per window from 0.8. The
        // EWMA trails a ramp: after n + 1 observations its level sits
        // DELTA * (1 - a) / a * (1 - (1 - a)^n) above the last one.
        const DELTA: f64 = 0.02;
        let mut e = BatchProfileEstimator::new(1);
        let mut last = 0.0;
        for w in 0..20 {
            last = 0.8 - DELTA * w as f64;
            e.observe_window(&profile(&[last]));
        }
        let lag = e.forecast().survival_at(1) - last;
        let a = EWMA_ALPHA;
        let expected = DELTA * (1.0 - a) / a * (1.0 - (1.0 - a).powi(19));
        assert!(
            (lag - expected).abs() < 1e-12,
            "lag={lag} expected={expected}"
        );
    }

    #[test]
    fn forecast_is_monotone_and_bounded() {
        let mut e = BatchProfileEstimator::new(3);
        // Noisy observations that individually violate nothing but could
        // lead a per-series forecaster astray.
        for w in 0..15 {
            let jitter: f64 = if w % 2 == 0 { 0.05 } else { -0.05 };
            let s1 = (0.7 + jitter).clamp(0.0, 1.0);
            let s2 = (0.5 - jitter).min(s1);
            let s3: f64 = 0.45_f64.min(s2);
            e.observe_window(&profile(&[s1, s2, s3]));
        }
        let f = e.forecast();
        let s = f.survival();
        assert!(s.windows(2).all(|w| w[1] <= w[0] + 1e-12), "{s:?}");
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn drift_detection_fires_on_regime_change() {
        let mut e = BatchProfileEstimator::new(1);
        for _ in 0..12 {
            e.observe_window(&profile(&[0.8]));
        }
        let _ = e.forecast();
        // Regime change: suddenly almost everything exits.
        let new = profile(&[0.2]);
        assert!(e.drift(&new) > 0.25, "drift={}", e.drift(&new));
        assert!(e.drift_exceeds(&new));
        // Matching observation: no drift.
        let same = profile(&[0.8]);
        assert!(!e.drift_exceeds(&same));
    }

    #[test]
    fn short_history_uses_ewma() {
        let mut e = BatchProfileEstimator::new(1);
        e.observe_window(&profile(&[0.5]));
        e.observe_window(&profile(&[0.5]));
        let f = e.forecast().survival_at(1);
        assert!((f - 0.5).abs() < 1e-9, "f={f}");
    }

    #[test]
    fn reset_forgets_trend() {
        let mut e = BatchProfileEstimator::new(1);
        for _ in 0..12 {
            e.observe_window(&profile(&[0.8]));
        }
        e.reset_history();
        assert!(e.level.is_none());
        e.observe_window(&profile(&[0.2]));
        let f = e.forecast().survival_at(1);
        assert!((f - 0.2).abs() < 1e-9, "f={f}");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut e = BatchProfileEstimator::new(4);
        e.observe_window(&profile(&[0.5]));
    }

    #[test]
    fn drift_is_zero_before_any_forecast() {
        // No forecast issued: there is nothing to have drifted from, so
        // the threshold can never fire regardless of the observation.
        let e = BatchProfileEstimator::new(1);
        let obs = profile(&[0.0]);
        assert_eq!(e.drift(&obs), 0.0);
        assert!(!e.drift_exceeds(&obs));
    }

    #[test]
    fn drift_exactly_at_threshold_does_not_exceed() {
        // drift_exceeds is a strict comparison: an error landing exactly
        // on the threshold is tolerated; only strictly more trips it. A
        // forecast of 0.0 against an observation of twice the threshold
        // makes the drift exact: the difference is exact and halving is
        // exact in binary, so the boundary is not blurred by rounding.
        let mut e = BatchProfileEstimator::new(1);
        e.observe_window(&profile(&[0.0]));
        e.observe_window(&profile(&[0.0]));
        let f = e.forecast();
        assert_eq!(f.survival_at(1), 0.0);
        // Two boundaries: survival [1.0, s]. Boundary 0 always matches,
        // so drift = |0.0 - s_obs| / 2.
        let at_threshold = profile(&[2.0 * DRIFT_THRESHOLD]);
        assert_eq!(e.drift(&at_threshold), DRIFT_THRESHOLD);
        assert!(!e.drift_exceeds(&at_threshold));
        let above = profile(&[2.0 * DRIFT_THRESHOLD + 0.01]);
        assert!(e.drift_exceeds(&above));
        let below = profile(&[2.0 * DRIFT_THRESHOLD - 0.01]);
        assert!(!e.drift_exceeds(&below));
    }

    #[test]
    fn reset_on_empty_history_is_harmless() {
        let mut e = BatchProfileEstimator::new(2);
        e.reset_history();
        assert!(e.level.is_none());
        // Still boots conservatively after a vacuous reset.
        assert_eq!(e.forecast().survival(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn reset_clears_drift_baseline() {
        let mut e = BatchProfileEstimator::new(1);
        for _ in 0..12 {
            e.observe_window(&profile(&[0.9]));
        }
        let _ = e.forecast();
        let new_regime = profile(&[0.1]);
        assert!(e.drift_exceeds(&new_regime));
        // The reset forgets the forecast along with the level: drift is
        // defined against a forecast, and none is outstanding.
        e.reset_history();
        assert_eq!(e.drift(&new_regime), 0.0);
        assert!(!e.drift_exceeds(&new_regime));
    }

    #[test]
    fn post_reset_forecast_tracks_new_regime_immediately() {
        let mut e = BatchProfileEstimator::new(2);
        for _ in 0..15 {
            e.observe_window(&profile(&[0.9, 0.8]));
        }
        e.reset_history();
        e.observe_window(&profile(&[0.3, 0.1]));
        let f = e.forecast();
        // One post-reset observation fully determines the forecast; the
        // dead trend must contribute nothing.
        assert!((f.survival_at(1) - 0.3).abs() < 1e-9, "{:?}", f.survival());
        assert!((f.survival_at(2) - 0.1).abs() < 1e-9);
    }
}
