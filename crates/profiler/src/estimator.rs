//! The online batch-profile estimator (§3.1).
//!
//! One ARIMA series per ramp position, fed by per-window survival
//! observations. The forecast for the next scheduling window is assembled
//! into a [`BatchProfile`] with the paper's safety checks applied:
//! survival fractions are clamped to `[0, 1]` and forced monotone
//! non-increasing over depth (a predicted batch can never exceed what the
//! resources, i.e. the incoming batch, can supply).
//!
//! When too little history exists for an ARIMA fit, the estimator falls
//! back to an exponentially weighted moving average, and before any
//! observation at all it predicts "no exits" — the conservative profile
//! under which E3 behaves exactly like a stock model.

use e3_model::BatchProfile;

use crate::arima::ArimaModel;

/// Estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// AR order.
    pub p: usize,
    /// Differencing order.
    pub d: usize,
    /// MA order.
    pub q: usize,
    /// Number of most-recent windows retained per ramp series.
    pub history: usize,
    /// EWMA smoothing factor for the short-history fallback.
    pub ewma_alpha: f64,
    /// Relative mean-error threshold above which
    /// [`BatchProfileEstimator::drift_exceeds`] reports drift.
    pub drift_threshold: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            p: 2,
            d: 1,
            q: 1,
            history: 32,
            ewma_alpha: 0.4,
            drift_threshold: 0.12,
        }
    }
}

/// Online batch-profile estimator: ingest one observed profile per
/// scheduling window, forecast the next window's profile.
#[derive(Debug, Clone)]
pub struct BatchProfileEstimator {
    cfg: EstimatorConfig,
    num_layers: usize,
    /// Per layer-boundary history of survival fractions (window-ordered).
    series: Vec<Vec<f64>>,
    /// Last forecast issued, for drift measurement.
    last_forecast: Option<BatchProfile>,
}

impl BatchProfileEstimator {
    /// Creates an estimator for a model with `num_layers` layers.
    pub fn new(num_layers: usize, cfg: EstimatorConfig) -> Self {
        BatchProfileEstimator {
            cfg,
            num_layers,
            series: vec![Vec::new(); num_layers + 1],
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
        for (k, s) in observed.survival().iter().enumerate() {
            let hist = &mut self.series[k];
            hist.push(*s);
            if hist.len() > self.cfg.history {
                hist.remove(0);
            }
        }
    }

    /// Forecasts the next window's batch profile (with safety clamps) and
    /// records it for drift measurement.
    pub fn forecast(&mut self) -> BatchProfile {
        let mut survival = Vec::with_capacity(self.num_layers + 1);
        survival.push(1.0);
        for k in 1..=self.num_layers {
            let hist = &self.series[k];
            let raw = self.forecast_series(hist);
            // Safety checks (§3.1): in range, and never above the
            // previous boundary's survival.
            let prev = *survival.last().expect("nonempty");
            survival.push(raw.clamp(0.0, 1.0).min(prev));
        }
        let profile = BatchProfile::new(survival);
        self.last_forecast = Some(profile.clone());
        profile
    }

    fn forecast_series(&self, hist: &[f64]) -> f64 {
        if hist.is_empty() {
            return 1.0; // conservative: assume no exits until observed
        }
        if let Ok(model) = ArimaModel::fit(hist, self.cfg.p, self.cfg.d, self.cfg.q) {
            let f = model.forecast_one();
            if f.is_finite() {
                return f;
            }
        }
        // EWMA fallback for short histories or degenerate fits.
        let mut v = hist[0];
        for x in &hist[1..] {
            v = self.cfg.ewma_alpha * x + (1.0 - self.cfg.ewma_alpha) * v;
        }
        v
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

    /// True when observed drift exceeds the configured threshold — E3's
    /// signal to reactively re-run the optimizer (§3.1).
    pub fn drift_exceeds(&self, observed: &BatchProfile) -> bool {
        self.drift(observed) > self.cfg.drift_threshold
    }

    /// Discards accumulated history. Called on detected regime changes so
    /// the forecaster stops extrapolating a dead trend (§3.1's reactive
    /// correction).
    pub fn reset_history(&mut self) {
        for s in &mut self.series {
            s.clear();
        }
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
        let mut e = BatchProfileEstimator::new(3, EstimatorConfig::default());
        let f = e.forecast();
        assert_eq!(f.survival(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn stationary_profile_converges() {
        let mut e = BatchProfileEstimator::new(2, EstimatorConfig::default());
        let obs = profile(&[0.6, 0.4]);
        for _ in 0..20 {
            e.observe_window(&obs);
        }
        let f = e.forecast();
        assert!((f.survival_at(1) - 0.6).abs() < 0.05, "{:?}", f.survival());
        assert!((f.survival_at(2) - 0.4).abs() < 0.05);
    }

    #[test]
    fn tracks_drifting_workload() {
        // Survival at boundary 1 ramps from 0.8 down to 0.4 over windows
        // (workload getting easier); the forecast must follow the trend.
        let mut e = BatchProfileEstimator::new(1, EstimatorConfig::default());
        for w in 0..20 {
            let s = 0.8 - 0.02 * w as f64;
            e.observe_window(&profile(&[s]));
        }
        let f = e.forecast().survival_at(1);
        // Last observation was 0.42; the trend predicts ~0.40.
        assert!((0.33..0.45).contains(&f), "forecast={f}");
    }

    #[test]
    fn forecast_is_monotone_and_bounded() {
        let mut e = BatchProfileEstimator::new(3, EstimatorConfig::default());
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
        let mut e = BatchProfileEstimator::new(1, EstimatorConfig::default());
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
        let mut e = BatchProfileEstimator::new(1, EstimatorConfig::default());
        e.observe_window(&profile(&[0.5]));
        e.observe_window(&profile(&[0.5]));
        let f = e.forecast().survival_at(1);
        assert!((f - 0.5).abs() < 1e-9, "f={f}");
    }

    #[test]
    fn reset_forgets_trend() {
        let mut e = BatchProfileEstimator::new(1, EstimatorConfig::default());
        for _ in 0..12 {
            e.observe_window(&profile(&[0.8]));
        }
        e.reset_history();
        assert_eq!(e.series[0].len(), 0);
        e.observe_window(&profile(&[0.2]));
        let f = e.forecast().survival_at(1);
        assert!((f - 0.2).abs() < 1e-9, "f={f}");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut e = BatchProfileEstimator::new(4, EstimatorConfig::default());
        e.observe_window(&profile(&[0.5]));
    }

    #[test]
    fn drift_is_zero_before_any_forecast() {
        // No forecast issued: there is nothing to have drifted from, so
        // the threshold can never fire regardless of the observation.
        let e = BatchProfileEstimator::new(1, EstimatorConfig::default());
        let obs = profile(&[0.0]);
        assert_eq!(e.drift(&obs), 0.0);
        assert!(!e.drift_exceeds(&obs));
    }

    #[test]
    fn drift_exactly_at_threshold_does_not_exceed() {
        // drift_exceeds is a strict comparison: an error landing exactly
        // on the threshold is tolerated; only strictly more trips it. Use
        // a dyadic threshold and dyadic survivals so every value below is
        // exact in binary and the boundary is not blurred by rounding.
        let cfg = EstimatorConfig {
            drift_threshold: 0.125,
            ..Default::default()
        };
        let mut e = BatchProfileEstimator::new(1, cfg);
        e.observe_window(&profile(&[0.5]));
        e.observe_window(&profile(&[0.5]));
        let f = e.forecast();
        assert_eq!(f.survival_at(1), 0.5);
        // Two boundaries: survival [1.0, s]. Boundary 0 always matches,
        // so drift = |0.5 - s_obs| / 2.
        let at_threshold = profile(&[0.75]); // drift = 0.25 / 2 = 0.125
        assert_eq!(e.drift(&at_threshold), 0.125);
        assert!(!e.drift_exceeds(&at_threshold));
        let above = profile(&[0.78125]); // drift = 0.140625
        assert!(e.drift_exceeds(&above));
        let below = profile(&[0.625]); // drift = 0.0625
        assert!(!e.drift_exceeds(&below));
    }

    #[test]
    fn reset_on_empty_history_is_harmless() {
        let mut e = BatchProfileEstimator::new(2, EstimatorConfig::default());
        e.reset_history();
        assert_eq!(e.series[0].len(), 0);
        // Still boots conservatively after a vacuous reset.
        assert_eq!(e.forecast().survival(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn reset_clears_drift_baseline() {
        let mut e = BatchProfileEstimator::new(1, EstimatorConfig::default());
        for _ in 0..12 {
            e.observe_window(&profile(&[0.9]));
        }
        let _ = e.forecast();
        let new_regime = profile(&[0.1]);
        assert!(e.drift_exceeds(&new_regime));
        // The reset forgets the forecast along with the history: drift is
        // defined against a forecast, and none is outstanding.
        e.reset_history();
        assert_eq!(e.drift(&new_regime), 0.0);
        assert!(!e.drift_exceeds(&new_regime));
    }

    #[test]
    fn post_reset_forecast_tracks_new_regime_immediately() {
        let mut e = BatchProfileEstimator::new(2, EstimatorConfig::default());
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
