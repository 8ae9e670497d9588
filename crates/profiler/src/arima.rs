//! ARIMA(p, d, q) time-series forecasting, from scratch.
//!
//! The estimation scheme is Hannan–Rissanen:
//!
//! 1. difference the series `d` times;
//! 2. fit a long autoregression by ordinary least squares and take its
//!    residuals as innovation estimates;
//! 3. regress the differenced series on its own `p` lags and the `q`
//!    lagged innovation estimates — the coefficients are the AR and MA
//!    parameters;
//! 4. forecast recursively (future innovations are zero in expectation)
//!    and integrate the differencing back out.
//!
//! This is the textbook light-weight estimator: no likelihood
//! optimization, a handful of small least-squares solves — appropriate
//! for E3's every-two-minutes online setting where the fit must be
//! microseconds, not seconds (fig. 20 shows the whole optimizer pass,
//! profiler included, takes ~1 s on their Python stack).

use std::fmt;

use e3_simcore::linalg::{least_squares, LinalgError, Matrix};

/// Errors from ARIMA fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArimaError {
    /// The series is too short for the requested order.
    TooShort {
        /// Observations provided.
        have: usize,
        /// Observations required.
        need: usize,
    },
    /// The underlying least-squares problem was singular.
    Numerical,
}

impl fmt::Display for ArimaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArimaError::TooShort { have, need } => {
                write!(f, "series too short: have {have}, need {need}")
            }
            ArimaError::Numerical => write!(f, "numerically singular fit"),
        }
    }
}

impl std::error::Error for ArimaError {}

impl From<LinalgError> for ArimaError {
    fn from(_: LinalgError) -> Self {
        ArimaError::Numerical
    }
}

/// Applies one round of differencing.
pub fn difference(xs: &[f64]) -> Vec<f64> {
    xs.windows(2).map(|w| w[1] - w[0]).collect()
}

/// A fitted ARIMA(p, d, q) model, ready to forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct ArimaModel {
    p: usize,
    d: usize,
    q: usize,
    intercept: f64,
    ar: Vec<f64>,
    ma: Vec<f64>,
    /// Trailing values of the differenced series (most recent last).
    tail_values: Vec<f64>,
    /// Trailing innovation estimates (most recent last).
    tail_errors: Vec<f64>,
    /// Last `d` raw observations, for integration.
    integration_tail: Vec<f64>,
}

impl ArimaModel {
    /// Fits an ARIMA(p, d, q) model to `series`.
    ///
    /// # Errors
    ///
    /// [`ArimaError::TooShort`] if fewer than
    /// `d + max(p, q) + long_ar + 4` observations are available, where
    /// `long_ar = max(p + q, 4)`; [`ArimaError::Numerical`] if the design
    /// is singular.
    pub fn fit(series: &[f64], p: usize, d: usize, q: usize) -> Result<Self, ArimaError> {
        let long_ar = (p + q).max(4);
        let need = d + long_ar + p.max(q) + 4;
        if series.len() < need {
            return Err(ArimaError::TooShort {
                have: series.len(),
                need,
            });
        }

        // Difference d times, remembering the integration tail.
        let mut diffed = series.to_vec();
        let mut integration_tail = Vec::with_capacity(d);
        for _ in 0..d {
            integration_tail.push(*diffed.last().expect("nonempty"));
            diffed = difference(&diffed);
        }
        integration_tail.reverse(); // innermost difference level first

        // Stage 1: long AR by OLS -> innovation estimates.
        let errors = Self::long_ar_residuals(&diffed, long_ar)?;

        // Stage 2: OLS of x_t on p lags of x and q lags of the estimated
        // innovations. Rows start where all regressors exist.
        let start = long_ar + p.max(q);
        let rows = diffed.len() - start;
        if rows < p + q + 2 {
            return Err(ArimaError::TooShort {
                have: series.len(),
                need: need + (p + q + 2 - rows),
            });
        }
        let cols = 1 + p + q;
        let mut design = Vec::with_capacity(rows * cols);
        let mut target = Vec::with_capacity(rows);
        for t in start..diffed.len() {
            design.push(1.0);
            for i in 1..=p {
                design.push(diffed[t - i]);
            }
            for j in 1..=q {
                // errors[k] estimates the innovation of diffed[k + long_ar].
                let idx = t as i64 - j as i64 - long_ar as i64;
                design.push(if idx >= 0 { errors[idx as usize] } else { 0.0 });
            }
            target.push(diffed[t]);
        }
        let x = Matrix::from_rows(rows, cols, design);
        let beta = least_squares(&x, &target)?;
        let intercept = beta[0];
        let ar = beta[1..1 + p].to_vec();
        let ma = beta[1 + p..].to_vec();

        // Recompute innovations under the final model for forecast state.
        let mut final_errors = vec![0.0; diffed.len()];
        for t in 0..diffed.len() {
            let mut pred = intercept;
            for (i, a) in ar.iter().enumerate() {
                if t > i {
                    pred += a * diffed[t - i - 1];
                }
            }
            for (j, m) in ma.iter().enumerate() {
                if t > j {
                    pred += m * final_errors[t - j - 1];
                }
            }
            final_errors[t] = diffed[t] - pred;
        }

        let keep_v = p.max(1);
        let keep_e = q.max(1);
        Ok(ArimaModel {
            p,
            d,
            q,
            intercept,
            ar,
            ma,
            tail_values: diffed[diffed.len() - keep_v.min(diffed.len())..].to_vec(),
            tail_errors: final_errors[final_errors.len() - keep_e.min(final_errors.len())..]
                .to_vec(),
            integration_tail,
        })
    }

    fn long_ar_residuals(diffed: &[f64], long_ar: usize) -> Result<Vec<f64>, ArimaError> {
        let rows = diffed.len() - long_ar;
        let cols = 1 + long_ar;
        let mut design = Vec::with_capacity(rows * cols);
        let mut target = Vec::with_capacity(rows);
        for t in long_ar..diffed.len() {
            design.push(1.0);
            for i in 1..=long_ar {
                design.push(diffed[t - i]);
            }
            target.push(diffed[t]);
        }
        let x = Matrix::from_rows(rows, cols, design);
        let beta = least_squares(&x, &target)?;
        let mut errors = Vec::with_capacity(rows);
        for t in long_ar..diffed.len() {
            let mut pred = beta[0];
            for i in 1..=long_ar {
                pred += beta[i] * diffed[t - i];
            }
            errors.push(diffed[t] - pred);
        }
        Ok(errors)
    }

    /// AR coefficients.
    pub fn ar(&self) -> &[f64] {
        &self.ar
    }

    /// MA coefficients.
    pub fn ma(&self) -> &[f64] {
        &self.ma
    }

    /// Forecasts `h` steps ahead (in the original, undifferenced units).
    pub fn forecast(&self, h: usize) -> Vec<f64> {
        let mut values = self.tail_values.clone();
        let mut errors = self.tail_errors.clone();
        let mut diffed_forecast = Vec::with_capacity(h);
        for _ in 0..h {
            let mut pred = self.intercept;
            for (i, a) in self.ar.iter().enumerate() {
                if i < values.len() {
                    pred += a * values[values.len() - 1 - i];
                }
            }
            for (j, m) in self.ma.iter().enumerate() {
                if j < errors.len() {
                    pred += m * errors[errors.len() - 1 - j];
                }
            }
            values.push(pred);
            errors.push(0.0); // future innovations are zero in expectation
            diffed_forecast.push(pred);
        }
        // Integrate d times, innermost difference level first: each pass
        // is a cumulative sum anchored at that level's stored tail value.
        let mut out = diffed_forecast;
        for level in 0..self.d {
            let mut anchor = self.integration_tail[level];
            for v in &mut out {
                anchor += *v;
                *v = anchor;
            }
        }
        out
    }

    /// One-step-ahead forecast.
    pub(crate) fn forecast_one(&self) -> f64 {
        self.forecast(1)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_basics() {
        assert_eq!(difference(&[1.0, 3.0, 6.0]), vec![2.0, 3.0]);
        assert!(difference(&[5.0]).is_empty());
    }

    #[test]
    fn too_short_rejected() {
        let xs = vec![1.0; 5];
        assert!(matches!(
            ArimaModel::fit(&xs, 2, 1, 1),
            Err(ArimaError::TooShort { .. })
        ));
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let xs = vec![7.0; 40];
        let m = ArimaModel::fit(&xs, 1, 0, 0).unwrap();
        let f = m.forecast(5);
        for v in f {
            assert!((v - 7.0).abs() < 1e-6, "v={v}");
        }
    }

    #[test]
    fn linear_trend_captured_with_d1() {
        // x_t = 3 + 2t: after one difference it is the constant 2.
        let xs: Vec<f64> = (0..40).map(|t| 3.0 + 2.0 * t as f64).collect();
        let m = ArimaModel::fit(&xs, 1, 1, 0).unwrap();
        let f = m.forecast(3);
        // Last training value is x_39 = 81; the trend continues 83, 85, 87.
        let expect = [83.0, 85.0, 87.0];
        for (v, e) in f.iter().zip(expect) {
            assert!((v - e).abs() < 0.5, "v={v} e={e}");
        }
    }

    #[test]
    fn ar1_coefficient_recovered() {
        // Simulate x_t = 0.7 x_{t-1} + e_t with deterministic pseudo-noise.
        let mut xs = vec![0.0f64];
        let mut s = 42u64;
        for _ in 0..400 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
            let prev = *xs.last().expect("nonempty");
            xs.push(0.7 * prev + u);
        }
        let m = ArimaModel::fit(&xs, 1, 0, 0).unwrap();
        assert!((m.ar()[0] - 0.7).abs() < 0.1, "ar={:?}", m.ar());
    }

    #[test]
    fn forecast_tracks_slow_sine() {
        // A slow oscillation: one-step forecasts should beat the naive
        // global mean in RMSE.
        let xs: Vec<f64> = (0..120)
            .map(|t| 10.0 + 3.0 * (t as f64 * 0.15).sin())
            .collect();
        let train = &xs[..100];
        let m = ArimaModel::fit(train, 2, 0, 1).unwrap();
        let pred = m.forecast(5);
        let actual = &xs[100..105];
        let rmse = e3_simcore::stats::rmse(&pred, actual);
        let mean = e3_simcore::stats::mean(train);
        let naive: Vec<f64> = vec![mean; 5];
        let naive_rmse = e3_simcore::stats::rmse(&naive, actual);
        assert!(rmse < naive_rmse, "rmse={rmse} naive={naive_rmse}");
    }

    #[test]
    fn ma_component_fits() {
        let xs: Vec<f64> = (0..60).map(|t| (t % 3) as f64).collect();
        let m = ArimaModel::fit(&xs, 1, 0, 1).unwrap();
        assert_eq!(m.ma().len(), 1);
        assert!(m.forecast(2).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn d2_integration_roundtrip() {
        // Quadratic series: second difference is constant.
        let xs: Vec<f64> = (0..40).map(|t| (t * t) as f64).collect();
        let m = ArimaModel::fit(&xs, 1, 2, 0).unwrap();
        let f = m.forecast(2);
        // Next values are 40^2=1600, 41^2=1681.
        assert!((f[0] - 1600.0).abs() < 20.0, "f0={}", f[0]);
        assert!((f[1] - 1681.0).abs() < 40.0, "f1={}", f[1]);
    }
}
