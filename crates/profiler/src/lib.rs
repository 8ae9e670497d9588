//! # e3-profiler
//!
//! E3's online batch-profile estimation (§3.1).
//!
//! Inference workloads drift over time, so the usefulness of each exit
//! ramp drifts too. E3 divides the workload into scheduling windows (two
//! minutes in the paper), observes the batch size at every ramp within a
//! window, and forecasts the *next* window's batch-shrinkage profile with
//! ARIMA. That forecast guides the split optimizer; the paper stresses
//! that it is a guide, not a contract — mild errors cost a little goodput,
//! never correctness.
//!
//! Contents:
//!
//! * [`arima`] — ARIMA(p,d,q) implemented from scratch: differencing,
//!   Hannan–Rissanen two-stage estimation (long-AR residuals, then OLS on
//!   lagged values + lagged residuals), and recursive forecasting.
//! * [`window`] — per-window exit accounting: counts exits per ramp and
//!   converts them to survival fractions.
//! * [`estimator`] — the online estimator: one ARIMA series per ramp over
//!   window-level survival observations, with monotonicity/range clamps
//!   (the paper's "safety checks") and drift detection that triggers
//!   re-optimization when predictions diverge from reality.
//! * [`watchdog`] — the guarded-reconfiguration front end over the raw
//!   drift signal: hysteresis, consecutive-window confirmation, and a
//!   pessimistic safe-mode profile for stale or confirmed-bad forecasts.

pub mod arima;
pub mod estimator;
pub mod watchdog;
pub mod window;

pub use arima::{ArimaError, ArimaModel};
pub use estimator::{BatchProfileEstimator, EstimatorConfig};
pub use watchdog::{DriftWatchdog, SafeModeReason, WatchdogConfig, WatchdogState, WatchdogVerdict};
pub use window::WindowObserver;
