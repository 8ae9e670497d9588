//! # e3-profiler
//!
//! E3's online batch-profile estimation (§3.1).
//!
//! Inference workloads drift over time, so the usefulness of each exit
//! ramp drifts too. E3 divides the workload into scheduling windows (two
//! minutes in the paper), observes the batch size at every ramp within a
//! window, and forecasts the *next* window's batch-shrinkage profile. This
//! reproduction forecasts with an exponentially weighted moving average
//! in place of the paper's autoregressive model, which forecast these
//! series worse (DESIGN.md, decision 9). The forecast guides the split
//! optimizer; the paper stresses that it is a guide, not a contract —
//! mild errors cost a little goodput, never correctness.
//!
//! Contents:
//!
//! * [`window`] — per-window exit accounting: counts exits per ramp and
//!   converts them to survival fractions.
//! * [`estimator`] — the online estimator: one EWMA per layer boundary
//!   over window-level survival observations, with monotonicity/range clamps
//!   (the paper's "safety checks") and drift detection that triggers
//!   re-optimization when predictions diverge from reality.
//! * [`watchdog`] — the guarded-reconfiguration front end over the raw
//!   drift signal: hysteresis, consecutive-window confirmation, and a
//!   pessimistic safe-mode profile for stale or confirmed-bad forecasts.

pub mod estimator;
pub mod watchdog;
pub mod window;

pub use estimator::BatchProfileEstimator;
pub use watchdog::{DriftWatchdog, SafeModeReason, WatchdogState, WatchdogVerdict};
pub use window::WindowObserver;
