//! Reports from windowed E3 runs.

use e3_model::BatchProfile;
use e3_optimizer::SplitPlan;
use e3_runtime::RunReport;

use crate::reconfig::{ReconfigDecision, ReconfigReport};

/// What happened in one scheduling window.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window index.
    pub window: usize,
    /// The profile the estimator predicted for this window.
    pub predicted: BatchProfile,
    /// The profile actually observed.
    pub observed: Option<BatchProfile>,
    /// The plan that served (the bulk of) this window. Under guarded
    /// reconfiguration this is the canary winner — the candidate on
    /// promotion, the incumbent on rollback.
    pub plan: SplitPlan,
    /// Serving metrics for the window.
    pub run: RunReport,
    /// Mean absolute survival error of the prediction (fig. 21/22).
    pub drift: f64,
    /// GPUs the control loop planned against this window — shrinks when
    /// earlier windows lost replicas to unrecovered crashes.
    pub cluster_gpus: usize,
    /// The guarded plan transition attempted this window, if any.
    pub reconfig: Option<ReconfigReport>,
    /// True when the drift watchdog had the loop planning with the
    /// pessimistic safe-mode profile this window.
    pub safe_mode: bool,
    /// True when the watchdog entered safe mode *at* this window (the
    /// trigger edge).
    pub watchdog_triggered: bool,
    /// Brownout rung: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub brownout_level: u8,
}

impl WindowReport {
    /// This window's SLO attainment over all arrivals (completions that
    /// met the SLO divided by completed + dropped); 1.0 for an empty
    /// window. Dropped samples count against attainment — a shed request
    /// certainly missed its deadline.
    pub fn slo_attainment(&self) -> f64 {
        let arrivals = self.run.completed + self.run.dropped;
        if arrivals == 0 {
            1.0
        } else {
            self.run.within_slo as f64 / arrivals as f64
        }
    }
}

/// A full multi-window E3 run.
#[derive(Debug, Clone)]
pub struct E3Report {
    /// Per-window details.
    pub windows: Vec<WindowReport>,
}

impl E3Report {
    /// Aggregate goodput across windows (samples/s).
    pub fn goodput(&self) -> f64 {
        let total: f64 = self.windows.iter().map(|w| w.run.within_slo as f64).sum();
        let dur: f64 = self
            .windows
            .iter()
            .map(|w| w.run.duration.as_secs_f64())
            .sum();
        if dur == 0.0 {
            0.0
        } else {
            total / dur
        }
    }

    /// Aggregate accuracy across windows.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = self.windows.iter().map(|w| w.run.correct).sum();
        let done: u64 = self.windows.iter().map(|w| w.run.completed).sum();
        if done == 0 {
            0.0
        } else {
            correct as f64 / done as f64
        }
    }

    /// Mean prediction drift over windows that had observations.
    pub fn mean_drift(&self) -> f64 {
        let with_obs: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.observed.is_some())
            .map(|w| w.drift)
            .collect();
        e3_simcore::stats::mean(&with_obs)
    }

    /// Guarded transitions that promoted their candidate plan.
    pub fn promotion_count(&self) -> usize {
        self.decision_count(ReconfigDecision::Promoted)
    }

    /// Guarded transitions that rolled back to the incumbent plan.
    pub fn rollback_count(&self) -> usize {
        self.decision_count(ReconfigDecision::RolledBack)
    }

    fn decision_count(&self, d: ReconfigDecision) -> usize {
        self.windows
            .iter()
            .filter(|w| w.reconfig.as_ref().is_some_and(|r| r.decision == d))
            .count()
    }

    /// Windows planned with the watchdog's pessimistic safe-mode profile.
    pub fn safe_mode_windows(&self) -> usize {
        self.windows.iter().filter(|w| w.safe_mode).count()
    }

    /// The first window at which the drift watchdog tripped, if any.
    pub fn first_trigger_window(&self) -> Option<usize> {
        self.windows
            .iter()
            .find(|w| w.watchdog_triggered)
            .map(|w| w.window)
    }

    /// Mean SLO attainment over windows, each weighted by its arrivals.
    pub fn slo_attainment(&self) -> f64 {
        let within: u64 = self.windows.iter().map(|w| w.run.within_slo).sum();
        let arrivals: u64 = self
            .windows
            .iter()
            .map(|w| w.run.completed + w.run.dropped)
            .sum();
        if arrivals == 0 {
            1.0
        } else {
            within as f64 / arrivals as f64
        }
    }

    /// `(predicted, observed)` survival at a given layer boundary per
    /// window — the series plotted in fig. 21.
    pub fn profile_series(&self, boundary: usize) -> Vec<(f64, Option<f64>)> {
        self.windows
            .iter()
            .map(|w| {
                (
                    w.predicted.survival_at(boundary),
                    w.observed.as_ref().map(|o| o.survival_at(boundary)),
                )
            })
            .collect()
    }
}
