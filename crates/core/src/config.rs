//! Top-level E3 configuration.

use e3_profiler::EstimatorConfig;
use e3_simcore::SimDuration;

use crate::reconfig::ReconfigConfig;

/// Configuration of a full E3 deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct E3Config {
    /// Experiment seed; everything derives from it.
    pub seed: u64,
    /// Latency SLO (paper default: 100 ms).
    pub slo: SimDuration,
    /// SLO slack fraction reserved by the scheduler (paper: 20%).
    pub slack_frac: f64,
    /// Input batch size E3 maintains across every split.
    pub batch: usize,
    /// Scheduling-window length: the profiler observes one window and the
    /// optimizer re-plans for the next (paper: 2 minutes; experiments use
    /// shorter windows to keep simulations fast — the dynamics are
    /// identical, only the wall-clock scale differs).
    pub window: SimDuration,
    /// Whether splits pipeline across GPUs (§3.2.2). Disabling reproduces
    /// the model-parallelism-OFF ablation (fig. 26).
    pub pipelining: bool,
    /// Whether the exit-wrapper (§3.4) may disable non-boundary ramps.
    pub use_wrapper: bool,
    /// Maximum number of splits the optimizer may create.
    pub max_splits: usize,
    /// Batch-profile estimator settings.
    pub estimator: EstimatorConfig,
    /// Requests processed per window in closed-loop mode.
    pub requests_per_window: usize,
    /// Guarded reconfiguration: drift watchdog, probe/canary plan
    /// transitions with automatic rollback. Disabled by default — the
    /// naive instant-swap loop is preserved bit-for-bit.
    pub reconfig: ReconfigConfig,
    /// Bound on queued batches per replica in the serving runtime;
    /// routing sheds batches past it. `None` keeps queues unbounded.
    pub queue_cap: Option<usize>,
}

impl Default for E3Config {
    fn default() -> Self {
        E3Config {
            seed: 0,
            slo: SimDuration::from_millis(100),
            slack_frac: 0.2,
            batch: 8,
            window: SimDuration::from_secs(2),
            pipelining: true,
            use_wrapper: false,
            max_splits: 4,
            estimator: EstimatorConfig::default(),
            requests_per_window: 10_000,
            reconfig: ReconfigConfig::default(),
            queue_cap: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = E3Config::default();
        assert_eq!(c.slo, SimDuration::from_millis(100));
        assert!((c.slack_frac - 0.2).abs() < 1e-12);
        assert!(c.pipelining);
        assert!(
            !c.use_wrapper,
            "paper's evaluation runs without the wrapper"
        );
        assert!(!c.reconfig.guarded, "guarded reconfiguration is opt-in");
        assert_eq!(c.queue_cap, None, "queues unbounded unless asked");
    }
}
