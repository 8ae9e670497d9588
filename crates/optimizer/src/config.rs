//! Optimizer configuration and constraints.

use e3_simcore::SimDuration;

/// Fraction of the SLO reserved as slack (the paper uses 20%, §4).
const SLO_SLACK_FRAC: f64 = 0.2;

/// Constraints and knobs for the split optimizer (§3.2's constraint set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// End-to-end latency SLO. The paper's default is 100 ms.
    pub slo: SimDuration,
    /// Whether pipelining overlaps compute and communication (§3.2.2).
    /// When `false`, the objective is the serial sum of eq. 1 — the
    /// "model parallelism OFF" ablation (fig. 26 / §5.8.7).
    pub pipelining: bool,
    /// Maximum number of splits considered. The paper's deployments use
    /// very few (one or two cuts); bounding keeps the heterogeneous
    /// enumeration exact and fast.
    pub max_splits: usize,
    /// Open-loop request rate (req/s), used to charge batch-formation
    /// delay against the SLO. `None` for closed-loop clients (batches
    /// form instantly).
    pub request_rate: Option<f64>,
    /// Cost ceiling in $/s (the paper's `α × Cost_baseline`), if any.
    pub max_cost_per_sec: Option<f64>,
    /// Minimum acceptable goodput (the paper's `Throughput_baseline`),
    /// if any.
    pub min_goodput: Option<f64>,
    /// Realization penalty per additional split: the DP's expected-value
    /// model ignores fusion jitter and queueing variance, which grow with
    /// stage count; each extra stage must beat the simpler plan by this
    /// margin to be chosen.
    pub stage_overhead_frac: f64,
    /// Treat device memory as a first-class planning dimension: a stage
    /// whose weights plus double-buffered activations do not fit its GPU
    /// kind is excluded from every plan the optimizer considers (§3.1's
    /// resource safety check, applied during search rather than post hoc).
    /// If no memory-feasible plan exists at all, the goodput planners fall
    /// back to the unconstrained plan so callers still get a best effort;
    /// `min_cost_for_goodput` returns `None` instead.
    pub enforce_memory: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            slo: SimDuration::from_millis(100),
            pipelining: true,
            max_splits: 4,
            request_rate: None,
            max_cost_per_sec: None,
            min_goodput: None,
            stage_overhead_frac: 0.05,
            enforce_memory: true,
        }
    }
}

impl OptimizerConfig {
    /// The effective latency budget: `SLO · (1 − SLO_SLACK_FRAC)`.
    pub(crate) fn latency_budget(&self) -> SimDuration {
        self.slo.mul_f64(1.0 - SLO_SLACK_FRAC)
    }

    /// Worst-case batch-formation delay for batch size `b0`: the time for
    /// `b0 − 1` further requests to arrive after the first. Zero for
    /// closed-loop clients.
    pub(crate) fn formation_delay(&self, b0: f64) -> SimDuration {
        match self.request_rate {
            Some(rate) if rate > 0.0 && b0 > 1.0 => SimDuration::from_secs_f64((b0 - 1.0) / rate),
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_budget_applies_slack() {
        let cfg = OptimizerConfig::default();
        assert_eq!(cfg.latency_budget(), SimDuration::from_millis(80));
    }

    #[test]
    fn formation_delay_closed_loop_is_zero() {
        let cfg = OptimizerConfig::default();
        assert_eq!(cfg.formation_delay(16.0), SimDuration::ZERO);
    }

    #[test]
    fn formation_delay_open_loop() {
        let cfg = OptimizerConfig {
            request_rate: Some(1000.0),
            ..Default::default()
        };
        assert_eq!(cfg.formation_delay(9.0), SimDuration::from_millis(8));
        assert_eq!(cfg.formation_delay(1.0), SimDuration::ZERO);
    }
}
