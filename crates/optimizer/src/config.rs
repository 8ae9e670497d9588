//! Optimizer configuration.
//!
//! The planner maximizes goodput under one constraint, the SLO (§3.2):
//! a plan is feasible when its worst-case latency fits the budget
//! `SLO · (1 − SLO_SLACK_FRAC)`. The other fields choose the formulation
//! (pipelining, split count, memory) and the realization penalty.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_budget_applies_slack() {
        let cfg = OptimizerConfig::default();
        assert_eq!(cfg.latency_budget(), SimDuration::from_millis(80));
    }
}
