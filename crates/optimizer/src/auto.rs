//! Batch-size selection and resource minimization.
//!
//! §3.2: "Since the request rate is R, we can estimate the largest batch
//! size B0 that does not violate the SLA" — [`best_plan_over_batches`]
//! sweeps candidate batch sizes, keeps SLO-feasible plans, and returns
//! the goodput-best. §5.3 fixes goodput and minimizes resources instead:
//! [`min_gpus_for_goodput`] (homogeneous, fig. 14) and
//! [`min_cost_for_goodput`] (heterogeneous, fig. 15).

use std::collections::BTreeMap;

use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::cache::PlanCache;
use crate::config::OptimizerConfig;
use crate::dp::{optimize_homogeneous, optimize_homogeneous_cached};
use crate::hetero::{min_cost_plan, optimize_heterogeneous};
use crate::plan::SplitPlan;

/// Optimizes a plan for `cluster` at batch `b0`, dispatching to the
/// homogeneous DP or the heterogeneity-aware solver as appropriate.
#[allow(clippy::too_many_arguments)] // the DP inputs of fig. 6
pub fn plan_for_cluster(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    cluster: &ClusterSpec,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> SplitPlan {
    let mut cache = PlanCache::new();
    plan_for_cluster_cached(model, ctrl, profile, cluster, b0, tm, lm, cfg, &mut cache)
}

/// [`plan_for_cluster`] with warm starting: homogeneous solves run
/// through `cache` (see [`PlanCache`]), so a control loop re-planning
/// every window pays for the DP only when its inputs actually change.
/// Heterogeneous clusters bypass the cache: each call builds its own
/// per-kind stage tables and runs the pruned boundary × kind search of
/// [`crate::hetero`]. Plans are bit-identical to the cold path.
#[allow(clippy::too_many_arguments)]
pub fn plan_for_cluster_cached(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    cluster: &ClusterSpec,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
    cache: &mut PlanCache,
) -> SplitPlan {
    if cluster.is_heterogeneous() {
        optimize_heterogeneous(model, ctrl, profile, &cluster.gpu_counts(), b0, tm, lm, cfg)
    } else {
        let kind = cluster.kinds()[0];
        optimize_homogeneous_cached(
            model,
            ctrl,
            profile,
            kind,
            cluster.num_gpus(),
            b0,
            tm,
            lm,
            cfg,
            cache,
        )
    }
}

/// True if the plan satisfies the SLO budget and the optional cost and
/// goodput constraints.
pub fn plan_feasible(plan: &SplitPlan, cfg: &OptimizerConfig) -> bool {
    if plan.worst_case_latency > cfg.latency_budget() {
        return false;
    }
    if let Some(cap) = cfg.max_cost_per_sec {
        if plan.cost_per_sec() > cap + 1e-12 {
            return false;
        }
    }
    if let Some(min) = cfg.min_goodput {
        if plan.goodput < min {
            return false;
        }
    }
    true
}

/// Sweeps candidate batch sizes and returns the goodput-best feasible
/// `(b0, plan)`, or `None` if no batch size fits the SLO.
#[allow(clippy::too_many_arguments)]
pub fn best_plan_over_batches(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    cluster: &ClusterSpec,
    batches: &[f64],
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> Option<(f64, SplitPlan)> {
    let mut best: Option<(f64, SplitPlan)> = None;
    for &b0 in batches {
        let plan = plan_for_cluster(model, ctrl, profile, cluster, b0, tm, lm, cfg);
        if !plan_feasible(&plan, cfg) {
            continue;
        }
        let better = best
            .as_ref()
            .is_none_or(|(_, bp)| plan.goodput > bp.goodput);
        if better {
            best = Some((b0, plan));
        }
    }
    best
}

/// Smallest homogeneous GPU count achieving `target` goodput at batch
/// `b0` (fig. 14). Linear scan — goodput is monotone in the GPU count.
#[allow(clippy::too_many_arguments)]
pub fn min_gpus_for_goodput(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    max_gpus: usize,
    b0: f64,
    target: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> Option<(usize, SplitPlan)> {
    for n in 1..=max_gpus {
        let plan = optimize_homogeneous(model, ctrl, profile, gpu, n, b0, tm, lm, cfg);
        if plan.goodput >= target {
            return Some((n, plan));
        }
    }
    None
}

/// Cheapest heterogeneous allocation achieving `target` goodput at batch
/// `b0` (fig. 15). Returns `None` when the pool cannot reach the target.
#[allow(clippy::too_many_arguments)]
pub fn min_cost_for_goodput(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    counts: &BTreeMap<GpuKind, usize>,
    b0: f64,
    target: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> Option<SplitPlan> {
    min_cost_plan(model, ctrl, profile, counts, b0, target, tm, lm, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::{zoo, RampStyle};
    use e3_simcore::SimDuration;

    fn half_by_six() -> BatchProfile {
        let mut surv = vec![1.0];
        for k in 1..=12 {
            let s = if k <= 6 {
                1.0 - 0.5 * (k as f64 / 6.0)
            } else {
                0.5 - 0.1 * ((k - 6) as f64 / 6.0)
            };
            surv.push(s);
        }
        BatchProfile::new(surv)
    }

    fn setup() -> (
        e3_model::EeModel,
        RampController,
        LatencyModel,
        TransferModel,
    ) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new(), TransferModel::default())
    }

    #[test]
    fn dispatch_matches_cluster_shape() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let homo = ClusterSpec::paper_homogeneous_v100();
        let hetero = ClusterSpec::paper_heterogeneous();
        let p1 = plan_for_cluster(&m, &c, &half_by_six(), &homo, 8.0, &tm, &lm, &cfg);
        let p2 = plan_for_cluster(&m, &c, &half_by_six(), &hetero, 8.0, &tm, &lm, &cfg);
        p1.assert_valid(12);
        p2.assert_valid(12);
        assert!(p1.splits.iter().all(|s| s.gpu == GpuKind::V100));
    }

    #[test]
    fn slo_filters_large_batches() {
        let (m, c, lm, tm) = setup();
        // A tight SLO must select a small batch.
        let cfg = OptimizerConfig {
            slo: SimDuration::from_millis(30),
            ..Default::default()
        };
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let batches = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let (b_tight, _) =
            best_plan_over_batches(&m, &c, &half_by_six(), &cluster, &batches, &tm, &lm, &cfg)
                .expect("feasible");
        let cfg_loose = OptimizerConfig {
            slo: SimDuration::from_millis(1000),
            ..Default::default()
        };
        let (b_loose, _) = best_plan_over_batches(
            &m,
            &c,
            &half_by_six(),
            &cluster,
            &batches,
            &tm,
            &lm,
            &cfg_loose,
        )
        .expect("feasible");
        assert!(b_loose > b_tight, "loose {b_loose} tight {b_tight}");
    }

    #[test]
    fn impossible_slo_returns_none() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig {
            slo: SimDuration::from_micros(10),
            ..Default::default()
        };
        let cluster = ClusterSpec::paper_homogeneous_v100();
        assert!(best_plan_over_batches(
            &m,
            &c,
            &half_by_six(),
            &cluster,
            &[1.0, 2.0],
            &tm,
            &lm,
            &cfg
        )
        .is_none());
    }

    #[test]
    fn min_gpus_monotone_in_target() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let (n_lo, _) = min_gpus_for_goodput(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            46,
            8.0,
            2000.0,
            &tm,
            &lm,
            &cfg,
        )
        .expect("reachable");
        let (n_hi, plan) = min_gpus_for_goodput(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            46,
            8.0,
            6000.0,
            &tm,
            &lm,
            &cfg,
        )
        .expect("reachable");
        assert!(n_hi >= n_lo, "hi {n_hi} lo {n_lo}");
        assert!(plan.goodput >= 6000.0);
    }

    #[test]
    fn min_gpus_unreachable() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        assert!(min_gpus_for_goodput(
            &m,
            &c,
            &half_by_six(),
            GpuKind::K80,
            2,
            8.0,
            1.0e9,
            &tm,
            &lm,
            &cfg
        )
        .is_none());
    }
}
