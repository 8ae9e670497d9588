//! The planning entry points, and the one place a solver is chosen.
//!
//! * [`plan_for_cluster`] and [`plan_for_cluster_cached`] return the
//!   goodput-best plan for a cluster at batch `b0` (§3.2); the cached
//!   form warm-starts the homogeneous DP across re-plans.
//! * §5.3 fixes goodput and minimizes resources instead:
//!   [`min_gpus_for_goodput`] finds the fewest homogeneous GPUs
//!   (fig. 14), and [`crate::min_cost_for_goodput`] the cheapest
//!   heterogeneous allocation (fig. 15).
//! * [`plan_feasible`] is the one SLO, cost and goodput feasibility rule.
//!
//! The crate-private `solve` is the only code that picks between the
//! homogeneous DP ([`crate::optimize_homogeneous_cached`]) and the
//! heterogeneous search of [`crate::hetero`] from the kind count. Both
//! [`plan_for_cluster_cached`] and [`crate::ValueOracle`] plan through it.

use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::cache::PlanCache;
use crate::config::OptimizerConfig;
use crate::dp::optimize_homogeneous_cached;
use crate::hetero::{optimize_tabled, StageTables};
use crate::plan::SplitPlan;

/// Best plan on the nonzero per-kind GPU counts `kinds`: the homogeneous
/// DP through `plans` for one kind, the tabled heterogeneous search for
/// several. `tables` must be `None` or built for this model, profile,
/// batch and transfer model; it is filled on the first mixed-kind solve.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    kinds: &[(GpuKind, usize)],
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
    plans: &mut PlanCache,
    tables: &mut Option<StageTables>,
) -> SplitPlan {
    if let [(kind, n)] = kinds {
        return optimize_homogeneous_cached(
            model, ctrl, profile, *kind, *n, b0, tm, lm, cfg, plans,
        );
    }
    let tables = tables.get_or_insert_with(|| StageTables::new(model, profile, b0, tm));
    optimize_tabled(model, ctrl, profile, kinds, b0, tm, lm, cfg, tables).0
}

/// The goodput-best plan for `cluster` at batch `b0`: a cold
/// [`plan_for_cluster_cached`].
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

/// The goodput-best plan for `cluster` at batch `b0`, with warm
/// starting: homogeneous solves run through `cache` (see [`PlanCache`]),
/// so a control loop re-planning every window pays for the DP only when
/// its inputs actually change. A mixed-kind cluster builds its own
/// per-kind stage tables and runs the pruned boundary × kind search of
/// [`crate::hetero`]. Plans are bit-identical to a cold solve.
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
    let kinds: Vec<(GpuKind, usize)> = cluster.gpu_counts().into_iter().collect();
    solve(
        model, ctrl, profile, &kinds, b0, tm, lm, cfg, cache, &mut None,
    )
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

/// Smallest homogeneous GPU count achieving `target` goodput at batch
/// `b0` (fig. 14). Linear scan — goodput is monotone in the GPU count —
/// through one [`PlanCache`], so each step extends the DP by one column.
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
    let mut cache = PlanCache::new();
    for n in 1..=max_gpus {
        let plan =
            optimize_homogeneous_cached(model, ctrl, profile, gpu, n, b0, tm, lm, cfg, &mut cache);
        if plan.goodput >= target {
            return Some((n, plan));
        }
    }
    None
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

    /// The goodput-best batch among `batches` whose plan passes
    /// [`plan_feasible`] under an SLO of `slo`, if any does.
    fn best_feasible_batch(slo: SimDuration, batches: &[f64]) -> Option<f64> {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig {
            slo,
            ..Default::default()
        };
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let mut best: Option<(f64, f64)> = None;
        for &b0 in batches {
            let plan = plan_for_cluster(&m, &c, &half_by_six(), &cluster, b0, &tm, &lm, &cfg);
            if plan_feasible(&plan, &cfg) && best.is_none_or(|(_, g)| plan.goodput > g) {
                best = Some((b0, plan.goodput));
            }
        }
        best.map(|(b0, _)| b0)
    }

    #[test]
    fn slo_filters_large_batches() {
        // A tight SLO must select a small batch.
        let batches = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let b_tight =
            best_feasible_batch(SimDuration::from_millis(30), &batches).expect("feasible");
        let b_loose =
            best_feasible_batch(SimDuration::from_millis(1000), &batches).expect("feasible");
        assert!(b_loose > b_tight, "loose {b_loose} tight {b_tight}");
    }

    #[test]
    fn impossible_slo_returns_none() {
        assert_eq!(
            best_feasible_batch(SimDuration::from_micros(10), &[1.0, 2.0]),
            None
        );
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
