//! The planning entry points, and the one place a solver is chosen.
//!
//! * [`plan_for_cluster`] and [`optimize_heterogeneous_with_stats`]
//!   return the goodput-best plan for a cluster or a per-kind GPU pool
//!   at batch `b0` (§3.2); the latter also reports the search's pruning
//!   counts.
//! * §5.3 fixes goodput and minimizes resources instead:
//!   [`min_gpus_for_goodput`] finds the fewest homogeneous GPUs
//!   (fig. 14), and [`crate::min_cost_for_goodput`] the cheapest
//!   heterogeneous allocation (fig. 15).
//! * [`plan_feasible`] is the one feasibility rule: the SLO budget.
//!
//! The crate-private `solve` is the only code that picks a formulation.
//! Pipelined plans, on one GPU kind or several, come from the boundary ×
//! kind search of [`crate::hetero`]. The model-parallelism-OFF ablation
//! (`pipelining: false`, eq. 1) sums stage times instead, over the same
//! boundary sets. Every entry point and [`crate::ValueOracle`] plan
//! through it.

use std::collections::BTreeMap;

use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, LinkKind, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::config::OptimizerConfig;
use crate::hetero::{
    available, build_plan, for_each_boundary_set, optimize_tabled, stage_range, SearchStats,
    StageTables,
};
use crate::plan::SplitPlan;

/// Best plan on the nonzero per-kind GPU counts `kinds`: the serial sum
/// objective without pipelining, the split search with it. `tables` must
/// be built for this model, profile, batch and transfer model; the
/// search fills the kinds it needs.
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
    tables: &mut StageTables,
) -> (SplitPlan, SearchStats) {
    if cfg.pipelining {
        return optimize_tabled(model, ctrl, profile, kinds, b0, tm, lm, cfg, tables);
    }
    // Serial mode cannot exploit heterogeneity (every split runs on the
    // same devices); take the best kind.
    let plan = kinds
        .iter()
        .map(|&(kind, n)| serial_plan(model, ctrl, profile, kind, n, b0, lm, cfg))
        .max_by(|a, b| a.goodput.partial_cmp(&b.goodput).expect("finite"))
        .expect("no GPUs available");
    (plan, SearchStats::default())
}

/// The serial plan (eq. 1, the model-parallelism-OFF ablation) on `n`
/// GPUs of `kind`: the splits run back to back on the same data-parallel
/// GPUs, so only the cut positions matter and the objective is the sum
/// of survival-weighted stage times and the gathers between them
/// (refusion between stages restores the batch to `b0`, which is what
/// distinguishes this mode from a naive EE baseline). The least sum over
/// every boundary set wins, the first found on ties. A range that
/// overflows the device is excluded under `enforce_memory`, unless
/// nothing fits at all.
#[allow(clippy::too_many_arguments)]
fn serial_plan(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    kind: GpuKind,
    n: usize,
    b0: f64,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> SplitPlan {
    assert!(b0 > 0.0, "batch must be positive");
    let l = model.num_layers();
    // Re-forming a batch at a cut point still costs something: outputs
    // are gathered across peers over the machine's shared PCIe.
    let gather = TransferModel::new(LinkKind::Pcie);
    let best_cuts = |check_memory: bool| {
        let mut tables = StageTables::new(model, profile, b0, &gather, check_memory);
        tables.add_kinds(model, ctrl, profile, b0, lm, &[(kind, n)]);
        let t1 = tables.t1(kind);
        let mut best = (f64::INFINITY, Vec::new());
        for_each_boundary_set(l, cfg.max_splits.max(1), |cuts| {
            let total = (0..=cuts.len()).fold(0.0, |acc, i| {
                let (a, b) = stage_range(cuts, l, i);
                acc + tables.tx(a) + t1[a][b]
            });
            if total < best.0 {
                best = (total, cuts.to_vec());
            }
        });
        best
    };
    let (mut total, mut cuts) = best_cuts(cfg.enforce_memory);
    if !total.is_finite() {
        (total, cuts) = best_cuts(false);
    }
    assert!(total.is_finite(), "serial search failed to cover the model");
    let stages: Vec<_> = (0..=cuts.len())
        .map(|i| {
            let (a, b) = stage_range(&cuts, l, i);
            (a, b, n, kind)
        })
        .collect();
    build_plan(model, ctrl, profile, b0, &gather, lm, &stages, false)
}

/// The goodput-best plan on the per-kind GPU counts `counts` at batch
/// `b0`, and how much of the kind-assignment space the search walked
/// (none in serial mode).
#[allow(clippy::too_many_arguments)]
pub fn optimize_heterogeneous_with_stats(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    counts: &BTreeMap<GpuKind, usize>,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> (SplitPlan, SearchStats) {
    let mut tables = StageTables::new(model, profile, b0, tm, cfg.enforce_memory);
    let kinds = available(counts);
    solve(model, ctrl, profile, &kinds, b0, tm, lm, cfg, &mut tables)
}

/// The goodput-best plan for `cluster` at batch `b0`.
#[allow(clippy::too_many_arguments)] // the planning inputs of fig. 6
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
    let counts = cluster.gpu_counts();
    optimize_heterogeneous_with_stats(model, ctrl, profile, &counts, b0, tm, lm, cfg).0
}

/// True if the plan's worst-case latency fits the SLO budget.
pub fn plan_feasible(plan: &SplitPlan, cfg: &OptimizerConfig) -> bool {
    plan.worst_case_latency <= cfg.latency_budget()
}

/// Smallest homogeneous GPU count achieving `target` goodput at batch
/// `b0` (fig. 14). Linear scan — goodput is monotone in the GPU count —
/// over one set of stage tables, which no step changes.
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
    let mut tables = StageTables::new(model, profile, b0, tm, cfg.enforce_memory);
    for n in 1..=max_gpus {
        let (plan, _) = solve(
            model,
            ctrl,
            profile,
            &[(gpu, n)],
            b0,
            tm,
            lm,
            cfg,
            &mut tables,
        );
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

    /// A profile shaped like the measured SST-2 shrinkage (fig. 3): half
    /// the batch gone shortly after mid-model, ~10% finishing the model.
    fn measured_sst2() -> BatchProfile {
        BatchProfile::new(vec![
            1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
        ])
    }

    /// The plan for `n` GPUs of `kind`.
    fn plan_on(
        model: &EeModel,
        profile: &BatchProfile,
        kind: GpuKind,
        n: usize,
        b0: f64,
        cfg: &OptimizerConfig,
    ) -> SplitPlan {
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let (lm, tm) = (LatencyModel::new(), TransferModel::default());
        let counts = BTreeMap::from([(kind, n)]);
        optimize_heterogeneous_with_stats(model, &ctrl, profile, &counts, b0, &tm, &lm, cfg).0
    }

    #[test]
    fn pipelining_beats_serial() {
        let m = zoo::deebert();
        let on = plan_on(
            &m,
            &measured_sst2(),
            GpuKind::V100,
            16,
            8.0,
            &Default::default(),
        );
        let serial = OptimizerConfig {
            pipelining: false,
            ..Default::default()
        };
        let off = plan_on(&m, &measured_sst2(), GpuKind::V100, 16, 8.0, &serial);
        assert!(!off.pipelined);
        assert!(
            on.goodput > off.goodput,
            "on={} off={}",
            on.goodput,
            off.goodput
        );
    }

    #[test]
    fn serial_mode_honors_memory_too() {
        // Llama-class weights plus activations at b=1000 overflow a K80
        // as one stage, so the serial plan must cut the model too.
        let m = zoo::llama31_8b();
        let profile = BatchProfile::no_exits(m.num_layers());
        let cfg = OptimizerConfig {
            pipelining: false,
            ..Default::default()
        };
        let plan = plan_on(&m, &profile, GpuKind::K80, 4, 1000.0, &cfg);
        assert!(plan.num_splits() >= 2, "{plan}");
        assert!(plan.memory_feasible(&m), "{plan}");
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
