//! Exact DP for homogeneous clusters (§3.2, §3.2.1, §3.2.2).
//!
//! State: `A[j][m]` — the best objective for serving layers `0..j` using
//! at most `m` GPUs. A transition chooses the last split `s..j` and its
//! replica count `m'`:
//!
//! * **pipelined** (§3.2.2): `A[j][m] = min over s, m' of
//!   max(A[s][m−m'], Tx(s), T_eff(s..j, m'))` — the steady-state pipeline
//!   bottleneck, where `T_eff` is the stage's survival-weighted,
//!   replica-shared per-input-batch time;
//! * **serial** (eq. 1, the model-parallelism-OFF ablation): the splits
//!   run back-to-back on the *same* data-parallel GPUs, so only the cut
//!   positions matter and the objective is the sum of survival-weighted
//!   stage times (refusion between stages restores the batch to `b0`,
//!   which is what distinguishes this mode from a naive EE baseline).

// The recurrences below mirror the paper's index notation (A[j][m],
// t1[s][j]); explicit indices read better than iterator chains here.
#![allow(clippy::needless_range_loop)]

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};
use e3_simcore::SimDuration;

use crate::cache::PlanCache;
use crate::config::OptimizerConfig;
use crate::plan::{Split, SplitPlan};
use crate::stage::{boundary_transfer_surviving, stage_cost, stage_fits};

/// Optimizes splits for `num_gpus` identical `gpu` devices at input batch
/// `b0`.
///
/// Returns the goodput-optimal plan for the given batch size. The plan's
/// `worst_case_latency` is reported for SLO filtering by the caller; this
/// function itself always returns the best plan it can construct.
///
/// This is the cold-solve entry point; repeated planners should hold a
/// [`PlanCache`] and call [`optimize_homogeneous_cached`], which returns
/// identical plans while skipping or shrinking the DP on re-plans.
///
/// # Panics
///
/// Panics if `num_gpus == 0` or `b0 <= 0`.
#[allow(clippy::too_many_arguments)] // the DP inputs of fig. 6
pub fn optimize_homogeneous(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    num_gpus: usize,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> SplitPlan {
    let mut cache = PlanCache::new();
    optimize_homogeneous_cached(
        model, ctrl, profile, gpu, num_gpus, b0, tm, lm, cfg, &mut cache,
    )
}

/// [`optimize_homogeneous`] with warm starting: DP tables live in
/// `cache` across calls, keyed by the exact stage-latency inputs, so a
/// re-plan whose profile/batch/GPU kind are unchanged reuses (or merely
/// extends) the previous solve. Returns plans bit-identical to the cold
/// path in every case.
///
/// # Panics
///
/// Panics if `num_gpus == 0` or `b0 <= 0`.
#[allow(clippy::too_many_arguments)]
pub fn optimize_homogeneous_cached(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    num_gpus: usize,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
    cache: &mut PlanCache,
) -> SplitPlan {
    assert!(num_gpus >= 1, "need at least one GPU");
    assert!(b0 > 0.0, "batch must be positive");
    assert_eq!(profile.num_layers(), model.num_layers(), "profile mismatch");

    if cfg.pipelining {
        pipelined_dp(model, ctrl, profile, gpu, num_gpus, b0, tm, lm, cfg, cache)
    } else {
        serial_dp(model, ctrl, profile, gpu, num_gpus, b0, lm, cfg)
    }
}

/// The per-range one-replica stage table every split search reads:
/// `t1[s][j]` is the survival-weighted batch time of layers `s..j` on one
/// replica, `INF` where the range overflows device memory (when
/// `check_memory`). The pipelined DP's cache keys on it.
pub(crate) fn fill_t1(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    b0: f64,
    lm: &LatencyModel,
    check_memory: bool,
) -> Vec<Vec<f64>> {
    let l = model.num_layers();
    let mut t1 = vec![vec![f64::INFINITY; l + 1]; l + 1];
    for s in 0..l {
        for j in s + 1..=l {
            if check_memory && !stage_fits(model, s..j, b0, gpu) {
                continue;
            }
            let sc = stage_cost(model, ctrl, profile, s..j, b0, gpu, 1, lm);
            t1[s][j] = sc.effective_time.as_secs_f64();
        }
    }
    t1
}

#[allow(clippy::too_many_arguments)]
fn pipelined_dp(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    num_gpus: usize,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
    cache: &mut PlanCache,
) -> SplitPlan {
    let l = model.num_layers();
    let m = num_gpus;

    // The stage table is cheap (independent of the GPU count) and *is*
    // the cache key: recomputing it every call makes invalidation exact.
    // Memory is a first-class dimension: a range whose weights plus
    // activations overflow the device is not a legal transition. If that
    // leaves no plan at all, retry unconstrained (best effort).
    //
    // tx[s-1] = surviving-batch transfer entering the boundary at layer
    // s. In the pipeline's steady state each receiving replica absorbs
    // one batch every `m'` cycles, so the DP divides by the last stage's
    // replica count.
    let tx: Vec<f64> = (1..l)
        .map(|s| boundary_transfer_surviving(model, profile, s, b0, tm).as_secs_f64())
        .collect();
    let max_splits = cfg.max_splits.max(1);

    let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, cfg.enforce_memory);
    cache.prepare(&t1, &tx, max_splits, m);
    if cfg.enforce_memory && !cache.current().feasible(m) {
        // No memory-feasible chain exists under the split/GPU budget:
        // fall back to the unconstrained search (best effort).
        let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, false);
        cache.prepare(&t1, &tx, max_splits, m);
    }
    // Reconstruct using all GPUs (more replicas never hurt the
    // bottleneck), charging the realization-jitter margin per extra
    // stage when picking the stage count.
    let stages = cache.current().reconstruct(m, cfg.stage_overhead_frac);

    build_plan(model, ctrl, profile, gpu, b0, tm, lm, cfg, &stages, true)
}

#[allow(clippy::too_many_arguments)]
fn serial_dp(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    num_gpus: usize,
    b0: f64,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> SplitPlan {
    let l = model.num_layers();
    // Serial mode runs every split on the same data-parallel GPUs.
    // Re-forming a batch at a cut point still costs something: outputs
    // are gathered across peers over the machine's shared PCIe.
    let gather = TransferModel::new(e3_hardware::LinkKind::Pcie);
    // c[j] = min total survival-weighted time for layers 0..j; splits
    // bounded by max_splits via layered DP.
    let max_splits = cfg.max_splits.max(1);
    const INF: f64 = f64::INFINITY;
    let tx: Vec<f64> = (0..=l)
        .map(|s| {
            if s == 0 || s == l {
                0.0
            } else {
                boundary_transfer_surviving(model, profile, s, b0, &gather).as_secs_f64()
            }
        })
        .collect();
    let run_dp = |t1: &[Vec<f64>]| -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
        let mut best = vec![vec![INF; l + 1]; max_splits + 1];
        let mut par = vec![vec![0usize; l + 1]; max_splits + 1];
        for k in 0..=max_splits {
            best[k][0] = 0.0;
        }
        for k in 1..=max_splits {
            for j in 1..=l {
                best[k][j] = best[k - 1][j];
                par[k][j] = par[k - 1][j];
                for s in 0..j {
                    let cand = best[k - 1][s] + tx[s] + t1[s][j];
                    if cand < best[k][j] {
                        best[k][j] = cand;
                        par[k][j] = s;
                    }
                }
            }
        }
        (best, par)
    };
    // Memory is first-class here too: infeasible ranges are INF and can
    // never enter a finite chain; retry unconstrained if nothing fits.
    let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, cfg.enforce_memory);
    let (mut best, mut par) = run_dp(&t1);
    if cfg.enforce_memory && !best[max_splits][l].is_finite() {
        let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, false);
        (best, par) = run_dp(&t1);
    }
    assert!(
        best[max_splits][l].is_finite(),
        "serial DP failed to cover the model"
    );
    let mut cuts = Vec::new();
    let mut j = l;
    let mut k = max_splits;
    while j > 0 {
        let s = par[k][j];
        cuts.push((s, j, num_gpus));
        j = s;
        if k > 1 {
            k -= 1;
        }
    }
    cuts.reverse();
    build_plan(
        model, ctrl, profile, gpu, b0, &gather, lm, cfg, &cuts, false,
    )
}

/// Assembles a [`SplitPlan`] from stage tuples `(start, end, replicas)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_plan(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
    stages: &[(usize, usize, usize)],
    pipelined: bool,
) -> SplitPlan {
    build_plan_hetero(
        model,
        ctrl,
        profile,
        b0,
        tm,
        lm,
        cfg,
        &stages
            .iter()
            .map(|&(s, j, m)| (s, j, m, gpu))
            .collect::<Vec<_>>(),
        pipelined,
    )
}

/// Assembles a [`SplitPlan`] from `(start, end, replicas, gpu)` stages.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_plan_hetero(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
    stages: &[(usize, usize, usize, GpuKind)],
    pipelined: bool,
) -> SplitPlan {
    let mut splits = Vec::with_capacity(stages.len());
    // Per-cycle effective transfer cost at each boundary (amortized over
    // the receiving stage's replicas when pipelined) and the raw one-batch
    // transfer time (what one request actually experiences on the wire).
    let mut transfers = Vec::new();
    let mut raw_transfers = Vec::new();
    for (idx, &(s, j, m, gpu)) in stages.iter().enumerate() {
        let sc = stage_cost(model, ctrl, profile, s..j, b0, gpu, m, lm);
        if idx > 0 {
            let raw = boundary_transfer_surviving(model, profile, s, b0, tm);
            raw_transfers.push(raw);
            let effective = if pipelined {
                raw.mul_f64(1.0 / m as f64)
            } else {
                raw
            };
            transfers.push(effective);
        }
        splits.push(Split {
            layers: s..j,
            gpu,
            replicas: m,
            batch: b0,
            batch_out: sc.batch_out,
            batch_time: sc.batch_time,
            effective_time: sc.effective_time,
        });
    }
    let cycle_time = if pipelined {
        splits
            .iter()
            .map(|s| s.effective_time)
            .chain(transfers.iter().copied())
            .fold(SimDuration::ZERO, SimDuration::max)
    } else {
        splits
            .iter()
            .map(|s| s.effective_time)
            .chain(transfers.iter().copied())
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    };
    // Worst-case end-to-end latency: batch formation, the serial path of
    // one batch through every stage and link, plus up to one cycle of
    // queueing per stage boundary (refusion wait / in-flight batch).
    let serial_path = splits
        .iter()
        .map(|s| s.batch_time)
        .chain(raw_transfers.iter().copied())
        .fold(SimDuration::ZERO, |acc, d| acc + d);
    let worst_case_latency =
        cfg.formation_delay(b0) + serial_path + cycle_time.mul_f64(splits.len() as f64);
    // Goodput is b0 per cycle in both modes: effective times are already
    // survival-weighted and replica-shared, so the serial sum equals the
    // per-GPU batch time divided by the data-parallel width.
    let goodput = if cycle_time.is_zero() {
        0.0
    } else {
        b0 / cycle_time.as_secs_f64()
    };
    let plan = SplitPlan {
        splits,
        transfers,
        cycle_time,
        worst_case_latency,
        goodput,
        pipelined,
    };
    plan.assert_valid(model.num_layers());
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::{zoo, RampStyle};

    fn setup() -> (EeModel, RampController, LatencyModel, TransferModel) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new(), TransferModel::default())
    }

    /// A profile shaped like the measured SST-2 shrinkage (fig. 3): half
    /// the batch gone shortly after mid-model, ~10% finishing the model.
    fn half_by_six() -> BatchProfile {
        BatchProfile::new(vec![
            1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
        ])
    }

    #[test]
    fn stock_model_yields_single_split() {
        let (_, _, lm, tm) = setup();
        let stock = zoo::bert_base();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let profile = BatchProfile::no_exits(12);
        let plan = optimize_homogeneous(
            &stock,
            &ctrl,
            &profile,
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        assert_eq!(plan.num_splits(), 1, "{plan}");
        assert_eq!(plan.gpus_used(), 16);
        // fig. 7 anchor: ~6400 samples/s for BERT-BASE b=8 on 16 V100.
        assert!(
            (5800.0..7200.0).contains(&plan.goodput),
            "goodput={}",
            plan.goodput
        );
    }

    #[test]
    fn ee_profile_induces_multiple_splits() {
        let (m, c, lm, tm) = setup();
        let plan = optimize_homogeneous(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        assert!(plan.num_splits() >= 2, "{plan}");
        // Early splits should hold at least as many replicas as late ones
        // (they process full batches; later stages see half the work).
        let first = &plan.splits[0];
        let last = plan.splits.last().expect("nonempty");
        assert!(first.replicas >= last.replicas, "{plan}");
    }

    #[test]
    fn e3_beats_stock_on_ee_profile() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let plan = optimize_homogeneous(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &cfg,
        );
        let stock = zoo::bert_base();
        let ctrl0 = RampController::all_enabled(0, RampStyle::Independent);
        let stock_plan = optimize_homogeneous(
            &stock,
            &ctrl0,
            &BatchProfile::no_exits(12),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &cfg,
        );
        assert!(
            plan.goodput > stock_plan.goodput,
            "E3 {} vs stock {}",
            plan.goodput,
            stock_plan.goodput
        );
    }

    #[test]
    fn pipelining_beats_serial() {
        let (m, c, lm, tm) = setup();
        let on = optimize_homogeneous(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        let off = optimize_homogeneous(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &OptimizerConfig {
                pipelining: false,
                ..Default::default()
            },
        );
        assert!(
            on.goodput > off.goodput,
            "on={} off={}",
            on.goodput,
            off.goodput
        );
    }

    #[test]
    fn single_gpu_single_split() {
        let (m, c, lm, tm) = setup();
        let plan = optimize_homogeneous(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            1,
            4.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        assert_eq!(plan.num_splits(), 1);
        assert_eq!(plan.gpus_used(), 1);
    }

    #[test]
    fn max_splits_respected() {
        let (m, c, lm, tm) = setup();
        for k in 1..=3 {
            let plan = optimize_homogeneous(
                &m,
                &c,
                &half_by_six(),
                GpuKind::V100,
                16,
                8.0,
                &tm,
                &lm,
                &OptimizerConfig {
                    max_splits: k,
                    ..Default::default()
                },
            );
            assert!(plan.num_splits() <= k, "k={k} {plan}");
        }
    }

    #[test]
    fn goodput_monotone_in_gpus() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let mut prev = 0.0;
        for g in [2usize, 4, 8, 16] {
            let plan = optimize_homogeneous(
                &m,
                &c,
                &half_by_six(),
                GpuKind::V100,
                g,
                8.0,
                &tm,
                &lm,
                &cfg,
            );
            assert!(
                plan.goodput >= prev,
                "goodput dropped at g={g}: {} < {prev}",
                plan.goodput
            );
            prev = plan.goodput;
        }
    }

    #[test]
    fn memory_constraint_forces_extra_splits() {
        // Llama-class weights (~4.4 GB fp16) plus double-buffered 4 MiB
        // activations at b=1000 overflow a 12 GiB K80 as one stage, but
        // halves fit. With memory enforced the DP must cut the model;
        // unconstrained it happily keeps one (infeasible) split.
        let (_, _, lm, tm) = setup();
        let m = zoo::llama31_8b();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let profile = BatchProfile::no_exits(m.num_layers());
        let cfg = OptimizerConfig::default();
        let free = OptimizerConfig {
            enforce_memory: false,
            ..cfg
        };
        let constrained =
            optimize_homogeneous(&m, &ctrl, &profile, GpuKind::K80, 4, 1000.0, &tm, &lm, &cfg);
        let unconstrained = optimize_homogeneous(
            &m,
            &ctrl,
            &profile,
            GpuKind::K80,
            4,
            1000.0,
            &tm,
            &lm,
            &free,
        );
        assert!(
            constrained.memory_feasible(&m),
            "constrained plan must fit: {constrained}"
        );
        assert!(
            !unconstrained.memory_feasible(&m),
            "sanity: the unconstrained plan should overflow: {unconstrained}"
        );
        assert!(
            constrained.num_splits() > unconstrained.num_splits(),
            "memory should force cuts: {constrained} vs {unconstrained}"
        );
    }

    #[test]
    fn memory_infeasible_everywhere_falls_back() {
        // At b=3000 the double-buffered activations alone (~25 GB) exceed
        // the K80's budget for every layer range, so no feasible chain
        // exists; the optimizer must fall back to the unconstrained plan
        // rather than panic or return nothing.
        let (_, _, lm, tm) = setup();
        let m = zoo::llama31_8b();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let profile = BatchProfile::no_exits(m.num_layers());
        let cfg = OptimizerConfig::default();
        let free = OptimizerConfig {
            enforce_memory: false,
            ..cfg
        };
        let fallback =
            optimize_homogeneous(&m, &ctrl, &profile, GpuKind::K80, 4, 3000.0, &tm, &lm, &cfg);
        let unconstrained = optimize_homogeneous(
            &m,
            &ctrl,
            &profile,
            GpuKind::K80,
            4,
            3000.0,
            &tm,
            &lm,
            &free,
        );
        assert_eq!(fallback, unconstrained);
    }

    #[test]
    fn serial_mode_honors_memory_too() {
        let (_, _, lm, tm) = setup();
        let m = zoo::llama31_8b();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let profile = BatchProfile::no_exits(m.num_layers());
        let cfg = OptimizerConfig {
            pipelining: false,
            ..Default::default()
        };
        let plan =
            optimize_homogeneous(&m, &ctrl, &profile, GpuKind::K80, 4, 1000.0, &tm, &lm, &cfg);
        assert!(plan.num_splits() >= 2, "{plan}");
        assert!(plan.memory_feasible(&m), "{plan}");
    }

    #[test]
    fn worst_case_latency_grows_with_batch() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let wc = |b: f64| {
            optimize_homogeneous(&m, &c, &half_by_six(), GpuKind::V100, 16, b, &tm, &lm, &cfg)
                .worst_case_latency
        };
        assert!(wc(16.0) > wc(4.0));
    }

    /// The original O(k·l²·m²) linear-scan pipelined DP, kept verbatim as
    /// an executable specification. The production path replaces the
    /// inner replica-count scan with a binary search over the crossing
    /// point of the (monotone) prefix and stage terms and fills tables
    /// column-by-column for warm starting; this reference pins the claim
    /// that both transformations are bit-exact, not approximations.
    #[allow(clippy::too_many_arguments)]
    fn reference_pipelined(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        gpu: GpuKind,
        num_gpus: usize,
        b0: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> SplitPlan {
        let l = model.num_layers();
        let m = num_gpus;
        let tx: Vec<f64> = (1..l)
            .map(|s| boundary_transfer_surviving(model, profile, s, b0, tm).as_secs_f64())
            .collect();
        const INF: f64 = f64::INFINITY;
        let max_splits = cfg.max_splits.max(1);
        type DpTables = (Vec<Vec<Vec<f64>>>, Vec<Vec<Vec<(usize, usize)>>>);
        let run_dp = |t1: &[Vec<f64>]| -> DpTables {
            let mut best = vec![vec![vec![INF; m + 1]; l + 1]; max_splits + 1];
            let mut par = vec![vec![vec![(0usize, 0usize); m + 1]; l + 1]; max_splits + 1];
            for k in 0..=max_splits {
                for g in 0..=m {
                    best[k][0][g] = 0.0;
                }
            }
            for k in 1..=max_splits {
                for j in 1..=l {
                    for g in 1..=m {
                        if best[k - 1][j][g] < best[k][j][g] {
                            best[k][j][g] = best[k - 1][j][g];
                            par[k][j][g] = par[k - 1][j][g];
                        }
                        for s in 0..j {
                            if !t1[s][j].is_finite() {
                                continue;
                            }
                            for mp in 1..=g {
                                let prefix_g = g - mp;
                                if s > 0 && prefix_g == 0 {
                                    continue;
                                }
                                let prefix = best[k - 1][s][prefix_g];
                                if !prefix.is_finite() {
                                    continue;
                                }
                                let link = if s == 0 { 0.0 } else { tx[s - 1] / mp as f64 };
                                let stage = t1[s][j] / mp as f64;
                                let cand = prefix.max(link).max(stage);
                                if cand < best[k][j][g] {
                                    best[k][j][g] = cand;
                                    par[k][j][g] = (s, mp);
                                }
                            }
                        }
                    }
                }
            }
            (best, par)
        };
        let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, cfg.enforce_memory);
        let (mut best, mut par) = run_dp(&t1);
        if cfg.enforce_memory && !(1..=max_splits).any(|k| best[k][l][m].is_finite()) {
            let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, false);
            (best, par) = run_dp(&t1);
        }
        let mut k_star = 1;
        let mut best_pen = f64::INFINITY;
        for k in 1..=max_splits {
            let pen = best[k][l][m] * (1.0 + cfg.stage_overhead_frac * (k as f64 - 1.0));
            if pen < best_pen {
                best_pen = pen;
                k_star = k;
            }
        }
        let mut stages_rev: Vec<(usize, usize, usize)> = Vec::new();
        let mut k = k_star;
        let mut j = l;
        let mut g = m;
        while j > 0 {
            let (s, mp) = par[k][j][g];
            assert!(mp >= 1, "reconstruction hit an unset state");
            stages_rev.push((s, j, mp));
            j = s;
            g -= mp;
            if k > 1 {
                k -= 1;
            }
        }
        stages_rev.reverse();
        build_plan(
            model,
            ctrl,
            profile,
            gpu,
            b0,
            tm,
            lm,
            cfg,
            &stages_rev,
            true,
        )
    }

    #[test]
    fn binary_search_dp_matches_linear_scan_reference() {
        let (m, c, lm, tm) = setup();
        let profiles = [
            half_by_six(),
            BatchProfile::no_exits(12),
            // Steep early shrinkage: most of the batch gone by layer 3.
            BatchProfile::new(vec![
                1.0, 0.6, 0.35, 0.2, 0.15, 0.12, 0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.05,
            ]),
        ];
        for profile in &profiles {
            for gpus in [1usize, 2, 3, 5, 8, 16, 33] {
                for max_splits in [1usize, 2, 4] {
                    let cfg = OptimizerConfig {
                        max_splits,
                        ..Default::default()
                    };
                    let fast = optimize_homogeneous(
                        &m,
                        &c,
                        profile,
                        GpuKind::V100,
                        gpus,
                        8.0,
                        &tm,
                        &lm,
                        &cfg,
                    );
                    let slow = reference_pipelined(
                        &m,
                        &c,
                        profile,
                        GpuKind::V100,
                        gpus,
                        8.0,
                        &tm,
                        &lm,
                        &cfg,
                    );
                    assert_eq!(fast, slow, "gpus={gpus} max_splits={max_splits}");
                }
            }
        }
    }

    #[test]
    fn binary_search_dp_matches_reference_under_memory_pressure() {
        // Memory-infeasible ranges put INF holes in t1, which is the
        // hard case for the crossing-point argument: the binary search
        // must agree with the scan even when prefixes are infeasible.
        let (_, _, lm, tm) = setup();
        let m = zoo::llama31_8b();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let profile = BatchProfile::no_exits(m.num_layers());
        let cfg = OptimizerConfig::default();
        for (gpus, b0) in [(4usize, 1000.0), (6, 1000.0), (4, 3000.0)] {
            let fast =
                optimize_homogeneous(&m, &ctrl, &profile, GpuKind::K80, gpus, b0, &tm, &lm, &cfg);
            let slow =
                reference_pipelined(&m, &ctrl, &profile, GpuKind::K80, gpus, b0, &tm, &lm, &cfg);
            assert_eq!(fast, slow, "gpus={gpus} b0={b0}");
        }
    }
}
