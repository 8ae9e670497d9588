//! Autoregressive deployment planning (figs. 10–12) with memory as a
//! first-class dimension.
//!
//! The classic DP in [`crate::dp`] plans per-*sample* pipelines. An
//! autoregressive deployment is shaped differently: the unit of work is
//! one generated *token*, the encoder cost amortizes over a request's
//! whole output, and — decisively — every resident sequence pins a KV
//! cache that grows with each generated token. This module searches the
//! (boundary, replica split) space for a two-stage continuous-batching
//! deployment and rejects candidates whose replicas cannot hold their
//! split's weights, activations, *and* a useful KV budget:
//!
//! * **weights + activations** must fit the device (same rule the DP
//!   applies, via [`MemoryFootprint::fits`]);
//! * the leftover memory, divided by the split's prorated per-token KV
//!   growth ([`e3_model::AutoRegSpec::kv_bytes_per_token_in`]), must
//!   admit at least one full batch of resident sequences — otherwise a
//!   continuous-batching scheduler would thrash on admission/preemption
//!   before reaching its target width.
//!
//! The winner minimizes the steady-state pipeline bottleneck
//! `max(t_a/m_a, f·t_b/m_b)` where `f` is token survival at the cut. A
//! single-stage (no-cut) deployment is always a candidate; if nothing is
//! memory-feasible the planner still returns the best-effort plan with
//! [`AutoRegSplitPlan::memory_feasible`] set to `false`.
//!
//! The same pricing splits the replicas of E3's LLM deployments, whose
//! cut is chosen elsewhere: [`replica_split`] runs the planner's
//! replica-split search at one fixed cut, without the memory checks.

use std::ops::Range;

use e3_hardware::memory::{params_from_work_us, KvCacheSpec, MemoryFootprint};
use e3_hardware::{GpuKind, LatencyModel};
use e3_model::{AutoRegSpec, BatchProfile, EeModel, RampController};

/// A planned autoregressive deployment on `n_gpus` identical devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoRegSplitPlan {
    /// Decoder cut (absolute layer index), or `None` for single-stage.
    pub boundary: Option<usize>,
    /// Replicas serving layers before the cut (all of them when
    /// `boundary` is `None`).
    pub replicas_a: usize,
    /// Replicas serving layers at/after the cut (0 when single-stage).
    pub replicas_b: usize,
    /// Per-replica KV budget (resident tokens) on the first stage.
    pub kv_capacity_a: usize,
    /// Per-replica KV budget on the second stage (0 when single-stage).
    pub kv_capacity_b: usize,
    /// Estimated steady-state pipeline bottleneck per token batch, secs.
    pub bottleneck_secs: f64,
    /// Whether the chosen plan passed the weight/activation/KV checks.
    /// `false` means best-effort: nothing feasible existed.
    pub memory_feasible: bool,
}

/// Memory footprint of one autoregressive stage. The lm-head projection
/// is counted in every stage: the tail needs it to emit tokens, and any
/// stage paying ramp costs reuses the same projection for its exits
/// (EE-LLM ramps share the head weights rather than duplicating them).
fn ar_footprint(model: &EeModel, ar: &AutoRegSpec, layers: Range<usize>) -> MemoryFootprint {
    let params: f64 = layers
        .clone()
        .map(|k| params_from_work_us(model.layers()[k].work_us))
        .sum::<f64>()
        + params_from_work_us(ar.lm_head.work_us);
    let widest = layers
        .map(|k| model.layers()[k].output_bytes as f64)
        .fold(0.0f64, f64::max);
    MemoryFootprint::new(params, widest)
}

/// Per-replica KV token budget for `layers` at batch `b0`, or `None`
/// when the stage is memory-infeasible (weights/activations overflow, or
/// the KV budget cannot hold one full batch of resident sequences).
fn stage_kv_capacity(
    model: &EeModel,
    ar: &AutoRegSpec,
    layers: Range<usize>,
    b0: f64,
    gpu: GpuKind,
) -> Option<usize> {
    let fp = ar_footprint(model, ar, layers.clone());
    if !fp.fits(b0, gpu) {
        return None;
    }
    let rate = ar.kv_bytes_per_token_in(layers, model.num_layers());
    let cap = fp.kv_capacity_tokens(b0, gpu, KvCacheSpec::new(rate));
    if rate > 0.0 && cap < b0.ceil() as usize {
        return None;
    }
    Some(cap)
}

/// Per-token stage times `(t_a, t_b)` in seconds for a cut at `cut`
/// (with `cut == num_layers` meaning single-stage: everything in `t_a`).
/// Mirrors the runtime's continuous-batching cost model: encoder
/// amortized over `mean_tokens`, decoder layers at their surviving
/// widths, enabled ramps, one boundary reform, lm-head at full width.
#[allow(clippy::too_many_arguments)]
fn stage_times(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    ar: &AutoRegSpec,
    cut: usize,
    b0: f64,
    mean_tokens: f64,
    gpu: GpuKind,
    lm: &LatencyModel,
) -> (f64, f64) {
    let enc = ar.encoder_layers;
    let l = model.num_layers();
    let layer_cost = |k: usize| {
        let s = model.layers()[k];
        s.work_us + s.fixed_us
    };
    let f = profile.survival_at(cut).max(1e-9);
    let mut t_a = (0..enc)
        .map(|k| lm.layer_time(layer_cost(k), b0, gpu).as_secs_f64())
        .sum::<f64>()
        / mean_tokens.max(1.0);
    for k in enc..cut {
        let width = b0 * profile.survival_at(k);
        if width <= 0.0 {
            continue;
        }
        t_a += lm.layer_time(layer_cost(k), width, gpu).as_secs_f64();
        if let Some(ri) = model.ramp_after(k) {
            if ctrl.pays_cost_at(ri) {
                let r = model.ramps()[ri];
                t_a += lm
                    .layer_time(r.work_us + r.fixed_us, width, gpu)
                    .as_secs_f64();
            }
        }
    }
    if cut == l {
        // Single-stage: the head runs here, no boundary reform.
        let head = lm
            .layer_time(ar.lm_head.work_us + ar.lm_head.fixed_us, b0, gpu)
            .as_secs_f64();
        return (t_a + head, 0.0);
    }
    t_a += lm.exit.reform_time(b0 * f).as_secs_f64();
    let mut t_b = lm
        .layer_time(ar.lm_head.work_us + ar.lm_head.fixed_us, b0, gpu)
        .as_secs_f64();
    for k in cut..l {
        let width = b0 * profile.survival_at(k) / f;
        if width <= 0.0 {
            continue;
        }
        t_b += lm.layer_time(layer_cost(k), width, gpu).as_secs_f64();
    }
    (t_a, t_b)
}

/// The `(m_a, m_b)` split of `n_gpus >= 2` replicas minimizing the
/// pipeline bottleneck `max(t_a/m_a, f·t_b/m_b)` for stage times
/// `(t_a, t_b)` and crossing fraction `f`, with that bottleneck. Ties go
/// to the smallest `m_a`.
fn best_split(t_a: f64, t_b: f64, f: f64, n_gpus: usize) -> (usize, usize, f64) {
    let mut best = (1, n_gpus - 1, f64::INFINITY);
    for m_a in 1..n_gpus {
        let m_b = n_gpus - m_a;
        let bn = (t_a / m_a as f64).max(f * t_b / m_b as f64);
        if bn < best.2 {
            best = (m_a, m_b, bn);
        }
    }
    best
}

/// Splits `n_gpus` identical devices between the two stages of a
/// deployment cut at `cut`, pricing the stages as
/// [`plan_autoreg_split`] does. `profile` is per-token survival and
/// `mean_tokens` the mean output length. Returns `(m_a, m_b)`; on one
/// GPU, `(1, 0)`: the device cannot host a pipeline.
///
/// # Panics
///
/// Panics if the model lacks an [`AutoRegSpec`].
#[allow(clippy::too_many_arguments)]
pub fn replica_split(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    cut: usize,
    b0: f64,
    mean_tokens: f64,
    gpu: GpuKind,
    n_gpus: usize,
    lm: &LatencyModel,
) -> (usize, usize) {
    if n_gpus < 2 {
        return (1, 0);
    }
    let ar = model.autoreg().expect("autoregressive model required");
    let f = profile.survival_at(cut).max(1e-9);
    let (t_a, t_b) = stage_times(model, ctrl, profile, ar, cut, b0, mean_tokens, gpu, lm);
    let (m_a, m_b, _) = best_split(t_a, t_b, f, n_gpus);
    (m_a, m_b)
}

/// Plans an autoregressive two-stage (or single-stage) deployment.
///
/// `profile` is per-*token* survival: `survival_at(k)` is the fraction
/// of generated tokens still computing at layer `k`. `mean_tokens` is
/// the mean output length (amortizes the encoder prefill). The planner
/// enumerates every decoder cut and replica split, prunes candidates
/// that fail the weight/activation/KV checks, and returns the feasible
/// plan with the smallest pipeline bottleneck — or, when nothing is
/// feasible, the best-effort single-stage plan flagged infeasible.
///
/// # Panics
///
/// Panics if the model lacks an [`AutoRegSpec`], `n_gpus == 0`, or
/// `b0 <= 0`.
#[allow(clippy::too_many_arguments)] // mirrors the DP's input surface
pub fn plan_autoreg_split(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    mean_tokens: f64,
    gpu: GpuKind,
    n_gpus: usize,
    b0: f64,
    lm: &LatencyModel,
) -> AutoRegSplitPlan {
    assert!(n_gpus >= 1, "need at least one GPU");
    assert!(b0 > 0.0, "batch must be positive");
    let ar = *model.autoreg().expect("autoregressive model required");
    let enc = ar.encoder_layers;
    let l = model.num_layers();
    assert_eq!(profile.num_layers(), l, "profile mismatch");

    let single_cap = stage_kv_capacity(model, &ar, 0..l, b0, gpu);
    let (t_single, _) = stage_times(model, ctrl, profile, &ar, l, b0, mean_tokens, gpu, lm);
    let mut best = AutoRegSplitPlan {
        boundary: None,
        replicas_a: n_gpus,
        replicas_b: 0,
        kv_capacity_a: single_cap.unwrap_or(0),
        kv_capacity_b: 0,
        bottleneck_secs: t_single / n_gpus as f64,
        memory_feasible: single_cap.is_some(),
    };
    if n_gpus < 2 {
        return best;
    }
    for cut in enc + 1..l {
        let Some(cap_a) = stage_kv_capacity(model, &ar, 0..cut, b0, gpu) else {
            continue;
        };
        let Some(cap_b) = stage_kv_capacity(model, &ar, cut..l, b0, gpu) else {
            continue;
        };
        let f = profile.survival_at(cut).max(1e-9);
        let (t_a, t_b) = stage_times(model, ctrl, profile, &ar, cut, b0, mean_tokens, gpu, lm);
        let (m_a, m_b, bn) = best_split(t_a, t_b, f, n_gpus);
        // Any feasible plan beats an infeasible one.
        if !best.memory_feasible || bn < best.bottleneck_secs {
            best = AutoRegSplitPlan {
                boundary: Some(cut),
                replicas_a: m_a,
                replicas_b: m_b,
                kv_capacity_a: cap_a,
                kv_capacity_b: cap_b,
                bottleneck_secs: bn,
                memory_feasible: true,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::{zoo, RampStyle};

    fn drop_to(l: usize, cut: usize, f: f64) -> BatchProfile {
        let mut surv = vec![1.0; cut + 1];
        surv.extend(vec![f; l - cut]);
        BatchProfile::new(surv)
    }

    #[test]
    fn calm_exit_profile_yields_two_stage_plan() {
        // 90% of tokens exit by mid-decoder. Single-stage still pays
        // nearly the full fixed cost of every deep layer at width 0.8;
        // a cut re-fuses crossers to full batches that run only 10% of
        // the time, so the two-stage plan wins the bottleneck.
        let m = zoo::calm_t5();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let l = m.num_layers();
        let profile = drop_to(l, 12, 0.1);
        let lm = LatencyModel::new();
        let plan = plan_autoreg_split(&m, &ctrl, &profile, 20.0, GpuKind::A6000, 4, 8.0, &lm);
        assert!(plan.memory_feasible, "{plan:?}");
        let cut = plan.boundary.expect("exits should induce a cut");
        let enc = m.autoreg().unwrap().encoder_layers;
        assert!(cut > enc && cut < l, "cut={cut}");
        assert_eq!(plan.replicas_a + plan.replicas_b, 4);
        // A6000 leaves room for tens of thousands of cached tokens.
        assert!(plan.kv_capacity_a > 10_000, "{}", plan.kv_capacity_a);
    }

    #[test]
    fn no_exits_prefers_single_stage() {
        // With survival 1.0 everywhere, splitting only adds a reform;
        // the single-stage plan is the bottleneck optimum.
        let m = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let profile = BatchProfile::no_exits(m.num_layers());
        let lm = LatencyModel::new();
        let plan = plan_autoreg_split(&m, &ctrl, &profile, 20.0, GpuKind::A6000, 4, 8.0, &lm);
        assert_eq!(plan.boundary, None, "{plan:?}");
        assert_eq!(plan.replicas_a, 4);
        assert!(plan.memory_feasible);
    }

    #[test]
    fn kv_pressure_forces_the_cut() {
        // Llama-8B-class on a 12 GiB K80 at b=830: weights + activations
        // still (barely) fit as one stage, but the leftover KV budget
        // (~400 tokens) cannot hold one resident batch — single-stage is
        // KV-infeasible. Halving the model halves both the weights and
        // the prorated per-token KV rate, so a two-stage plan fits. The
        // planner must discover that: memory pressure, not speed, forces
        // the cut.
        let m = zoo::llama31_8b_ee();
        let mut ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        ctrl.keep_only(&[15]);
        let l = m.num_layers();
        let profile = drop_to(l, 16, 0.5);
        let lm = LatencyModel::new();
        let single = plan_autoreg_split(&m, &ctrl, &profile, 1.0, GpuKind::K80, 1, 830.0, &lm);
        assert!(!single.memory_feasible, "{single:?}");
        let split = plan_autoreg_split(&m, &ctrl, &profile, 1.0, GpuKind::K80, 2, 830.0, &lm);
        assert!(split.memory_feasible, "{split:?}");
        assert!(split.boundary.is_some(), "{split:?}");
        assert!(split.kv_capacity_a >= 830, "{}", split.kv_capacity_a);
        assert!(split.kv_capacity_b >= 830, "{}", split.kv_capacity_b);
    }

    #[test]
    fn hopeless_memory_returns_best_effort() {
        // At b=3000 the activations alone overflow every stage: no
        // feasible plan exists, and the planner says so rather than
        // panicking.
        let m = zoo::llama31_8b_ee();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let profile = drop_to(m.num_layers(), 16, 0.5);
        let lm = LatencyModel::new();
        let plan = plan_autoreg_split(&m, &ctrl, &profile, 1.0, GpuKind::K80, 4, 3000.0, &lm);
        assert!(!plan.memory_feasible);
        assert_eq!(plan.boundary, None);
        assert_eq!(plan.kv_capacity_a, 0);
    }

    #[test]
    fn replica_split_prices_the_fraction_crossing_the_cut() {
        // Every exit falls at the ramp right before the cut, so only 10%
        // of tokens cross it, while all of them run the layer before it.
        // Stage B then runs full re-fused batches a tenth of the time and
        // needs one replica of four. Pricing the cut with the survival one
        // layer early (1.0) would see every token cross and split 2 + 2.
        let m = zoo::calm_t5();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let l = m.num_layers();
        let cut = 10;
        let profile = drop_to(l, cut - 1, 0.1);
        assert_eq!(profile.survival_at(cut - 1), 1.0);
        let lm = LatencyModel::new();
        let split = |n| replica_split(&m, &ctrl, &profile, cut, 16.0, 20.0, GpuKind::A6000, n, &lm);
        assert_eq!(split(4), (3, 1));
        // One device cannot host a pipeline.
        assert_eq!(split(1), (1, 0));
    }
}
