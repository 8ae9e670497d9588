//! Replica splits for autoregressive deployments (figs. 10–12).
//!
//! The classic DP in [`crate::dp`] plans per-*sample* pipelines. An
//! autoregressive deployment is shaped differently: the unit of work is
//! one generated *token*, and the encoder cost amortizes over a
//! request's whole output. Given a decoder cut chosen elsewhere,
//! [`replica_split`] prices both stages of the continuous-batching
//! deployment per token and splits the replicas to minimize the
//! steady-state pipeline bottleneck `max(t_a/m_a, f·t_b/m_b)`, where `f`
//! is token survival at the cut. Memory is not checked here: the KV
//! budget a deployment admits against is the caller's constant.

use e3_hardware::{GpuKind, LatencyModel};
use e3_model::{AutoRegSpec, BatchProfile, EeModel, RampController};

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
/// deployment cut at `cut`, pricing each stage per token as the runtime's
/// continuous-batching loop runs it. `profile` is per-token survival and
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
