//! Autoregressive serving strategies (§5.1.3, figs. 10–12) — a thin
//! compatibility shim over the kernel's continuous-batching driver.
//!
//! Historically this module carried its own window-level batch loop and
//! an analytic pipeline-bottleneck evaluation. Both are gone: every
//! strategy now materializes per-token journeys and runs them through
//! [`crate::kernel::run_continuous`], so LLM serving shares the kernel's
//! event clock, typed observer stream, fault vocabulary, and accounting
//! with everything else the runtime serves. What remains here is the
//! mapping from the paper's four serving shapes onto a
//! [`crate::kernel::ContinuousConfig`]:
//!
//! * **vanilla static batching** — [`JoinPolicy::Window`] with padding:
//!   the batch decodes until its *longest* member finishes and freed
//!   slots cannot be refilled mid-window;
//! * **CALM-style sequential** — per-token exits but no batching at all
//!   (the CALM paper disables batching): continuous joining at width 1;
//! * **naive batched EE** — an unpadded window with every ramp checked
//!   (the Llama-EE construction; the large lm-head ramp cost makes this
//!   *slower* than vanilla);
//! * **E3** — a two-stage continuous deployment split at a
//!   profile-chosen boundary, full batches re-fused before the deep
//!   layers, exits deferred to the boundary, GPUs allocated across the
//!   stage groups by a pipeline-bottleneck search.

use rand::rngs::StdRng;
use rand::SeedableRng;

use e3_hardware::{GpuKind, LatencyModel};
use e3_model::{EeModel, ExitPolicy, ExitSampler, InferenceSim, RampController};
use e3_simcore::{stats, SimDuration, SimTime};
use e3_workload::DatasetModel;

use crate::kernel::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, NullObserver, SequenceSpec,
    TokenJourney,
};

/// How the autoregressive model is served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutoRegStrategy {
    /// Stock model, static batching, decode until the longest member ends.
    VanillaStatic,
    /// Per-token exits, batch processed one request at a time (CALM).
    NaiveEeSequential,
    /// Per-token exits with batching; every ramp checked. Only supported
    /// for single-token tasks (BoolQ).
    NaiveEeBatched,
    /// E3: decoder split at `boundary` (absolute layer index), re-fused
    /// batches, GPUs allocated across the two stage groups.
    E3 {
        /// Absolute layer index where the decoder is cut.
        boundary: usize,
    },
}

/// Results of an autoregressive serving simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoRegReport {
    /// Completed requests per second.
    pub goodput: f64,
    /// Generated tokens per second.
    pub tokens_per_sec: f64,
    /// Mean decoder layers executed per token.
    pub mean_decoder_depth: f64,
    /// Fraction of tokens crossing the E3 boundary (0 for baselines).
    pub boundary_survival: f64,
}

/// Materializes `n_requests` requests — output length plus one journey
/// per token — exactly as the legacy simulator drew them, so seeds keep
/// their meaning across the port.
pub fn materialize_sequences(
    model: &EeModel,
    policy: &ExitPolicy,
    ctrl: &RampController,
    infer: &InferenceSim,
    dataset: &DatasetModel,
    n_requests: usize,
    seed: u64,
) -> Vec<SequenceSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ExitSampler::new(infer, model, policy, ctrl);
    let mut specs = Vec::with_capacity(n_requests);
    for i in 0..n_requests {
        let len = dataset.output_len.sample(&mut rng).max(1) as usize;
        let mut tokens = Vec::with_capacity(len);
        for _ in 0..len {
            let h = dataset.sample_hardness(&mut rng);
            let out = sampler.sample(h, &mut rng);
            tokens.push(TokenJourney {
                layers_executed: out.layers_executed,
            });
        }
        specs.push(SequenceSpec {
            id: i as u64,
            arrival: SimTime::ZERO,
            tokens,
        });
    }
    specs
}

/// Splits `n_gpus` between the two stage groups of an E3 deployment so
/// the pipeline bottleneck `max(t_a/m_a, f*t_b/m_b)` is minimized, where
/// `f` is boundary survival. Returns `(m_a, m_b)`; `m_b = 0` when only
/// one GPU is available (the stages then share it serially).
#[allow(clippy::too_many_arguments)]
fn allocate_split(
    model: &EeModel,
    ctrl: &RampController,
    lm: &LatencyModel,
    gpu: GpuKind,
    specs: &[SequenceSpec],
    boundary: usize,
    b0: usize,
    n_gpus: usize,
) -> (usize, usize) {
    if n_gpus == 1 {
        return (1, 0);
    }
    let ar = model.autoreg().expect("autoregressive model required");
    let enc = ar.encoder_layers;
    let layer_cost = |k: usize| {
        let l = model.layers()[k];
        l.work_us + l.fixed_us
    };
    let total: f64 = specs.iter().map(|s| s.tokens.len() as f64).sum();
    let surv = |k: usize| {
        specs
            .iter()
            .flat_map(|s| s.tokens.iter())
            .filter(|t| t.layers_executed > k)
            .count() as f64
            / total
    };
    let f = surv(boundary - 1).max(1e-9);
    let b = b0 as f64;
    let mean_tokens = total / specs.len() as f64;
    let mut t_a = (0..enc)
        .map(|k| lm.layer_time(layer_cost(k), b, gpu).as_secs_f64())
        .sum::<f64>()
        / mean_tokens;
    for k in enc..boundary {
        let batch_k = b * surv(k);
        if batch_k <= 0.0 {
            continue;
        }
        t_a += lm.layer_time(layer_cost(k), batch_k, gpu).as_secs_f64();
        if let Some(ri) = model.ramp_after(k) {
            if ctrl.pays_cost_at(ri) {
                let r = model.ramps()[ri];
                t_a += lm
                    .layer_time(r.work_us + r.fixed_us, batch_k, gpu)
                    .as_secs_f64();
            }
        }
    }
    t_a += lm.exit.reform_time(b * f).as_secs_f64();
    let mut t_b = lm
        .layer_time(ar.lm_head.work_us + ar.lm_head.fixed_us, b, gpu)
        .as_secs_f64();
    for k in boundary..model.num_layers() {
        let batch_k = b * surv(k) / f;
        if batch_k <= 0.0 {
            continue;
        }
        t_b += lm.layer_time(layer_cost(k), batch_k, gpu).as_secs_f64();
    }
    let mut best = (1, n_gpus - 1);
    let mut best_bn = f64::INFINITY;
    for m_a in 1..n_gpus {
        let m_b = n_gpus - m_a;
        let bn = (t_a / m_a as f64).max(f * t_b / m_b as f64);
        if bn < best_bn {
            best_bn = bn;
            best = (m_a, m_b);
        }
    }
    best
}

/// Simulates closed-loop autoregressive serving.
///
/// `n_gpus` identical `gpu` devices, input batch `b0`, `n_requests`
/// requests drawn from `dataset`. All strategies run through
/// [`run_continuous`]; KV-cache budgets and fault plans are available on
/// that interface directly.
///
/// # Panics
///
/// Panics if the model lacks an [`e3_model::AutoRegSpec`], or if
/// [`AutoRegStrategy::NaiveEeBatched`] is used with multi-token outputs.
#[allow(clippy::too_many_arguments)]
pub fn simulate_autoreg(
    model: &EeModel,
    policy: &ExitPolicy,
    ctrl: &RampController,
    infer: &InferenceSim,
    dataset: &DatasetModel,
    strategy: AutoRegStrategy,
    gpu: GpuKind,
    n_gpus: usize,
    b0: usize,
    n_requests: usize,
    lm: &LatencyModel,
    seed: u64,
) -> AutoRegReport {
    assert!(n_gpus >= 1 && b0 >= 1 && n_requests >= 1);
    let ar = model.autoreg().expect("autoregressive model required");
    let enc = ar.encoder_layers;
    let specs = materialize_sequences(model, policy, ctrl, infer, dataset, n_requests, seed);
    let total_tokens: usize = specs.iter().map(|s| s.tokens.len()).sum();
    let depths: Vec<f64> = specs
        .iter()
        .flat_map(|s| s.tokens.iter())
        .map(|t| (t.layers_executed - enc) as f64)
        .collect();
    let mean_depth = stats::mean(&depths);

    if matches!(strategy, AutoRegStrategy::NaiveEeBatched) {
        assert!(
            specs.iter().all(|s| s.tokens.len() == 1),
            "batched naive EE supports single-token outputs only"
        );
    }
    let (join, b_eff, boundary, deferred) = match strategy {
        AutoRegStrategy::VanillaStatic => (JoinPolicy::Window { padded: true }, b0, None, false),
        // CALM processes one request at a time: batching is disabled.
        AutoRegStrategy::NaiveEeSequential => (JoinPolicy::Continuous, 1, None, false),
        AutoRegStrategy::NaiveEeBatched => (JoinPolicy::Window { padded: false }, b0, None, false),
        AutoRegStrategy::E3 { boundary } => {
            assert!(
                boundary > enc && boundary < model.num_layers(),
                "boundary must cut the decoder"
            );
            (JoinPolicy::Continuous, b0, Some(boundary), true)
        }
    };
    let (survival, m_a, m_b, boundary) = match boundary {
        Some(cut) => {
            let crossing = specs
                .iter()
                .flat_map(|s| s.tokens.iter())
                .filter(|t| t.layers_executed > cut)
                .count() as f64;
            let f = crossing / total_tokens as f64;
            let (m_a, m_b) = allocate_split(model, ctrl, lm, gpu, &specs, cut, b0, n_gpus);
            // One GPU cannot host a pipeline: serve single-stage.
            let cut = if m_b == 0 { None } else { Some(cut) };
            (f, m_a, m_b, cut)
        }
        None => (0.0, n_gpus, 0, None),
    };

    let cfg = ContinuousConfig {
        model,
        ctrl,
        gpu,
        lm,
        join,
        b0: b_eff,
        replicas_a: m_a,
        boundary,
        replicas_b: m_b,
        deferred_exits: deferred,
        kv: None,
        slo: SimDuration::from_secs(86_400),
        fault_plan: FaultPlan::new(),
        b_max_wait: None,
    };
    let out = run_continuous(&cfg, &specs, &mut NullObserver);
    debug_assert_eq!(out.leftover, 0, "no faults: every sequence completes");
    AutoRegReport {
        goodput: out.report.goodput(),
        tokens_per_sec: out.report.tokens_per_sec(),
        mean_decoder_depth: mean_depth,
        boundary_survival: survival,
    }
}

/// Picks the E3 boundary for an autoregressive model: the first decoder
/// boundary where token survival drops to `frac` or below, estimated by
/// Monte Carlo over `dataset`.
pub fn pick_boundary(
    model: &EeModel,
    policy: &ExitPolicy,
    ctrl: &RampController,
    infer: &InferenceSim,
    dataset: &DatasetModel,
    frac: f64,
    seed: u64,
) -> usize {
    let enc = model.autoreg().map_or(0, |a| a.encoder_layers);
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ExitSampler::new(infer, model, policy, ctrl);
    let n = 2000;
    let mut exits = vec![0usize; model.num_layers() + 1];
    for _ in 0..n {
        let h = dataset.sample_hardness(&mut rng);
        let out = sampler.sample(h, &mut rng);
        exits[out.layers_executed] += 1;
    }
    let mut alive = n;
    for (k, &exited) in exits
        .iter()
        .enumerate()
        .take(model.num_layers())
        .skip(enc + 1)
    {
        alive -= exited;
        if (alive as f64 / n as f64) <= frac {
            return k;
        }
    }
    model.num_layers() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::{zoo, RampStyle};

    fn calm_setup() -> (EeModel, ExitPolicy, RampController, InferenceSim) {
        let m = zoo::calm_t5();
        let p = zoo::default_policy("CALM");
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, p, c, InferenceSim::new())
    }

    #[test]
    fn calm_beats_t5_at_batch_one() {
        // fig. 10: CALM ~2.8x over T5 at b=1.
        let (calm, pol, ctrl, inf) = calm_setup();
        let t5 = zoo::t5();
        let ctrl0 = RampController::all_enabled(0, RampStyle::Independent);
        let ds = DatasetModel::wmt();
        let lm = LatencyModel::new();
        let vanilla = simulate_autoreg(
            &t5,
            &pol,
            &ctrl0,
            &inf,
            &ds,
            AutoRegStrategy::VanillaStatic,
            GpuKind::A6000,
            4,
            1,
            400,
            &lm,
            1,
        );
        let calm_r = simulate_autoreg(
            &calm,
            &pol,
            &ctrl,
            &inf,
            &ds,
            AutoRegStrategy::NaiveEeSequential,
            GpuKind::A6000,
            4,
            1,
            400,
            &lm,
            1,
        );
        let speedup = calm_r.goodput / vanilla.goodput;
        assert!(
            (1.8..4.0).contains(&speedup),
            "speedup={speedup} calm={} t5={}",
            calm_r.goodput,
            vanilla.goodput
        );
    }

    #[test]
    fn calm_stagnates_with_batch_e3_scales() {
        let (calm, pol, ctrl, inf) = calm_setup();
        let ds = DatasetModel::wmt();
        let lm = LatencyModel::new();
        let boundary = pick_boundary(&calm, &pol, &ctrl, &inf, &ds, 0.5, 7);
        let run = |strat, b| {
            simulate_autoreg(
                &calm,
                &pol,
                &ctrl,
                &inf,
                &ds,
                strat,
                GpuKind::A6000,
                4,
                b,
                400,
                &lm,
                2,
            )
            .goodput
        };
        let calm_1 = run(AutoRegStrategy::NaiveEeSequential, 1);
        let calm_16 = run(AutoRegStrategy::NaiveEeSequential, 16);
        // Sequential processing: batch size does not help CALM.
        assert!((calm_16 / calm_1 - 1.0).abs() < 0.1, "{calm_1} {calm_16}");
        let e3_16 = run(AutoRegStrategy::E3 { boundary }, 16);
        assert!(e3_16 > calm_16 * 1.5, "e3={e3_16} calm={calm_16}");
    }

    #[test]
    fn llama_ee_underperforms_vanilla_at_batch_one() {
        // fig. 12: per-layer lm-head checking makes Llama-EE slower than
        // vanilla Llama even at b=1.
        let ee = zoo::llama31_8b_ee();
        let vanilla = zoo::llama31_8b();
        let pol = zoo::default_policy("Llama3.1-8b-EE");
        let ctrl = RampController::all_enabled(ee.num_ramps(), RampStyle::Independent);
        let ctrl0 = RampController::all_enabled(0, RampStyle::Independent);
        let inf = InferenceSim::new();
        let ds = DatasetModel::boolq();
        let lm = LatencyModel::new();
        let v = simulate_autoreg(
            &vanilla,
            &pol,
            &ctrl0,
            &inf,
            &ds,
            AutoRegStrategy::VanillaStatic,
            GpuKind::A6000,
            4,
            1,
            400,
            &lm,
            3,
        );
        let e = simulate_autoreg(
            &ee,
            &pol,
            &ctrl,
            &inf,
            &ds,
            AutoRegStrategy::NaiveEeBatched,
            GpuKind::A6000,
            4,
            1,
            400,
            &lm,
            3,
        );
        assert!(
            e.goodput < v.goodput,
            "ee={} vanilla={}",
            e.goodput,
            v.goodput
        );
    }

    #[test]
    fn e3_beats_vanilla_llama() {
        let ee = zoo::llama31_8b_ee();
        let vanilla = zoo::llama31_8b();
        let pol = zoo::default_policy("Llama3.1-8b-EE");
        let mut ctrl = RampController::all_enabled(ee.num_ramps(), RampStyle::Independent);
        let ctrl0 = RampController::all_enabled(0, RampStyle::Independent);
        let inf = InferenceSim::new();
        let ds = DatasetModel::boolq();
        let lm = LatencyModel::new();
        let boundary = pick_boundary(&ee, &pol, &ctrl, &inf, &ds, 0.5, 9);
        // E3 checks exits only at the split boundary (§5.1.3: "E3 only
        // needs to check for exits at the end of splits").
        ctrl.keep_only(&[boundary.saturating_sub(1)]);
        let v = simulate_autoreg(
            &vanilla,
            &pol,
            &ctrl0,
            &inf,
            &ds,
            AutoRegStrategy::VanillaStatic,
            GpuKind::A6000,
            4,
            8,
            400,
            &lm,
            4,
        );
        let e = simulate_autoreg(
            &ee,
            &pol,
            &ctrl,
            &inf,
            &ds,
            AutoRegStrategy::E3 { boundary },
            GpuKind::A6000,
            4,
            8,
            400,
            &lm,
            4,
        );
        assert!(
            e.goodput > v.goodput,
            "e3={} vanilla={}",
            e.goodput,
            v.goodput
        );
    }

    #[test]
    fn boundary_picker_finds_midpoint() {
        let (calm, pol, ctrl, inf) = calm_setup();
        let ds = DatasetModel::wmt();
        let b = pick_boundary(&calm, &pol, &ctrl, &inf, &ds, 0.5, 5);
        let enc = calm.autoreg().unwrap().encoder_layers;
        assert!(b > enc && b < calm.num_layers(), "b={b}");
    }
}
