//! One-shot experiment harness.
//!
//! The evaluation compares three system shapes per model family at fixed
//! batch sizes: the stock model (vanilla serving), the EE model served
//! naively, and the EE model under E3. This module packages that recipe
//! so a figure (an experiment-registry function returning its report)
//! only picks a [`ModelFamily`], a cluster, a batch size, and a dataset.

use e3_hardware::{ClusterSpec, ExitOverheads, LatencyModel, TransferModel};
use e3_model::{zoo, EeModel, ExitPolicy, InferenceSim, RampController};
use e3_optimizer::auto::plan_for_cluster;
use e3_optimizer::{OptimizerConfig, SplitPlan};
use e3_runtime::{FaultPlan, RunReport, Strategy};
use e3_simcore::{SeedSplitter, SimDuration};
use e3_workload::{DatasetModel, Request, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::DeploymentBuilder;
use crate::system::measure_profile;

/// Which serving system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Stock model, data-parallel static batching.
    Vanilla,
    /// EE model served naively (exits shrink batches in place).
    NaiveEe,
    /// EE model under E3 (profile → DP splits → fused execution).
    E3,
}

/// A model family under study: the stock model, its EE variant, and the
/// exit policy the EE variant was trained for.
#[derive(Debug, Clone)]
pub struct ModelFamily {
    /// The stock (no-exit) model.
    pub stock: EeModel,
    /// The early-exit variant.
    pub ee: EeModel,
    /// The EE variant's exit policy.
    pub policy: ExitPolicy,
    /// Exit-check sync/compaction overheads for this family (vision
    /// ramps act on much smaller tensors than transformer ramps).
    pub overheads: ExitOverheads,
}

impl ModelFamily {
    /// BERT-BASE / DeeBERT (figs. 7, 13–17, 21–26).
    pub fn nlp() -> Self {
        ModelFamily {
            stock: zoo::bert_base(),
            ee: zoo::deebert(),
            policy: zoo::default_policy("DeeBERT"),
            overheads: ExitOverheads::default(),
        }
    }

    /// ResNet-50 / B-ResNet50 (fig. 8).
    pub fn vision() -> Self {
        ModelFamily {
            stock: zoo::resnet50(),
            ee: zoo::branchy_resnet50(),
            policy: zoo::default_policy("B-ResNet50"),
            // Vision exit branches pool tiny feature maps; acting on a
            // decision is far cheaper than on transformer hidden states.
            overheads: ExitOverheads {
                sync_us: 100.0,
                per_sample_us: 25.0,
            },
        }
    }

    /// DistilBERT / DistilBERT-EE (fig. 9).
    pub fn compressed() -> Self {
        ModelFamily {
            stock: zoo::distilbert(),
            ee: zoo::distilbert_ee(),
            policy: zoo::default_policy("DistilBERT-EE"),
            overheads: ExitOverheads::default(),
        }
    }

    /// BERT-LARGE / PABEE (fig. 18).
    pub fn pabee() -> Self {
        ModelFamily {
            stock: zoo::bert_large(),
            ee: zoo::pabee(),
            policy: zoo::default_policy("PABEE"),
            overheads: ExitOverheads::default(),
        }
    }

    /// T5 / CALM-T5 (figs. 10–11, autoregressive translation and
    /// summarization).
    pub fn llm_t5() -> Self {
        ModelFamily {
            stock: zoo::t5(),
            ee: zoo::calm_t5(),
            policy: zoo::default_policy("CALM"),
            overheads: ExitOverheads::default(),
        }
    }

    /// Llama-3.1-8B / its per-layer-exit variant (fig. 12,
    /// autoregressive BoolQ).
    pub fn llm_llama() -> Self {
        ModelFamily {
            stock: zoo::llama31_8b(),
            ee: zoo::llama31_8b_ee(),
            policy: zoo::default_policy("Llama3.1-8b-EE"),
            overheads: ExitOverheads::default(),
        }
    }

    /// The calibrated latency model with this family's exit overheads.
    pub fn latency_model(&self) -> LatencyModel {
        LatencyModel {
            exit: self.overheads,
            ..LatencyModel::new()
        }
    }

    /// The model a given system kind serves.
    pub fn model_for(&self, kind: SystemKind) -> &EeModel {
        match kind {
            SystemKind::Vanilla => &self.stock,
            SystemKind::NaiveEe | SystemKind::E3 => &self.ee,
        }
    }
}

/// Harness knobs beyond the family/cluster/batch triple.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Latency SLO.
    pub slo: SimDuration,
    /// Pipelined model parallelism for E3 plans.
    pub pipelining: bool,
    /// Exit-wrapper: disable non-boundary ramps in E3 runs (§3.4).
    pub use_wrapper: bool,
    /// Maximum E3 splits.
    pub max_splits: usize,
    /// Multiplicative error injected into the measured profile before
    /// optimization (fig. 22's misprediction study); 0.0 = exact.
    pub profile_error: f64,
    /// Profile-measurement sample count.
    pub profile_samples: usize,
    /// Realization penalty per extra split passed to the optimizer (see
    /// `OptimizerConfig::stage_overhead_frac`).
    pub stage_overhead_frac: f64,
    /// Deterministic fault schedule injected into the serving run (empty
    /// = fault-free).
    pub fault_plan: FaultPlan,
    /// Enable straggler detection/exclusion in the serving run.
    pub detect_stragglers: bool,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            slo: SimDuration::from_millis(100),
            pipelining: true,
            use_wrapper: false,
            max_splits: 4,
            profile_error: 0.0,
            profile_samples: 4000,
            stage_overhead_frac: OptimizerConfig::default().stage_overhead_frac,
            fault_plan: FaultPlan::new(),
            detect_stragglers: false,
        }
    }
}

/// Builds the E3 plan for a family on a cluster at a batch size, from a
/// profile measured on `dataset`.
pub fn build_e3_plan(
    family: &ModelFamily,
    cluster: &ClusterSpec,
    batch: usize,
    dataset: &DatasetModel,
    opts: &HarnessOpts,
    seed: u64,
) -> SplitPlan {
    let lm = family.latency_model();
    let infer = InferenceSim::with_accuracy(dataset.base_accuracy);
    let ctrl = RampController::all_enabled(family.ee.num_ramps(), family.policy.ramp_style());
    let profile = measure_profile(
        &family.ee,
        &family.policy,
        &ctrl,
        &infer,
        dataset,
        opts.profile_samples,
        SeedSplitter::new(seed).derive("profile"),
    )
    .with_shrinkage_error(opts.profile_error);
    let cfg = OptimizerConfig {
        slo: opts.slo,
        pipelining: opts.pipelining,
        max_splits: opts.max_splits,
        stage_overhead_frac: opts.stage_overhead_frac,
        ..Default::default()
    };
    plan_for_cluster(
        &family.ee,
        &ctrl,
        &profile,
        cluster,
        batch.max(1) as f64,
        &TransferModel::default(),
        &lm,
        &cfg,
    )
}

/// Runs a closed-loop experiment: `n` requests of `dataset` at `batch`
/// on `cluster` under the chosen system. Deterministic in `seed`.
#[allow(clippy::too_many_arguments)] // one knob per experiment axis
pub fn run_closed_loop(
    kind: SystemKind,
    family: &ModelFamily,
    cluster: &ClusterSpec,
    batch: usize,
    dataset: &DatasetModel,
    n: usize,
    opts: &HarnessOpts,
    seed: u64,
) -> RunReport {
    run_closed_loop_observed(
        kind,
        family,
        cluster,
        batch,
        dataset,
        n,
        opts,
        seed,
        &mut e3_runtime::kernel::NullObserver,
    )
}

/// [`run_closed_loop`], streaming the kernel's typed events to
/// `observer`. The serial (`pipelining == false`) E3 path runs outside
/// the kernel and streams nothing.
#[allow(clippy::too_many_arguments)]
pub fn run_closed_loop_observed(
    kind: SystemKind,
    family: &ModelFamily,
    cluster: &ClusterSpec,
    batch: usize,
    dataset: &DatasetModel,
    n: usize,
    opts: &HarnessOpts,
    seed: u64,
    observer: &mut dyn e3_runtime::RunObserver,
) -> RunReport {
    let model = family.model_for(kind);
    let infer = InferenceSim::with_accuracy(dataset.base_accuracy);
    if kind == SystemKind::E3 && !opts.pipelining {
        // Model parallelism OFF (§5.8.7): splits run serially on the same
        // data-parallel GPUs with a barrier at every boundary.
        let plan = build_e3_plan(family, cluster, batch, dataset, opts, seed);
        let ctrl = RampController::all_enabled(model.num_ramps(), family.policy.ramp_style());
        let gpus: Vec<_> = cluster.gpus().iter().map(|g| g.kind).collect();
        let reqs = closed_loop_requests(dataset, n, SeedSplitter::new(seed).derive("requests"));
        return e3_runtime::serial::run_serial_barrier(
            model,
            family.policy,
            &ctrl,
            &infer,
            &plan.boundaries(),
            &gpus,
            batch.max(1),
            opts.slo,
            &family.latency_model(),
            &reqs,
            SeedSplitter::new(seed).derive("run"),
        );
    }
    let (sim, reqs, run_seed) =
        build_closed_loop_sim(kind, family, cluster, batch, dataset, n, opts, seed);
    sim.run_observed(&reqs, run_seed, observer)
}

/// Assembles the kernel-path closed-loop deployment without running it:
/// the built simulator, the request backlog, and the derived run seed.
/// Useful for drivers that want to separate workload materialization
/// from the kernel event loop (e.g. `ServingSim::materialize_backlog` +
/// repeated `run_backlog_observed` in benchmarks). The serial
/// (`pipelining == false`) E3 path runs outside the kernel and is not
/// expressible here; [`run_closed_loop_observed`] handles it.
#[allow(clippy::too_many_arguments)]
pub fn build_closed_loop_sim<'m>(
    kind: SystemKind,
    family: &'m ModelFamily,
    cluster: &ClusterSpec,
    batch: usize,
    dataset: &DatasetModel,
    n: usize,
    opts: &HarnessOpts,
    seed: u64,
) -> (e3_runtime::ServingSim<'m>, Vec<Request>, u64) {
    let model = family.model_for(kind);
    let infer = InferenceSim::with_accuracy(dataset.base_accuracy);
    let strategy = match kind {
        SystemKind::Vanilla => Strategy::Vanilla { batch },
        SystemKind::NaiveEe => Strategy::NaiveEe { batch },
        SystemKind::E3 => {
            Strategy::Plan(build_e3_plan(family, cluster, batch, dataset, opts, seed))
        }
    };
    let mut ctrl = RampController::all_enabled(model.num_ramps(), family.policy.ramp_style());
    if kind == SystemKind::E3 && opts.use_wrapper {
        if let Strategy::Plan(plan) = &strategy {
            let profile = measure_profile(
                &family.ee,
                &family.policy,
                &ctrl,
                &infer,
                dataset,
                opts.profile_samples,
                SeedSplitter::new(seed).derive("profile"),
            );
            let keep = crate::system::useful_ramps(model, &profile, &plan.boundaries(), 0.04);
            ctrl.keep_only(&keep);
        }
    }
    let sim = DeploymentBuilder::new(model, family.policy, &strategy, cluster)
        .with_ctrl(ctrl)
        .with_inference(infer)
        .with_latency_model(family.latency_model())
        .with_slo(opts.slo)
        .with_fault_plan(opts.fault_plan.clone())
        .with_straggler_detection(opts.detect_stragglers)
        .build();
    let reqs = closed_loop_requests(dataset, n, SeedSplitter::new(seed).derive("requests"));
    (sim, reqs, SeedSplitter::new(seed).derive("run"))
}

/// Runs an open-loop experiment over a pre-generated workload.
#[allow(clippy::too_many_arguments)]
pub fn run_open_loop(
    kind: SystemKind,
    family: &ModelFamily,
    cluster: &ClusterSpec,
    batch: usize,
    generator: &WorkloadGenerator,
    profile_dataset: &DatasetModel,
    opts: &HarnessOpts,
    seed: u64,
) -> RunReport {
    let model = family.model_for(kind);
    let infer = InferenceSim::with_accuracy(profile_dataset.base_accuracy);
    let strategy = match kind {
        SystemKind::Vanilla => Strategy::Vanilla { batch },
        SystemKind::NaiveEe => Strategy::NaiveEe { batch },
        SystemKind::E3 => Strategy::Plan(build_e3_plan(
            family,
            cluster,
            batch,
            profile_dataset,
            opts,
            seed,
        )),
    };
    let sim = DeploymentBuilder::new(model, family.policy, &strategy, cluster)
        .with_inference(infer)
        .with_latency_model(family.latency_model())
        .with_slo(opts.slo)
        .with_fault_plan(opts.fault_plan.clone())
        .with_straggler_detection(opts.detect_stragglers)
        .open_loop(generator.horizon())
        .build();
    let mut rng = StdRng::seed_from_u64(SeedSplitter::new(seed).derive("open-reqs"));
    let reqs = generator.generate(0, &mut rng);
    sim.run(&reqs, SeedSplitter::new(seed).derive("open-run"))
}

/// Convenience wrapper for the NLP family (used by the crate docs).
pub fn run_nlp(
    kind: SystemKind,
    cluster: &ClusterSpec,
    batch: usize,
    dataset: &DatasetModel,
    n: usize,
    seed: u64,
) -> RunReport {
    run_closed_loop(
        kind,
        &ModelFamily::nlp(),
        cluster,
        batch,
        dataset,
        n,
        &HarnessOpts::default(),
        seed,
    )
}

fn closed_loop_requests(dataset: &DatasetModel, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| Request {
            id,
            arrival: e3_simcore::SimTime::ZERO,
            hardness: dataset.sample_hardness(&mut rng),
            output_tokens: dataset.output_len.sample(&mut rng),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_reproduces() {
        // The headline result: at b=8 on 16 V100s, E3 > BERT > DeeBERT;
        // at b=1, DeeBERT > BERT.
        let family = ModelFamily::nlp();
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let ds = DatasetModel::sst2();
        let opts = HarnessOpts::default();
        let g =
            |kind, b| run_closed_loop(kind, &family, &cluster, b, &ds, 20_000, &opts, 1).goodput();
        let bert_8 = g(SystemKind::Vanilla, 8);
        let dee_8 = g(SystemKind::NaiveEe, 8);
        let e3_8 = g(SystemKind::E3, 8);
        assert!(
            e3_8 > bert_8 && bert_8 > dee_8,
            "e3={e3_8} bert={bert_8} dee={dee_8}"
        );
        let bert_1 = g(SystemKind::Vanilla, 1);
        let dee_1 = g(SystemKind::NaiveEe, 1);
        assert!(dee_1 > bert_1, "dee={dee_1} bert={bert_1}");
    }

    #[test]
    fn compressed_family_benefits_too() {
        // fig. 9: E3 boosts DistilBERT-EE.
        let family = ModelFamily::compressed();
        let cluster = ClusterSpec::homogeneous(e3_hardware::GpuKind::V100, 4, 2);
        let ds = DatasetModel::sst2();
        let opts = HarnessOpts::default();
        let e3 = run_closed_loop(SystemKind::E3, &family, &cluster, 8, &ds, 20_000, &opts, 2);
        let naive = run_closed_loop(
            SystemKind::NaiveEe,
            &family,
            &cluster,
            8,
            &ds,
            20_000,
            &opts,
            2,
        );
        assert!(e3.goodput() > naive.goodput());
    }

    #[test]
    fn profile_error_degrades_gracefully() {
        // fig. 22: misprediction loses some goodput but nothing breaks.
        let family = ModelFamily::nlp();
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let ds = DatasetModel::sst2();
        let exact = run_closed_loop(
            SystemKind::E3,
            &family,
            &cluster,
            8,
            &ds,
            20_000,
            &HarnessOpts::default(),
            3,
        );
        let wrong = run_closed_loop(
            SystemKind::E3,
            &family,
            &cluster,
            8,
            &ds,
            20_000,
            &HarnessOpts {
                profile_error: 0.8,
                ..Default::default()
            },
            3,
        );
        assert!(wrong.goodput() <= exact.goodput() * 1.02);
        assert!(wrong.goodput() > exact.goodput() * 0.3, "not catastrophic");
    }
}
