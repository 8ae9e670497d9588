//! One-shot experiment harness.
//!
//! The evaluation compares three system shapes per model family at fixed
//! batch sizes: the stock model (vanilla serving), the EE model served
//! naively, and the EE model under E3. [`Experiment`] packages that
//! recipe: a figure (an experiment-registry function returning its
//! report) fixes a [`ModelFamily`], a cluster and a dataset once, then
//! runs each [`SystemKind`] at each batch size through
//! [`Experiment::run`] (closed loop) or [`Experiment::run_open`] (open
//! loop). [`Experiment::plan`] and [`Experiment::deployment`] expose the
//! E3 plan and the unrun kernel deployment behind those runs.
//!
//! The autoregressive figures (10–12) follow the same recipe with an
//! [`AutoRegStrategy`] in place of the system kind:
//! [`Experiment::run_autoreg`] maps the strategy onto the kernel's
//! token serving (continuous batching), and
//! [`Experiment::pick_autoreg_boundary`] chooses E3's decoder cut.

use e3_hardware::{ClusterSpec, ExitOverheads, LatencyModel, TransferModel};
use e3_model::{zoo, BatchProfile, EeModel, ExitPolicy, ExitSampler, InferenceSim, RampController};
use e3_optimizer::auto::plan_for_cluster;
use e3_optimizer::autoreg_split::replica_split;
use e3_optimizer::{OptimizerConfig, SplitPlan};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::NullObserver;
use e3_runtime::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, RunObserver, RunReport, SequenceSpec,
    ServingSim, Strategy,
};
use e3_simcore::{stats, SeedSplitter, SimDuration};
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

/// How an autoregressive model is served (§5.1.3).
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

/// Results of an autoregressive serving run.
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
    pub(crate) fn model_for(&self, kind: SystemKind) -> &EeModel {
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

/// One fixed-batch experiment: a model family on a cluster, serving a
/// dataset under [`HarnessOpts`], `n` requests per measurement point,
/// deterministic in `seed`. Each method takes the parts that vary
/// between points: the system kind and the batch size.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Model family under study.
    pub family: ModelFamily,
    /// The deployment cluster.
    pub cluster: ClusterSpec,
    /// Workload dataset; open-loop runs still plan from its profile.
    pub dataset: DatasetModel,
    /// Harness knobs (SLO, pipelining, wrapper, faults, ...).
    pub opts: HarnessOpts,
    /// Requests per closed-loop measurement point.
    pub n: usize,
    /// Root seed.
    pub seed: u64,
}

impl Experiment {
    /// An experiment with default [`HarnessOpts`], 20 000 requests per
    /// point and seed 0.
    pub fn new(family: ModelFamily, cluster: ClusterSpec, dataset: DatasetModel) -> Self {
        Experiment {
            family,
            cluster,
            dataset,
            opts: HarnessOpts::default(),
            n: 20_000,
            seed: 0,
        }
    }

    /// Replaces the harness options.
    pub fn with_opts(mut self, opts: HarnessOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Replaces the request count per measurement point.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Replaces the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The E3 plan at `batch`, from a profile measured on the dataset
    /// (with [`HarnessOpts::profile_error`] injected).
    pub fn plan(&self, batch: usize) -> SplitPlan {
        self.plan_from(&self.profile(), batch)
    }

    /// The closed-loop deployment, not yet run: the simulator, the
    /// request backlog, and the derived run seed. [`Experiment::run`] is
    /// `sim.run(&reqs, run_seed, ..)` on this; drivers that time
    /// materialization apart from the kernel use
    /// `ServingSim::materialize_backlog` and `run_backlog_observed`
    /// instead.
    pub fn deployment(
        &self,
        kind: SystemKind,
        batch: usize,
    ) -> (ServingSim<'_>, Vec<Request>, u64) {
        let seeds = SeedSplitter::new(self.seed);
        let sim = self.sim(kind, batch, None);
        let reqs = closed_loop_requests(&self.dataset, self.n, seeds.derive("requests"));
        (sim, reqs, seeds.derive("run"))
    }

    /// Runs one closed-loop measurement point, streaming the kernel's
    /// typed events to `observer`.
    ///
    /// E3 with `pipelining: false` is model parallelism OFF (§5.8.7):
    /// the optimizer solves a serial plan, whose splits the simulator
    /// runs on the same data-parallel GPUs, one stage at a time, under
    /// the kernel's phase barrier.
    pub fn run(&self, kind: SystemKind, batch: usize, observer: &mut dyn RunObserver) -> RunReport {
        let (sim, reqs, run_seed) = self.deployment(kind, batch);
        sim.run(&reqs, run_seed, observer)
    }

    /// Runs one open-loop measurement point against `generator`'s
    /// arrival process, streaming the kernel's typed events to
    /// `observer`. The experiment's dataset still supplies the planning
    /// profile.
    pub fn run_open(
        &self,
        kind: SystemKind,
        batch: usize,
        generator: &WorkloadGenerator,
        observer: &mut dyn RunObserver,
    ) -> RunReport {
        let seeds = SeedSplitter::new(self.seed);
        let sim = self.sim(kind, batch, Some(generator.horizon()));
        let mut rng = StdRng::seed_from_u64(seeds.derive("open-reqs"));
        let reqs = generator.generate(0, &mut rng);
        sim.run(&reqs, seeds.derive("open-run"), observer)
    }

    /// Runs one closed-loop *autoregressive* measurement point on the
    /// kernel's token serving ([`run_continuous`]), with `batch` as the
    /// input batch. The strategy picks the model and the run's shape:
    ///
    /// * vanilla static batching serves the stock model in padded
    ///   windows: a window decodes until its longest member finishes;
    /// * CALM-style sequential serving joins continuously at width 1
    ///   (the CALM paper disables batching);
    /// * naive batched EE runs unpadded windows with every ramp checked
    ///   (the Llama-EE construction, slower than vanilla);
    /// * E3 cuts the decoder at its boundary, defers exits to it, re-fuses
    ///   full batches before the deep layers, and splits the GPUs across
    ///   the two stages by the optimizer's pipeline model
    ///   ([`replica_split`]) on the run's token profile.
    ///
    /// # Panics
    ///
    /// Panics on a heterogeneous cluster (the paper's LLM experiments use
    /// 4 identical A6000s), a model without an [`e3_model::AutoRegSpec`],
    /// a boundary outside the decoder, or
    /// [`AutoRegStrategy::NaiveEeBatched`] with multi-token outputs.
    pub fn run_autoreg(
        &self,
        strat: AutoRegStrategy,
        ctrl: &RampController,
        batch: usize,
    ) -> AutoRegReport {
        let kinds = self.cluster.kinds();
        assert_eq!(
            kinds.len(),
            1,
            "autoregressive serving expects a homogeneous cluster"
        );
        let (gpu, n_gpus) = (kinds[0], self.cluster.num_gpus());
        assert!(batch >= 1 && self.n >= 1);
        let model = self.family.model_for(match strat {
            AutoRegStrategy::VanillaStatic => SystemKind::Vanilla,
            _ => SystemKind::NaiveEe,
        });
        let lm = self.family.latency_model();
        let enc = model
            .autoreg()
            .expect("autoregressive model required")
            .encoder_layers;
        let specs = materialize_sequences(
            model,
            &self.family.policy,
            ctrl,
            &self.inference(),
            &self.dataset,
            self.n,
            self.seed,
        );
        let total_tokens: usize = specs.iter().map(|s| s.tokens.len()).sum();
        let depths: Vec<f64> = specs
            .iter()
            .flat_map(|s| s.tokens.iter())
            .map(|t| (usize::from(t.layers_executed) - enc) as f64)
            .collect();

        if matches!(strat, AutoRegStrategy::NaiveEeBatched) {
            assert!(
                specs.iter().all(|s| s.tokens.len() == 1),
                "batched naive EE supports single-token outputs only"
            );
        }
        let (join, b_eff, boundary, deferred) = match strat {
            AutoRegStrategy::VanillaStatic => {
                (JoinPolicy::Window { padded: true }, batch, None, false)
            }
            AutoRegStrategy::NaiveEeSequential => (JoinPolicy::Continuous, 1, None, false),
            AutoRegStrategy::NaiveEeBatched => {
                (JoinPolicy::Window { padded: false }, batch, None, false)
            }
            AutoRegStrategy::E3 { boundary } => {
                assert!(
                    boundary > enc && boundary < model.num_layers(),
                    "boundary must cut the decoder"
                );
                (JoinPolicy::Continuous, batch, Some(boundary), true)
            }
        };
        let (survival, m_a, m_b, boundary) = match boundary {
            Some(cut) => {
                let profile = token_profile(model.num_layers(), &specs, total_tokens);
                let (m_a, m_b) = replica_split(
                    model,
                    ctrl,
                    &profile,
                    cut,
                    batch as f64,
                    total_tokens as f64 / specs.len() as f64,
                    gpu,
                    n_gpus,
                    &lm,
                );
                // One GPU cannot host a pipeline: serve single-stage.
                (profile.survival_at(cut), m_a, m_b, (m_b > 0).then_some(cut))
            }
            None => (0.0, n_gpus, 0, None),
        };

        let cfg = ContinuousConfig {
            model,
            ctrl,
            gpu,
            lm: &lm,
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
            mean_decoder_depth: stats::mean(&depths),
            boundary_survival: survival,
        }
    }

    /// Picks the E3 decoder boundary for the family's EE model: the
    /// first decoder layer where token survival on this dataset falls
    /// to `frac` or below, estimated from 2000 Monte-Carlo tokens.
    pub fn pick_autoreg_boundary(&self, frac: f64) -> usize {
        let model = &self.family.ee;
        let enc = model.autoreg().map_or(0, |a| a.encoder_layers);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (infer, ctrl) = (self.inference(), self.full_ctrl());
        let sampler = ExitSampler::new(&infer, model, &self.family.policy, &ctrl);
        let n = 2000;
        let mut exits = vec![0usize; model.num_layers() + 1];
        for _ in 0..n {
            let h = self.dataset.sample_hardness(&mut rng);
            exits[sampler.sample(h, &mut rng).layers_executed] += 1;
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

    /// The standard three-way comparison, labeled: the stock model
    /// under vanilla serving, the EE model served naively, and E3.
    pub fn systems(&self) -> [(String, SystemKind); 3] {
        [
            (self.family.stock.name().to_string(), SystemKind::Vanilla),
            (self.family.ee.name().to_string(), SystemKind::NaiveEe),
            ("E3".to_string(), SystemKind::E3),
        ]
    }

    fn inference(&self) -> InferenceSim {
        InferenceSim::with_accuracy(self.dataset.base_accuracy)
    }

    /// Every ramp of the EE model enabled.
    fn full_ctrl(&self) -> RampController {
        RampController::all_enabled(self.family.ee.num_ramps(), self.family.policy.ramp_style())
    }

    /// The exact batch profile measured on the dataset.
    fn profile(&self) -> BatchProfile {
        measure_profile(
            &self.family.ee,
            &self.family.policy,
            &self.full_ctrl(),
            &self.inference(),
            &self.dataset,
            self.opts.profile_samples,
            SeedSplitter::new(self.seed).derive("profile"),
        )
    }

    /// The E3 plan from a measured profile, after error injection.
    fn plan_from(&self, profile: &BatchProfile, batch: usize) -> SplitPlan {
        let cfg = OptimizerConfig {
            slo: self.opts.slo,
            pipelining: self.opts.pipelining,
            max_splits: self.opts.max_splits,
            stage_overhead_frac: self.opts.stage_overhead_frac,
            ..Default::default()
        };
        plan_for_cluster(
            &self.family.ee,
            &self.full_ctrl(),
            &profile.with_shrinkage_error(self.opts.profile_error),
            &self.cluster,
            batch.max(1) as f64,
            &TransferModel::default(),
            &self.family.latency_model(),
            &cfg,
        )
    }

    /// The kernel deployment both closed- and open-loop runs serve:
    /// closed loop when `horizon` is `None`, open loop over `horizon`
    /// otherwise. E3 measures its profile once; the plan sees the
    /// error-injected copy and the exit wrapper the exact one.
    fn sim(&self, kind: SystemKind, batch: usize, horizon: Option<SimDuration>) -> ServingSim<'_> {
        let model = self.family.model_for(kind);
        let mut ctrl =
            RampController::all_enabled(model.num_ramps(), self.family.policy.ramp_style());
        let strategy = match kind {
            SystemKind::Vanilla => Strategy::Vanilla { batch },
            SystemKind::NaiveEe => Strategy::NaiveEe { batch },
            SystemKind::E3 => {
                let profile = self.profile();
                let plan = self.plan_from(&profile, batch);
                if self.opts.use_wrapper {
                    ctrl = exit_wrapper(model, ctrl, &profile, &plan.boundaries());
                }
                Strategy::Plan(plan)
            }
        };
        let builder = DeploymentBuilder::new(model, self.family.policy, &strategy, &self.cluster)
            .with_ctrl(ctrl)
            .with_inference(self.inference())
            .with_latency_model(self.family.latency_model())
            .with_slo(self.opts.slo)
            .with_fault_plan(self.opts.fault_plan.clone())
            .with_straggler_detection(self.opts.detect_stragglers);
        match horizon {
            Some(h) => builder.open_loop(h).build(),
            None => builder.build(),
        }
    }
}

/// Per-token survival over `layers` layers: entry `k` is the fraction of
/// the `total` tokens that run layer `k` (execute more than `k` layers).
fn token_profile(layers: usize, specs: &[SequenceSpec], total: usize) -> BatchProfile {
    let mut ended = vec![0usize; layers + 1];
    for t in specs.iter().flat_map(|s| s.tokens.iter()) {
        ended[usize::from(t.layers_executed)] += 1;
    }
    let mut alive = total;
    let mut survival: Vec<f64> = (0..layers)
        .map(|k| {
            alive -= ended[k];
            alive as f64 / total as f64
        })
        .collect();
    // The final entry counts tokens that completed the whole model.
    survival.push(survival[layers - 1]);
    BatchProfile::new(survival)
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

/// Least fraction of the batch that must exit at a ramp for the
/// exit-wrapper to keep it.
const WRAPPER_MIN_EXIT_FRAC: f64 = 0.04;

/// The exit-wrapper (§3.4): `ctrl` with the ramps that are not useful
/// disabled. A ramp survives if at least `WRAPPER_MIN_EXIT_FRAC` of the
/// batch exits there per the profile, or if it sits at a split boundary
/// (boundary ramps realize the batch profile the optimizer planned for
/// and are always required).
fn exit_wrapper(
    model: &EeModel,
    mut ctrl: RampController,
    profile: &BatchProfile,
    boundaries: &[usize],
) -> RampController {
    // No observed exit activity means no evidence of uselessness — keep
    // everything. (Disabling on a cold-start "no exits" prediction would
    // suppress all exits and the profiler could never learn otherwise.)
    if profile.survival_at(profile.num_layers()) > 1.0 - WRAPPER_MIN_EXIT_FRAC {
        return ctrl;
    }
    let keep: Vec<usize> = model
        .ramps()
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            let k = r.after_layer;
            let exit_frac = profile.survival_at(k) - profile.survival_at(k + 1);
            exit_frac >= WRAPPER_MIN_EXIT_FRAC || boundaries.contains(&(k + 1))
        })
        .map(|(i, _)| i)
        .collect();
    ctrl.keep_only(&keep);
    ctrl
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_runtime::kernel::{EventLog, KernelEvent, NullObserver};
    use e3_simcore::SimTime;
    use e3_workload::ArrivalProcess;

    /// DeeBERT on SST-2 and 16 V100s.
    fn nlp(seed: u64) -> Experiment {
        Experiment::new(
            ModelFamily::nlp(),
            ClusterSpec::paper_homogeneous_v100(),
            DatasetModel::sst2(),
        )
        .with_seed(seed)
    }

    #[test]
    fn fig7_shape_reproduces() {
        // The headline result: at b=8 on 16 V100s, E3 > BERT > DeeBERT;
        // at b=1, DeeBERT > BERT.
        let exp = nlp(1);
        let g = |kind, b| exp.run(kind, b, &mut NullObserver).goodput();
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
        let exp = Experiment::new(
            ModelFamily::compressed(),
            ClusterSpec::homogeneous(e3_hardware::GpuKind::V100, 4, 2),
            DatasetModel::sst2(),
        )
        .with_seed(2);
        let e3 = exp.run(SystemKind::E3, 8, &mut NullObserver);
        let naive = exp.run(SystemKind::NaiveEe, 8, &mut NullObserver);
        assert!(e3.goodput() > naive.goodput());
    }

    #[test]
    fn profile_error_degrades_gracefully() {
        // fig. 22: misprediction loses some goodput but nothing breaks.
        let exact_exp = nlp(3);
        let wrong_exp = exact_exp.clone().with_opts(HarnessOpts {
            profile_error: 0.8,
            ..Default::default()
        });
        let exact = exact_exp.run(SystemKind::E3, 8, &mut NullObserver);
        let wrong = wrong_exp.run(SystemKind::E3, 8, &mut NullObserver);
        assert!(wrong.goodput() <= exact.goodput() * 1.02);
        assert!(wrong.goodput() > exact.goodput() * 0.3, "not catastrophic");
    }

    fn poisson(rate: f64) -> WorkloadGenerator {
        WorkloadGenerator::new(
            ArrivalProcess::Poisson { rate },
            DatasetModel::sst2(),
            SimDuration::from_secs(2),
        )
    }

    #[test]
    fn open_loop_honours_the_exit_wrapper() {
        // §3.4's wrapper disables non-boundary ramps on open loop too,
        // so the served ramps, and with them the report, change.
        let g = poisson(4000.0);
        let run = |use_wrapper| {
            nlp(4)
                .with_opts(HarnessOpts {
                    use_wrapper,
                    ..Default::default()
                })
                .run_open(SystemKind::E3, 8, &g, &mut NullObserver)
        };
        let fingerprint = |r: RunReport| (r.completed, r.within_slo, r.mean_depth().to_bits());
        assert_ne!(fingerprint(run(false)), fingerprint(run(true)));
    }

    fn mp_off(seed: u64, fault_plan: FaultPlan) -> Experiment {
        nlp(seed).with_opts(HarnessOpts {
            pipelining: false,
            fault_plan,
            ..Default::default()
        })
    }

    #[test]
    fn mp_off_serves_open_loop() {
        let mut log = EventLog::new();
        let r = mp_off(5, FaultPlan::new()).run_open(SystemKind::E3, 8, &poisson(1000.0), &mut log);
        let offered = log
            .events
            .iter()
            .filter(|(_, e)| matches!(e, KernelEvent::Arrival { .. }))
            .count() as u64;
        assert!(offered > 0);
        assert!(r.completed > 0);
        assert_eq!(r.completed + r.dropped, offered);
    }

    #[test]
    fn mp_off_survives_a_crash() {
        let ms = SimTime::from_millis;
        let exp = mp_off(6, FaultPlan::new().crash(3, ms(100)).recover(3, ms(400)));
        let r = exp.run(SystemKind::E3, 8, &mut NullObserver);
        assert_eq!(r.completed + r.dropped, exp.n as u64);
        assert!(r.faults_injected > 0);
    }
}
