//! The serving simulator facade.
//!
//! A [`ServingSim`] executes one request stream against one realized
//! strategy (stage specs) on the calibrated hardware model, by assembling
//! the paper's policies for the [`crate::kernel`] event loop. Everything is
//! deterministic: a single seeded RNG materializes per-request outcomes
//! at ingest, the event queue breaks ties FIFO, and replica selection is
//! by (queue length, id).
//!
//! The kernel and its policies implement the paper's §3.3/§4 runtime
//! behaviours:
//!
//! * dynamic batching at the frontend (full batch or deadline flush) —
//!   fusion batching;
//! * per-replica private queues;
//! * batch **fusion** between stages — surviving samples from multiple
//!   upstream batches re-form full batches (the constant-batch-size
//!   mechanism);
//! * pipelining — transfers are events, so compute and communication
//!   overlap naturally;
//! * admission drops when a request's deadline is unmeetable (Clockwork
//!   style) — SLO-slack admission, open loop only;
//! * straggler detection by per-replica service-time monitoring, with
//!   exclusion from future assignment (§3.3) — the relative-slowdown
//!   monitor, when [`ServingConfig::detect_stragglers`] is set.
//!
//! [`ServingSim::run`] serves a request stream with the policies derived
//! from [`ServingConfig`], streaming the kernel's typed events to an
//! observer. [`ServingSim::materialize_backlog`] and
//! [`ServingSim::run_backlog_observed`] are the same run split in two, so
//! a caller can time the Monte-Carlo draw apart from the event loop.
//!
//! A deployment of a plan solved without pipelining
//! ([`e3_optimizer::SplitPlan::pipelined`] false, model parallelism OFF,
//! §5.8.7) runs every split on the same GPU set. The event loop serves
//! it too, under the batch kernel's phase barrier: one stage runs at a
//! time, and survivors re-form at each boundary (see [`crate::kernel`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use e3_hardware::{ClusterSpec, LatencyModel, TransferModel};
use e3_model::{EeModel, ExitPolicy, ExitSampler, InferenceSim, RampController};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::Request;

use crate::kernel::{
    Batches, FaultPlan, FusionBatching, RunAccumulator, RunObserver, SloSlackAdmission,
};
use crate::report::RunReport;
use crate::sample::SimSample;
use crate::strategy::{StageSpec, Strategy};

/// Runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Latency SLO for goodput accounting and admission drops.
    pub slo: SimDuration,
    /// Closed-loop mode: stage-0 replicas self-feed from an infinite
    /// backlog (arrival time = dispatch time). Open-loop mode replays the
    /// requests' arrival timestamps.
    pub closed_loop: bool,
    /// Per-stage overrides for the fusion wait: later stages receive
    /// survivors slowly (their fill time is one cycle divided by the
    /// stage's survival fraction) and need proportionally longer waits.
    /// Empty = use [`crate::kernel::FUSION_MAX_WAIT`] everywhere.
    pub fusion_waits: Vec<SimDuration>,
    /// Enable straggler detection/exclusion.
    pub detect_stragglers: bool,
    /// Deterministic fault schedule applied by the kernel (crashes,
    /// transient slowdowns, stage stalls, delayed recoveries). Empty by
    /// default: no faults, byte-identical to a fault-free run.
    pub fault_plan: FaultPlan,
    /// Report duration floor (open-loop traces with idle tails divide
    /// goodput by the full horizon, not the last completion).
    pub horizon: Option<SimDuration>,
    /// Bound on queued batches per replica (excluding the batch
    /// executing). Routing sheds a batch — dropping its samples — when
    /// even the least-loaded candidate replica is at the bound. `None`
    /// (the default) keeps the pre-existing unbounded behaviour.
    pub queue_cap: Option<usize>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            slo: SimDuration::from_millis(100),
            closed_loop: true,
            fusion_waits: Vec::new(),
            detect_stragglers: false,
            fault_plan: FaultPlan::new(),
            horizon: None,
            queue_cap: None,
        }
    }
}

/// The serving simulator. Construct once, then [`ServingSim::run`].
pub struct ServingSim<'a> {
    pub(crate) model: &'a EeModel,
    pub(crate) policy: ExitPolicy,
    pub(crate) ctrl: RampController,
    pub(crate) infer: InferenceSim,
    pub(crate) stages: Vec<StageSpec>,
    pub(crate) lm: LatencyModel,
    pub(crate) tm: TransferModel,
    pub(crate) cfg: ServingConfig,
    /// False for a plan solved without pipelining: every stage runs on
    /// the same GPU set, under the kernel's phase barrier.
    pub(crate) pipelined: bool,
}

impl<'a> ServingSim<'a> {
    /// Builds a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `stages` do not contiguously cover the model.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: &'a EeModel,
        policy: ExitPolicy,
        ctrl: RampController,
        infer: InferenceSim,
        stages: Vec<StageSpec>,
        lm: LatencyModel,
        tm: TransferModel,
        cfg: ServingConfig,
    ) -> Self {
        assert!(!stages.is_empty(), "need at least one stage");
        assert_eq!(stages[0].layers.start, 0, "stages must start at layer 0");
        assert_eq!(
            stages.last().expect("nonempty").layers.end,
            model.num_layers(),
            "stages must cover the model"
        );
        for w in stages.windows(2) {
            assert_eq!(
                w[0].layers.end, w[1].layers.start,
                "stages must be contiguous"
            );
        }
        assert!(
            stages.iter().all(|s| !s.replicas.is_empty()),
            "every stage needs a replica"
        );
        ServingSim {
            model,
            policy,
            ctrl,
            infer,
            stages,
            lm,
            tm,
            cfg,
            pipelined: true,
        }
    }

    /// Builds the simulator that serves `strategy` on `cluster`: its
    /// realized stages, served under a phase barrier when the strategy
    /// is a plan solved without pipelining.
    ///
    /// # Panics
    ///
    /// As [`ServingSim::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn for_strategy(
        model: &'a EeModel,
        policy: ExitPolicy,
        ctrl: RampController,
        infer: InferenceSim,
        strategy: &Strategy,
        cluster: &ClusterSpec,
        lm: LatencyModel,
        tm: TransferModel,
        cfg: ServingConfig,
    ) -> Self {
        let stages = strategy.realize(model, cluster);
        let sim = ServingSim::new(model, policy, ctrl, infer, stages, lm, tm, cfg);
        ServingSim {
            pipelined: !matches!(strategy, Strategy::Plan(p) if !p.pipelined),
            ..sim
        }
    }

    /// Serves `requests`, drawing their outcomes from `seed`, and streams
    /// the kernel's typed events to `observer`. The same as
    /// [`ServingSim::materialize_backlog`] followed by
    /// [`ServingSim::run_backlog_observed`].
    pub fn run(
        &self,
        requests: &[Request],
        seed: u64,
        observer: &mut dyn RunObserver,
    ) -> RunReport {
        // Policies before the backlog: the allocation order sets the heap
        // layout the event loop runs on, and with it the run's speed.
        let policies = self.policies();
        let backlog = self.materialize_backlog(requests, seed);
        self.serve(backlog, policies, observer)
    }

    /// Materializes the per-request outcomes (the RNG-bound Monte-Carlo
    /// pass) into the kernel's backlog form. For a fixed `(requests,
    /// seed)` the backlog is a pure value: callers can materialize once
    /// and replay the event loop over it any number of times with
    /// [`ServingSim::run_backlog_observed`], which is how the kernel
    /// microbenchmark isolates event-loop throughput from model-layer
    /// sampling cost.
    pub fn materialize_backlog(&self, requests: &[Request], seed: u64) -> Vec<SimSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = ExitSampler::new(&self.infer, self.model, &self.policy, &self.ctrl);
        requests
            .iter()
            .map(|r| SimSample::materialize(r, &sampler, &mut rng))
            .collect()
    }

    /// Runs the kernel event loop over an already-materialized backlog,
    /// streaming its events to `observer`.
    pub fn run_backlog_observed(
        &self,
        backlog: Vec<SimSample>,
        observer: &mut dyn RunObserver,
    ) -> RunReport {
        self.serve(backlog, self.policies(), observer)
    }

    /// The admission and batching policies derived from this simulator's
    /// [`ServingConfig`]: SLO-slack admission in open-loop drop mode
    /// (closed-loop backlogs admit everything), and fusion batching
    /// everywhere.
    fn policies(&self) -> (Option<SloSlackAdmission>, FusionBatching) {
        let admission = (!self.cfg.closed_loop).then(|| {
            SloSlackAdmission::for_stages(
                self.model,
                &self.ctrl,
                &self.lm,
                &self.tm,
                &self.stages,
                self.cfg.slo,
            )
        });
        let targets: Vec<usize> = self.stages.iter().map(|s| s.target_batch).collect();
        let batching = FusionBatching::new(&targets, self.cfg.fusion_waits.clone());
        (admission, batching)
    }

    /// Serves `backlog` on the kernel's event loop.
    fn serve(
        &self,
        backlog: Vec<SimSample>,
        (admission, batching): (Option<SloSlackAdmission>, FusionBatching),
        observer: &mut dyn RunObserver,
    ) -> RunReport {
        self.report(Batches::new(self, backlog, admission, batching, observer).run())
    }

    /// The report of a finished event-loop run.
    fn report(&self, acc: RunAccumulator) -> RunReport {
        let last = acc.last_completion();
        let duration = match self.cfg.horizon {
            Some(h) => last.saturating_since(SimTime::ZERO).max(h),
            None => last.saturating_since(SimTime::ZERO),
        };
        acc.finish(duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::faults::decoded_fault_plan;
    use crate::kernel::NullObserver;
    use e3_hardware::GpuKind;
    use e3_model::{zoo, RampStyle};
    use e3_optimizer::{plan_for_cluster, OptimizerConfig};
    use e3_simcore::SeedSplitter;
    use e3_workload::{ArrivalProcess, DatasetModel, WorkloadGenerator};

    fn requests_closed(n: usize, ds: &DatasetModel, seed: u64) -> Vec<Request> {
        let g = WorkloadGenerator::new(
            ArrivalProcess::ClosedLoop { concurrency: 64 },
            ds.clone(),
            SimDuration::from_secs(60),
        );
        let mut rng = StdRng::seed_from_u64(SeedSplitter::new(seed).derive("reqs"));
        g.generate(n, &mut rng)
    }

    fn run_strategy(
        model: &EeModel,
        strategy: &Strategy,
        cluster: &ClusterSpec,
        cfg: ServingConfig,
        n: usize,
        seed: u64,
    ) -> RunReport {
        let has_exits = model.has_exits();
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let policy = if has_exits {
            zoo::default_policy(model.name())
        } else {
            ExitPolicy::Entropy { threshold: 0.4 }
        };
        let stages = strategy.realize(model, cluster);
        let sim = ServingSim::new(
            model,
            policy,
            ctrl,
            InferenceSim::new(),
            stages,
            LatencyModel::new(),
            TransferModel::default(),
            cfg,
        );
        let reqs = requests_closed(n, &DatasetModel::sst2(), seed);
        sim.run(&reqs, seed, &mut NullObserver)
    }

    #[test]
    fn vanilla_bert_matches_fig7_anchor() {
        // BERT-BASE b=8 on 16 V100: paper reports 6484 samples/s.
        let model = zoo::bert_base();
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let r = run_strategy(
            &model,
            &Strategy::Vanilla { batch: 8 },
            &cluster,
            ServingConfig::default(),
            40_000,
            1,
        );
        let g = r.goodput();
        assert!((5800.0..7200.0).contains(&g), "goodput={g}");
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn deebert_crossover_with_batch_size() {
        // fig. 7: DeeBERT beats BERT at b=1 but loses at b=8.
        let bert = zoo::bert_base();
        let dee = zoo::deebert();
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let run = |m: &EeModel, s: Strategy| {
            run_strategy(m, &s, &cluster, ServingConfig::default(), 20_000, 2).goodput()
        };
        let bert_1 = run(&bert, Strategy::Vanilla { batch: 1 });
        let dee_1 = run(&dee, Strategy::NaiveEe { batch: 1 });
        let bert_8 = run(&bert, Strategy::Vanilla { batch: 8 });
        let dee_8 = run(&dee, Strategy::NaiveEe { batch: 8 });
        assert!(dee_1 > bert_1, "b=1: dee {dee_1} bert {bert_1}");
        assert!(dee_8 < bert_8, "b=8: dee {dee_8} bert {bert_8}");
    }

    #[test]
    fn e3_plan_beats_baselines_at_batch_8() {
        let dee = zoo::deebert();
        let bert = zoo::bert_base();
        let cluster = ClusterSpec::paper_homogeneous_v100();
        // Build the E3 plan from a profile measured on this workload.
        let ctrl = RampController::all_enabled(dee.num_ramps(), RampStyle::Independent);
        let policy = zoo::default_policy("DeeBERT");
        let infer = InferenceSim::new();
        let mut rng = StdRng::seed_from_u64(11);
        let hs = DatasetModel::sst2().sample_hardnesses(4000, &mut rng);
        let profile = infer.exit_profile(&dee, &policy, &ctrl, &hs, &mut rng);
        let plan = plan_for_cluster(
            &dee,
            &ctrl,
            &profile,
            &cluster,
            8.0,
            &TransferModel::default(),
            &LatencyModel::new(),
            &OptimizerConfig::default(),
        );
        let run = |m: &EeModel, s: Strategy| {
            run_strategy(m, &s, &cluster, ServingConfig::default(), 40_000, 3).goodput()
        };
        let e3 = run(&dee, Strategy::Plan(plan));
        let naive = run(&dee, Strategy::NaiveEe { batch: 8 });
        let vanilla = run(&bert, Strategy::Vanilla { batch: 8 });
        assert!(e3 > naive, "e3 {e3} naive {naive}");
        assert!(e3 > vanilla, "e3 {e3} vanilla {vanilla}");
    }

    #[test]
    fn open_loop_under_capacity_serves_everything() {
        let model = zoo::bert_base();
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let g = WorkloadGenerator::new(
            ArrivalProcess::Poisson { rate: 2000.0 },
            DatasetModel::sst2(),
            SimDuration::from_secs(5),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let reqs = g.generate(0, &mut rng);
        let stages = Strategy::Vanilla { batch: 8 }.realize(&model, &cluster);
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let sim = ServingSim::new(
            &model,
            ExitPolicy::Entropy { threshold: 0.4 },
            ctrl,
            InferenceSim::new(),
            stages,
            LatencyModel::new(),
            TransferModel::default(),
            ServingConfig {
                closed_loop: false,
                horizon: Some(SimDuration::from_secs(5)),
                ..Default::default()
            },
        );
        let r = sim.run(&reqs, 4, &mut NullObserver);
        assert!(r.drop_rate() < 0.01, "drop rate {}", r.drop_rate());
        let served_frac = r.completed as f64 / reqs.len() as f64;
        assert!(served_frac > 0.99, "served {served_frac}");
        assert!(r.latency.quantile_ms(0.99) <= 100.0);
    }

    #[test]
    fn open_loop_overload_drops() {
        let model = zoo::bert_base();
        // A tiny cluster facing 5000 req/s must shed load.
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 1, 1);
        let g = WorkloadGenerator::new(
            ArrivalProcess::Poisson { rate: 5000.0 },
            DatasetModel::sst2(),
            SimDuration::from_secs(2),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let reqs = g.generate(0, &mut rng);
        let stages = Strategy::Vanilla { batch: 8 }.realize(&model, &cluster);
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let sim = ServingSim::new(
            &model,
            ExitPolicy::Entropy { threshold: 0.4 },
            ctrl,
            InferenceSim::new(),
            stages,
            LatencyModel::new(),
            TransferModel::default(),
            ServingConfig {
                closed_loop: false,
                horizon: Some(SimDuration::from_secs(2)),
                ..Default::default()
            },
        );
        let r = sim.run(&reqs, 5, &mut NullObserver);
        assert!(r.drop_rate() > 0.5, "drop rate {}", r.drop_rate());
        // Whatever was served met the SLO (drops protect goodput).
        assert!(r.within_slo as f64 / r.completed.max(1) as f64 > 0.95);
    }

    #[test]
    fn straggler_detected_and_excluded() {
        let model = zoo::bert_base();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
        let stages = Strategy::Vanilla { batch: 8 }.realize(&model, &cluster);
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let sim = ServingSim::new(
            &model,
            ExitPolicy::Entropy { threshold: 0.4 },
            ctrl,
            InferenceSim::new(),
            stages,
            LatencyModel::new(),
            TransferModel::default(),
            ServingConfig {
                // Replica 2 runs 3x slow for the whole run.
                fault_plan: FaultPlan::new().slowdown(
                    2,
                    3.0,
                    SimTime::ZERO,
                    SimTime::from_secs(3600),
                ),
                detect_stragglers: true,
                ..Default::default()
            },
        );
        let reqs = requests_closed(5000, &DatasetModel::sst2(), 6);
        let r = sim.run(&reqs, 6, &mut NullObserver);
        assert_eq!(r.stragglers_detected, vec![2]);
    }

    #[test]
    fn runs_are_deterministic() {
        let model = zoo::deebert();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
        let a = run_strategy(
            &model,
            &Strategy::NaiveEe { batch: 4 },
            &cluster,
            ServingConfig::default(),
            3000,
            7,
        );
        let b = run_strategy(
            &model,
            &Strategy::NaiveEe { batch: 4 },
            &cluster,
            ServingConfig::default(),
            3000,
            7,
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.within_slo, b.within_slo);
        assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
    }

    #[test]
    fn observer_sees_full_sample_lifecycle() {
        use crate::kernel::{EventLog, KernelEvent};

        // A 2+-split plan so the stream includes fusion and transfers.
        let dee = zoo::deebert();
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let ctrl = RampController::all_enabled(dee.num_ramps(), RampStyle::Independent);
        let policy = zoo::default_policy("DeeBERT");
        let infer = InferenceSim::new();
        let mut rng = StdRng::seed_from_u64(11);
        let hs = DatasetModel::sst2().sample_hardnesses(4000, &mut rng);
        let profile = infer.exit_profile(&dee, &policy, &ctrl, &hs, &mut rng);
        let plan = plan_for_cluster(
            &dee,
            &ctrl,
            &profile,
            &cluster,
            8.0,
            &TransferModel::default(),
            &LatencyModel::new(),
            &OptimizerConfig::default(),
        );
        assert!(plan.num_splits() >= 2, "{plan}");
        let strategy = Strategy::Plan(plan);
        let stages = strategy.realize(&dee, &cluster);
        let sim = ServingSim::new(
            &dee,
            policy,
            ctrl,
            infer,
            stages,
            LatencyModel::new(),
            TransferModel::default(),
            ServingConfig::default(),
        );
        let reqs = requests_closed(4000, &DatasetModel::sst2(), 7);
        let mut log = EventLog::new();
        let r = sim.run(&reqs, 7, &mut log);
        assert_eq!(r.completed, 4000);

        // The stream is emitted in execution order: time never rewinds.
        assert!(log.events.windows(2).all(|w| w[0].0 <= w[1].0));
        // One arrival per request, one completion per completed sample.
        assert_eq!(
            log.count(|e| matches!(e, KernelEvent::Arrival { .. })) as u64,
            r.completed + r.dropped
        );
        assert_eq!(
            log.count(|e| matches!(e, KernelEvent::Completion { .. })) as u64,
            r.completed
        );
        // Survivors crossed at least one split boundary.
        assert!(log.count(|e| matches!(e, KernelEvent::StageTransfer { .. })) > 0);

        // Per-sample lifecycle: arrival -> batch formed -> exec start ->
        // exec done -> completion, in that order.
        let id = log
            .events
            .iter()
            .find_map(|(_, e)| match e {
                KernelEvent::Completion { sample, .. } => Some(*sample),
                _ => None,
            })
            .expect("some completion");
        let pos = |from: usize, pred: &dyn Fn(&KernelEvent) -> bool| {
            log.events[from..]
                .iter()
                .position(|(_, e)| pred(e))
                .map(|i| from + i)
        };
        let arrival = pos(
            0,
            &|e| matches!(e, KernelEvent::Arrival { sample } if *sample == id),
        )
        .expect("arrival");
        let completion = pos(
            arrival,
            &|e| matches!(e, KernelEvent::Completion { sample, .. } if *sample == id),
        )
        .expect("completion");
        let batch =
            pos(arrival, &|e| matches!(e, KernelEvent::BatchFormed { .. })).expect("batch formed");
        let exec_start =
            pos(batch, &|e| matches!(e, KernelEvent::ExecStart { .. })).expect("exec start");
        let exec_done =
            pos(exec_start, &|e| matches!(e, KernelEvent::ExecDone { .. })).expect("exec done");
        assert!(
            arrival < batch
                && batch < exec_start
                && exec_start < exec_done
                && exec_done < completion,
            "lifecycle out of order: {arrival} {batch} {exec_start} {exec_done} {completion}"
        );
    }

    #[test]
    fn naive_ee_underutilizes_gpu() {
        // fig. 3: shrinking batches cut effective utilization.
        let dee = zoo::deebert();
        let bert = zoo::bert_base();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 2, 2);
        let naive = run_strategy(
            &dee,
            &Strategy::NaiveEe { batch: 8 },
            &cluster,
            ServingConfig::default(),
            10_000,
            8,
        );
        let vanilla = run_strategy(
            &bert,
            &Strategy::Vanilla { batch: 8 },
            &cluster,
            ServingConfig::default(),
            10_000,
            8,
        );
        assert!(
            naive.mean_effective_utilization() < vanilla.mean_effective_utilization() - 0.1,
            "naive {} vanilla {}",
            naive.mean_effective_utilization(),
            vanilla.mean_effective_utilization()
        );
    }

    #[test]
    fn sheds_are_attributed_to_their_cause() {
        let model = zoo::bert_base();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 1, 1);
        let g = WorkloadGenerator::new(
            ArrivalProcess::Poisson { rate: 5000.0 },
            DatasetModel::sst2(),
            SimDuration::from_secs(2),
        );
        let mut rng = StdRng::seed_from_u64(25);
        let reqs = g.generate(0, &mut rng);
        let stages = Strategy::Vanilla { batch: 8 }.realize(&model, &cluster);
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let sim = ServingSim::new(
            &model,
            ExitPolicy::Entropy { threshold: 0.4 },
            ctrl,
            InferenceSim::new(),
            stages,
            LatencyModel::new(),
            TransferModel::default(),
            ServingConfig {
                closed_loop: false,
                horizon: Some(SimDuration::from_secs(2)),
                queue_cap: Some(1),
                ..Default::default()
            },
        );
        let r = sim.run(&reqs, 25, &mut NullObserver);
        let sheds = r.robustness.sheds;
        assert!(sheds.queue_cap > 0, "{sheds:?}");
        assert_eq!(sheds.queue_cap, r.shed);
        assert_eq!(sheds.total(), r.dropped);
    }

    #[test]
    fn accuracy_reflects_exit_policy() {
        let dee = zoo::deebert();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 2, 2);
        let r = run_strategy(
            &dee,
            &Strategy::NaiveEe { batch: 4 },
            &cluster,
            ServingConfig::default(),
            10_000,
            9,
        );
        // Entropy 0.4 keeps accuracy within ~2% of the 0.92 ceiling.
        assert!(r.accuracy() > 0.88, "accuracy {}", r.accuracy());
        // And samples do exit early.
        assert!(r.mean_depth() < 10.0, "mean depth {}", r.mean_depth());
    }

    /// The deployment the arrival-merge test replays: a multi-stage E3
    /// plan on a small cluster (stage faults and transfer events only
    /// exist with at least two stages), with `cfg`'s fault plan decoded
    /// from `words` on a millisecond grid within the first 150 ms.
    fn merge_sim<'a>(model: &'a EeModel, words: &[u64], cfg: ServingConfig) -> ServingSim<'a> {
        use e3_model::BatchProfile;

        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let policy = zoo::default_policy("DeeBERT");
        let profile = BatchProfile::new(vec![
            1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
        ]);
        let (tm, lm) = (TransferModel::default(), LatencyModel::new());
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 6, 4);
        let plan = plan_for_cluster(
            model,
            &ctrl,
            &profile,
            &cluster,
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        let stages = Strategy::Plan(plan).realize(model, &cluster);
        let num_replicas: usize = stages.iter().map(|s| s.replicas.len()).sum();
        let fault_plan = decoded_fault_plan(words, num_replicas, stages.len(), 150);
        fault_plan.validate(num_replicas, stages.len());
        ServingSim::new(
            model,
            policy,
            ctrl,
            InferenceSim::new(),
            stages,
            lm,
            tm,
            ServingConfig { fault_plan, ..cfg },
        )
    }

    /// Serves `backlog` with every open-loop arrival scheduled on the
    /// queue at the start: the schedule the merge must reproduce.
    fn serve_upfront(
        sim: &ServingSim,
        backlog: Vec<SimSample>,
        observer: &mut dyn RunObserver,
    ) -> RunReport {
        let (admission, batching) = sim.policies();
        let run = Batches::new(sim, backlog, admission, batching, observer);
        sim.report(run.scheduling_arrivals_upfront().run())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Open-loop arrivals are merged from the backlog, not put on the
        /// queue. The merged run must replay, event for event, the run
        /// that schedules every arrival up front after the fault actions.
        /// Arrivals sit on the faults' millisecond grid, so they tie with
        /// fault edges, flush timers and each other. A second backlog
        /// appends arrivals stamped at the first run's `ExecDone`
        /// instants: it ties arrivals with completions of passes, and it
        /// is not sorted by arrival.
        #[test]
        fn merged_arrivals_replay_upfront_schedule(
            words in proptest::collection::vec(0u64..u64::MAX, 1..6),
            seed in 0u64..u64::MAX,
        ) {
            use crate::kernel::{EventLog, KernelEvent};
            use proptest::{prop_assert, prop_assert_eq};
            use rand::Rng;

            let model = zoo::deebert();
            let cfg = ServingConfig {
                closed_loop: false,
                horizon: Some(SimDuration::from_millis(150)),
                ..Default::default()
            };
            let sim = merge_sim(&model, &words, cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let dataset = DatasetModel::sst2();
            let mut arrivals: Vec<u64> = (0..1200).map(|_| rng.gen_range(0..150)).collect();
            arrivals.sort_unstable();
            let mut requests: Vec<Request> = arrivals
                .iter()
                .enumerate()
                .map(|(id, &ms)| Request {
                    id: id as u64,
                    arrival: SimTime::from_millis(ms),
                    hardness: dataset.sample_hardness(&mut rng),
                    output_tokens: 1,
                })
                .collect();

            for pass in 0..2 {
                let backlog = sim.materialize_backlog(&requests, seed);
                let mut upfront_log = EventLog::new();
                let upfront = serve_upfront(&sim, backlog.clone(), &mut upfront_log);
                let mut merged_log = EventLog::new();
                let merged = sim.run_backlog_observed(backlog, &mut merged_log);
                prop_assert_eq!(&merged_log.events, &upfront_log.events);
                prop_assert_eq!(merged.completed, upfront.completed);
                prop_assert_eq!(merged.within_slo, upfront.within_slo);
                prop_assert_eq!(merged.dropped, upfront.dropped);
                prop_assert_eq!(merged.duration, upfront.duration);
                let times = |pred: fn(&KernelEvent) -> bool| -> Vec<SimTime> {
                    upfront_log.events.iter().filter(|(_, e)| pred(e)).map(|(t, _)| *t).collect()
                };
                let dones = times(|e| matches!(e, KernelEvent::ExecDone { .. }));
                if pass == 0 {
                    let n = requests.len() as u64;
                    requests.extend(dones.iter().step_by(3).zip(n..).map(|(&arrival, id)| {
                        Request {
                            id,
                            arrival,
                            hardness: dataset.sample_hardness(&mut rng),
                            output_tokens: 1,
                        }
                    }));
                    prop_assert!(!requests.is_sorted_by_key(|r| r.arrival));
                } else {
                    // The arrival appended at the first `ExecDone` instant
                    // met that pass completing.
                    let tied = times(|e| matches!(e, KernelEvent::Arrival { .. }))
                        .iter()
                        .any(|t| dones.binary_search(t).is_ok());
                    prop_assert!(tied, "no arrival tied with an ExecDone");
                }
            }
        }
    }

    /// DeeBERT split at `boundaries`, every split on the same `gpus`
    /// V100s at batch `b0`, served with model parallelism OFF: under the
    /// kernel's phase barrier, closed loop over 8000 SST-2 requests.
    fn mp_off(boundaries: &[usize], gpus: usize, b0: usize) -> RunReport {
        let model = zoo::deebert();
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let cuts: Vec<usize> = std::iter::once(0)
            .chain(boundaries.iter().copied())
            .chain(std::iter::once(model.num_layers()))
            .collect();
        let stages = cuts
            .windows(2)
            .map(|w| StageSpec {
                layers: w[0]..w[1],
                target_batch: b0,
                replicas: vec![GpuKind::V100; gpus],
                deferred_exits: true,
            })
            .collect();
        let sim = ServingSim {
            pipelined: false,
            ..ServingSim::new(
                &model,
                zoo::default_policy("DeeBERT"),
                ctrl,
                InferenceSim::new(),
                stages,
                LatencyModel::new(),
                TransferModel::default(),
                ServingConfig::default(),
            )
        };
        let ds = DatasetModel::sst2();
        let mut rng = StdRng::seed_from_u64(1);
        let reqs: Vec<Request> = (0..8000)
            .map(|id| Request {
                id,
                arrival: SimTime::ZERO,
                hardness: ds.sample_hardness(&mut rng),
                output_tokens: 1,
            })
            .collect();
        sim.run(&reqs, 7, &mut NullObserver)
    }

    #[test]
    fn mp_off_completes_everything() {
        let r = mp_off(&[6], 4, 8);
        assert_eq!(r.completed, 8000);
        assert_eq!(r.dropped, 0);
        assert!(r.goodput() > 0.0);
    }

    #[test]
    fn mp_off_refusion_pays_barrier_costs() {
        // With one stage of the shared GPUs running at a time, re-fusing
        // at a boundary costs idle GPUs at the barrier and a transfer;
        // above GPU saturation that outweighs the refusion benefit —
        // exactly why the paper's MP-OFF mode underperforms.
        let none = mp_off(&[], 4, 8);
        let split = mp_off(&[6], 4, 8);
        assert!(split.goodput() > none.goodput() * 0.6, "not catastrophic");
        assert!(
            split.goodput() < none.goodput() * 1.1,
            "barriers must not be free: split {} none {}",
            split.goodput(),
            none.goodput()
        );
    }

    #[test]
    fn mp_off_more_gpus_more_goodput() {
        let small = mp_off(&[6], 2, 8);
        let big = mp_off(&[6], 8, 8);
        assert!(big.goodput() > small.goodput() * 1.5);
    }

    #[test]
    fn mp_off_is_deterministic() {
        let a = mp_off(&[4, 8], 4, 8);
        let b = mp_off(&[4, 8], 4, 8);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
    }

    #[test]
    fn mp_off_report_shape() {
        // Closed-loop rounds feed one full batch per GPU (8000 samples
        // are 250 rounds of 4 x 8); later stages re-form survivors, the
        // partial last batch included, so no stage ever holds more than
        // one round's 4 batches.
        let r = mp_off(&[4, 8], 4, 8);
        assert_eq!(r.mean_dispatch_batch[0], 8.0);
        assert!(r.mean_dispatch_batch[1..]
            .iter()
            .all(|&b| b > 0.0 && b <= 8.0));
        assert!(
            r.peak_queue_depth.iter().all(|&d| d <= 4),
            "{:?}",
            r.peak_queue_depth
        );
        assert!(r.stragglers_detected.is_empty());
        assert_eq!(r.exit_events.len() as u64, r.completed);
    }
}
