//! Deployment assembly: one builder from (model, strategy, cluster) to a
//! ready [`ServingSim`].
//!
//! Both the one-shot [`crate::harness`] and the windowed control loop in
//! [`crate::system`] used to assemble their simulators by hand, each with
//! its own copy of the per-stage fusion-wait derivation. This module is
//! the single home for that recipe: realize the strategy on the cluster,
//! derive the fusion waits from the plan, and wire the serving
//! configuration. A caller overrides only what its run varies: the ramp
//! controller, inference semantics, latency and transfer models, SLO,
//! open loop, fault plan and straggler detection.

use e3_hardware::{ClusterSpec, LatencyModel, TransferModel};
use e3_model::{EeModel, ExitPolicy, InferenceSim, RampController};
use e3_runtime::{FaultPlan, ServingConfig, ServingSim, Strategy, FUSION_MAX_WAIT};
use e3_simcore::SimDuration;

/// Builds a [`ServingSim`] from the deployment triple (model, strategy,
/// cluster) plus optional overrides. Defaults: all ramps enabled, stock
/// inference semantics, calibrated latency/transfer models, 100 ms SLO,
/// closed loop.
pub struct DeploymentBuilder<'m, 's> {
    model: &'m EeModel,
    policy: ExitPolicy,
    strategy: &'s Strategy,
    cluster: &'s ClusterSpec,
    ctrl: RampController,
    infer: InferenceSim,
    lm: LatencyModel,
    tm: TransferModel,
    slo: SimDuration,
    closed_loop: bool,
    horizon: Option<SimDuration>,
    fault_plan: FaultPlan,
    detect_stragglers: bool,
}

impl<'m, 's> DeploymentBuilder<'m, 's> {
    /// Starts a deployment of `model` serving `strategy` on `cluster`.
    /// The strategy and cluster are consumed at [`Self::build`] (realized
    /// into owned stages), so the simulator only borrows the model.
    pub fn new(
        model: &'m EeModel,
        policy: ExitPolicy,
        strategy: &'s Strategy,
        cluster: &'s ClusterSpec,
    ) -> Self {
        DeploymentBuilder {
            model,
            policy,
            strategy,
            cluster,
            ctrl: RampController::all_enabled(model.num_ramps(), policy.ramp_style()),
            infer: InferenceSim::new(),
            lm: LatencyModel::new(),
            tm: TransferModel::default(),
            slo: SimDuration::from_millis(100),
            closed_loop: true,
            horizon: None,
            fault_plan: FaultPlan::new(),
            detect_stragglers: false,
        }
    }

    /// Overrides the ramp controller (e.g. the exit-wrapper's pruned set).
    pub(crate) fn with_ctrl(mut self, ctrl: RampController) -> Self {
        self.ctrl = ctrl;
        self
    }

    /// Overrides the inference-semantics engine (dataset accuracy).
    pub fn with_inference(mut self, infer: InferenceSim) -> Self {
        self.infer = infer;
        self
    }

    /// Overrides the latency model (per-family exit overheads).
    pub fn with_latency_model(mut self, lm: LatencyModel) -> Self {
        self.lm = lm;
        self
    }

    /// Overrides the transfer model.
    pub(crate) fn with_transfer_model(mut self, tm: TransferModel) -> Self {
        self.tm = tm;
        self
    }

    /// Sets the latency SLO (drives goodput accounting, admission drops,
    /// and the fusion-wait ceiling).
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = slo;
        self
    }

    /// Switches to open-loop mode with the given report horizon.
    pub fn open_loop(mut self, horizon: SimDuration) -> Self {
        self.closed_loop = false;
        self.horizon = Some(horizon);
        self
    }

    /// Injects a deterministic fault schedule into the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables straggler detection/exclusion (§3.3).
    pub(crate) fn with_straggler_detection(mut self, on: bool) -> Self {
        self.detect_stragglers = on;
        self
    }

    /// Realizes the strategy and assembles the simulator.
    pub fn build(self) -> ServingSim<'m> {
        ServingSim::for_strategy(
            self.model,
            self.policy,
            self.ctrl,
            self.infer,
            self.strategy,
            self.cluster,
            self.lm,
            self.tm,
            ServingConfig {
                slo: self.slo,
                closed_loop: self.closed_loop,
                horizon: self.horizon,
                fusion_waits: fusion_waits(self.strategy, self.slo),
                fault_plan: self.fault_plan,
                detect_stragglers: self.detect_stragglers,
            },
        )
    }
}

/// Per-stage fusion waits: a stage that only a fraction `s_in` of the
/// batch reaches fills its buffer once per `cycle / s_in`, so it must be
/// allowed to wait about that long before flushing a partial batch, but
/// never less than [`FUSION_MAX_WAIT`].
pub fn fusion_waits(strategy: &Strategy, slo: SimDuration) -> Vec<SimDuration> {
    match strategy {
        Strategy::Plan(plan) => plan
            .splits
            .iter()
            .map(|split| {
                let s_in = if split.batch_time.is_zero() {
                    1.0
                } else {
                    (split.effective_time.as_secs_f64() * split.replicas as f64
                        / split.batch_time.as_secs_f64())
                    .clamp(0.05, 1.0)
                };
                plan.cycle_time
                    .mul_f64(1.5 / s_in)
                    .max(FUSION_MAX_WAIT)
                    .min(slo.mul_f64(0.6))
            })
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_hardware::GpuKind;
    use e3_model::zoo;
    use e3_workload::DatasetModel;

    #[test]
    fn builder_defaults_serve() {
        let model = zoo::bert_base();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 2, 2);
        let strategy = Strategy::Vanilla { batch: 8 };
        let sim = DeploymentBuilder::new(
            &model,
            ExitPolicy::Entropy { threshold: 0.4 },
            &strategy,
            &cluster,
        )
        .build();
        let ds = DatasetModel::sst2();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let reqs: Vec<e3_workload::Request> = (0..2000u64)
            .map(|id| e3_workload::Request {
                id,
                arrival: e3_simcore::SimTime::ZERO,
                hardness: ds.sample_hardness(&mut rng),
                output_tokens: 1,
            })
            .collect();
        let r = sim.run(&reqs, 1, &mut e3_runtime::kernel::NullObserver);
        assert_eq!(r.completed, 2000);
    }

    #[test]
    fn fusion_waits_only_for_plans() {
        let slo = SimDuration::from_millis(100);
        assert!(fusion_waits(&Strategy::Vanilla { batch: 8 }, slo).is_empty());
        assert!(fusion_waits(&Strategy::NaiveEe { batch: 8 }, slo).is_empty());
    }
}
