//! The E3 control loop (fig. 4).
//!
//! Time is divided into scheduling windows. In each window the system
//! serves with the plan computed from the *previous* window's forecast,
//! observes the realized batch-shrinkage profile from completion events,
//! feeds it to the EWMA estimator, and re-runs the DP optimizer for the
//! next window. Before any observation exists the estimator predicts "no
//! exits", so E3 boots as a stock data-parallel deployment and adapts
//! from there — exactly the conservative behaviour §3.1 calls for.
//!
//! Every window serves with all ramps enabled and stock inference
//! semantics; the exit-wrapper (§3.4) is measured by the one-shot
//! harness instead (fig. 25).

use e3_hardware::{ClusterSpec, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, ExitPolicy, InferenceSim, RampController};
use e3_optimizer::auto::plan_for_cluster;
use e3_optimizer::{OptimizerConfig, SplitPlan};
use e3_profiler::{BatchProfileEstimator, DriftWatchdog, WindowObserver};
use e3_runtime::{
    FaultPlan, KernelEvent, OffsetObserver, RunObserver, RunReport, ServingSim, Strategy,
};
use e3_simcore::{SeedSplitter, SimTime};
use e3_workload::{DatasetModel, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::E3Config;
use crate::deploy::DeploymentBuilder;
use crate::reconfig::{self, ReconfigDecision, ReconfigReport};
use crate::report::{E3Report, WindowReport};

/// A running E3 deployment: model + cluster + control loop.
pub struct E3System {
    model: EeModel,
    policy: ExitPolicy,
    cluster: ClusterSpec,
    cfg: E3Config,
    lm: LatencyModel,
    tm: TransferModel,
}

impl E3System {
    /// Creates a deployment for an EE model on a cluster.
    pub fn new(model: EeModel, policy: ExitPolicy, cluster: ClusterSpec, cfg: E3Config) -> Self {
        E3System {
            model,
            policy,
            cluster,
            cfg,
            lm: LatencyModel::new(),
            tm: TransferModel::default(),
        }
    }

    /// The optimizer configuration induced by this system's settings.
    fn optimizer_config(&self) -> OptimizerConfig {
        OptimizerConfig {
            slo: self.cfg.slo,
            max_splits: self.cfg.max_splits,
            ..Default::default()
        }
    }

    /// Runs one scheduling window per entry of `phases` (fig. 16 switches
    /// the dataset between phases; pass the same dataset repeatedly for a
    /// stationary workload), injecting `faults[w]` into window `w`'s
    /// serving run (windows past the end of `faults` run fault-free).
    /// Returns per-window predictions, observations, plans, and serving
    /// metrics, and streams every kernel event — re-based onto one global
    /// clock spanning all windows — plus the reconfiguration markers
    /// (`ReconfigStarted`, `CanaryPromoted`, `RolledBack`) to `observer`.
    ///
    /// Faults drive the recovery path §3.3 sketches: replicas crashed by
    /// a window's fault plan and never recovered within it are treated as
    /// permanently lost — the periodic re-optimization recomputes every
    /// subsequent window's plan against the shrunken cluster, so
    /// surviving replicas absorb the load in a configuration the DP
    /// optimizer actually chose for them.
    ///
    /// When [`E3Config::guarded`] is set, plan changes go through the
    /// guarded state machine instead of swapping instantly:
    ///
    /// * a [`DriftWatchdog`] consumes each window's realized drift; only a
    ///   *confirmed* regime change resets the estimator, and while the
    ///   watchdog is in safe mode the optimizer plans against the
    ///   pessimistic "no exits" profile (forecasts are presumed stale);
    /// * a window whose fresh plan differs from the incumbent serves in
    ///   three fully-drained segments — probe (incumbent), canary
    ///   (candidate), remainder (winner) — and the candidate is promoted
    ///   only if its canary held the probe's goodput and SLO attainment
    ///   (`reconfig::should_promote`); otherwise the loop rolls back
    ///   deterministically.
    ///
    /// With `guarded` off (the default) this is the naive instant-swap
    /// loop, bit-for-bit.
    pub fn run_windows_observed(
        &self,
        phases: &[DatasetModel],
        faults: &[FaultPlan],
        observer: &mut dyn RunObserver,
    ) -> E3Report {
        let seeds = SeedSplitter::new(self.cfg.seed);
        let mut estimator = BatchProfileEstimator::new(self.model.num_layers());
        let mut windows = Vec::with_capacity(phases.len());
        let mut cluster = self.cluster.clone();

        let guarded = self.cfg.guarded;
        let mut watchdog = DriftWatchdog::default();
        // The plan currently "deployed": survives across windows so a new
        // plan has something to canary against. Cleared when the cluster
        // shrinks (old plans reference replicas that no longer exist).
        let mut incumbent: Option<SplitPlan> = None;
        let mut epoch: u32 = 0;
        // Global clock: each window's (or segment's) events are re-based
        // so timestamps are monotone across the whole run.
        let mut clock = SimTime::ZERO;
        // Was *this* window planned with the safe-mode profile?
        let mut safe_mode = false;
        for (w, dataset) in phases.iter().enumerate() {
            let fault_plan = faults.get(w).cloned().unwrap_or_default();
            let predicted = estimator.forecast();
            // Safe mode distrusts the forecast entirely and plans as if
            // nothing exits — the same conservative stance as cold start.
            let planning = if guarded && safe_mode {
                DriftWatchdog::safe_profile(self.model.num_layers())
            } else {
                predicted.clone()
            };
            let planned_safe = guarded && safe_mode;
            let full_ctrl =
                RampController::all_enabled(self.model.num_ramps(), self.policy.ramp_style());
            let plan = plan_for_cluster(
                &self.model,
                &full_ctrl,
                &planning,
                &cluster,
                self.cfg.batch.max(1) as f64,
                &self.tm,
                &self.lm,
                &self.optimizer_config(),
            );

            // A guarded transition needs an incumbent to compare against,
            // an actual plan change, a fault-free window (fault recovery
            // has its own path), and enough requests to carve segments.
            let k = reconfig::segment_len(self.cfg.requests_per_window);
            let can_guard = guarded
                && fault_plan.is_empty()
                && k > 0
                && incumbent.as_ref().is_some_and(|inc| *inc != plan);

            // Serve the window.
            let mut rng = StdRng::seed_from_u64(seeds.derive_indexed("window-reqs", w as u64));
            let requests: Vec<Request> = (0..self.cfg.requests_per_window as u64)
                .map(|id| Request {
                    id,
                    arrival: e3_simcore::SimTime::ZERO,
                    hardness: dataset.sample_hardness(&mut rng),
                    output_tokens: 1,
                })
                .collect();

            // Guarded windows are fault-free (`can_guard`), so only the
            // faulted instant-swap path can emit past `run.duration`.
            let mut high_water = clock;
            let (run, winner_plan, reconfig) = if can_guard {
                let inc = incumbent.clone().expect("can_guard implies incumbent");
                epoch += 1;
                let (run, winner, report) = self.serve_window_guarded(
                    w, &seeds, &requests, &inc, &plan, &cluster, epoch, clock, observer,
                );
                (run, winner, Some(report))
            } else {
                let strategy = Strategy::Plan(plan.clone());
                let sim = self.deployment(&strategy, &cluster, fault_plan.clone());
                let mut off = OffsetObserver::new(clock, observer);
                let run = sim.run(
                    &requests,
                    seeds.derive_indexed("window-run", w as u64),
                    &mut off,
                );
                // Fault injections/expiries scheduled past the last
                // completion are emitted beyond `run.duration`; the next
                // window must start after them to keep the stream monotone.
                high_water = off.high_water();
                (run, plan, None)
            };
            let cluster_gpus = cluster.num_gpus();
            clock = (clock + run.duration).max(high_water);

            // Replicas lost for good this window shrink the cluster the
            // optimizer sees from the next window on.
            let strategy = Strategy::Plan(winner_plan.clone());
            let stages = strategy.realize(&self.model, &cluster);
            let replica_kinds: Vec<_> = stages.iter().flat_map(|s| s.replicas.clone()).collect();
            for rid in fault_plan.permanently_crashed() {
                if let Some(&kind) = replica_kinds.get(rid) {
                    if cluster.num_gpus() > 1 {
                        cluster = cluster.without(kind, 1);
                    }
                }
            }
            incumbent = if cluster.num_gpus() < cluster_gpus {
                None
            } else {
                Some(winner_plan.clone())
            };

            // Observe the realized profile.
            let mut obs = WindowObserver::new(self.model.num_layers());
            for e in &run.exit_events {
                if e.exited_early {
                    obs.record_exit(usize::from(e.layers_executed) - 1);
                } else {
                    obs.record_completion();
                }
            }
            let observed = obs.profile();
            let drift = observed.as_ref().map_or(0.0, |o| estimator.drift(o));
            let mut watchdog_triggered = false;
            if guarded {
                // The watchdog decides: instant single-window spikes are
                // absorbed; only confirmed drift resets the estimator, and
                // entering safe mode pessimizes the *next* window's plan.
                let verdict = watchdog.observe(observed.as_ref().map(|_| drift));
                if verdict.reset_estimator {
                    estimator.reset_history();
                }
                watchdog_triggered = verdict.entered_safe_mode.is_some();
                safe_mode = watchdog.in_safe_mode();
                if let Some(o) = &observed {
                    estimator.observe_window(o);
                }
            } else if let Some(o) = &observed {
                // Reactive correction (§3.1): a drastic mismatch means
                // the workload regime changed; forget the dead trend so
                // the next forecast tracks the new one immediately.
                if estimator.drift_exceeds(o) {
                    estimator.reset_history();
                }
                estimator.observe_window(o);
            }

            windows.push(WindowReport {
                window: w,
                predicted,
                observed,
                plan: winner_plan,
                run,
                drift,
                cluster_gpus,
                reconfig,
                safe_mode: planned_safe,
                watchdog_triggered,
                brownout_level: 0,
            });
        }
        E3Report { windows }
    }

    /// Assembles the serving simulator for one window (or one guarded
    /// segment) of the control loop: every ramp enabled, stock inference
    /// semantics.
    fn deployment<'a>(
        &'a self,
        strategy: &'a Strategy,
        cluster: &'a ClusterSpec,
        fault_plan: FaultPlan,
    ) -> ServingSim<'a> {
        DeploymentBuilder::new(&self.model, self.policy, strategy, cluster)
            .with_latency_model(self.lm)
            .with_transfer_model(self.tm)
            .with_slo(self.cfg.slo)
            .with_fault_plan(fault_plan)
            .build()
    }

    /// One guarded plan transition (the window's serving path when the
    /// fresh plan differs from the incumbent): probe the incumbent on a
    /// slice of the window's requests, canary the candidate on an equal
    /// slice, promote or roll back by paired comparison, and serve the
    /// remainder with the winner. Each segment is a complete kernel run —
    /// its event queue drains before the next segment starts, so no batch
    /// ever straddles two plans (the "epoch drain").
    ///
    /// Returns the merged window report (segments concatenated onto one
    /// clock), the winning plan, and the transition record.
    #[allow(clippy::too_many_arguments)]
    fn serve_window_guarded(
        &self,
        w: usize,
        seeds: &SeedSplitter,
        requests: &[Request],
        incumbent: &SplitPlan,
        candidate: &SplitPlan,
        cluster: &ClusterSpec,
        epoch: u32,
        clock: SimTime,
        observer: &mut dyn RunObserver,
    ) -> (RunReport, SplitPlan, ReconfigReport) {
        let n = requests.len();
        let k = reconfig::segment_len(n);
        debug_assert!(k > 0 && 2 * k < n, "caller checked segment_len");
        let inc_strategy = Strategy::Plan(incumbent.clone());
        let cand_strategy = Strategy::Plan(candidate.clone());
        let inc_sim = self.deployment(&inc_strategy, cluster, FaultPlan::new());
        let cand_sim = self.deployment(&cand_strategy, cluster, FaultPlan::new());

        observer.on_event(clock, &KernelEvent::ReconfigStarted { epoch });
        let probe = {
            let mut off = OffsetObserver::new(clock, observer);
            inc_sim.run(
                &requests[..k],
                seeds.derive_indexed("reconfig-probe", w as u64),
                &mut off,
            )
        };
        let t1 = clock + probe.duration;
        let canary = {
            let mut off = OffsetObserver::new(t1, observer);
            cand_sim.run(
                &requests[k..2 * k],
                seeds.derive_indexed("reconfig-canary", w as u64),
                &mut off,
            )
        };
        let t2 = t1 + canary.duration;

        let promote = reconfig::should_promote(&probe, &canary);
        let decision = if promote {
            observer.on_event(t2, &KernelEvent::CanaryPromoted { epoch });
            ReconfigDecision::Promoted
        } else {
            observer.on_event(t2, &KernelEvent::RolledBack { epoch });
            ReconfigDecision::RolledBack
        };
        let report = ReconfigReport::new(epoch, decision, &probe, &canary, k);
        let (winner_sim, winner_plan) = if promote {
            (&cand_sim, candidate)
        } else {
            (&inc_sim, incumbent)
        };

        let rest = {
            let mut off = OffsetObserver::new(t2, observer);
            winner_sim.run(
                &requests[2 * k..],
                seeds.derive_indexed("reconfig-rest", w as u64),
                &mut off,
            )
        };
        let run = RunReport::concat(vec![probe, canary, rest]);
        (run, winner_plan.clone(), report)
    }

    /// The model served by this system.
    pub fn model(&self) -> &EeModel {
        &self.model
    }
}

/// Bootstraps a batch profile by measuring exit behaviour offline —
/// what the paper's deployment gets from its first profiling window.
pub fn measure_profile(
    model: &EeModel,
    policy: &ExitPolicy,
    ctrl: &RampController,
    infer: &InferenceSim,
    dataset: &DatasetModel,
    n: usize,
    seed: u64,
) -> BatchProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let hs = dataset.sample_hardnesses(n, &mut rng);
    infer.exit_profile(model, policy, ctrl, &hs, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::zoo;
    use e3_runtime::kernel::NullObserver;

    fn stationary(sys: &E3System, dataset: DatasetModel, windows: usize) -> E3Report {
        sys.run_windows_observed(&vec![dataset; windows], &[], &mut NullObserver)
    }

    fn small_cfg() -> E3Config {
        E3Config {
            requests_per_window: 4000,
            ..Default::default()
        }
    }

    #[test]
    fn first_window_boots_conservatively() {
        let sys = E3System::new(
            zoo::deebert(),
            zoo::default_policy("DeeBERT"),
            ClusterSpec::paper_homogeneous_v100(),
            small_cfg(),
        );
        let report = stationary(&sys, DatasetModel::sst2(), 3);
        assert_eq!(report.windows.len(), 3);
        // Window 0 predicts no exits -> single split.
        assert_eq!(report.windows[0].plan.num_splits(), 1);
        // After observing, the optimizer starts splitting.
        assert!(
            report.windows[2].plan.num_splits() >= 2,
            "{}",
            report.windows[2].plan
        );
        // And goodput improves once adapted.
        assert!(
            report.windows[2].run.goodput() > report.windows[0].run.goodput(),
            "w2 {} w0 {}",
            report.windows[2].run.goodput(),
            report.windows[0].run.goodput()
        );
    }

    #[test]
    fn adapts_to_phase_change() {
        let sys = E3System::new(
            zoo::deebert(),
            zoo::default_policy("DeeBERT"),
            ClusterSpec::paper_homogeneous_v100(),
            small_cfg(),
        );
        // Easy workload, then hard.
        let phases = vec![
            DatasetModel::with_mix(0.8),
            DatasetModel::with_mix(0.8),
            DatasetModel::with_mix(0.8),
            DatasetModel::with_mix(0.2),
            DatasetModel::with_mix(0.2),
            DatasetModel::with_mix(0.2),
        ];
        let report = sys.run_windows_observed(&phases, &[], &mut NullObserver);
        // Drift spikes at the regime change (window 3) relative to the
        // settled easy phase (window 2).
        assert!(
            report.windows[3].drift > report.windows[2].drift,
            "drift w3 {} w2 {}",
            report.windows[3].drift,
            report.windows[2].drift
        );
        // The estimator re-converges by the last window.
        assert!(
            report.windows[5].drift < report.windows[3].drift,
            "w5 {} w3 {}",
            report.windows[5].drift,
            report.windows[3].drift
        );
    }

    #[test]
    fn measured_profile_is_sane() {
        let m = zoo::deebert();
        let ctrl =
            RampController::all_enabled(m.num_ramps(), zoo::default_policy("DeeBERT").ramp_style());
        let p = measure_profile(
            &m,
            &zoo::default_policy("DeeBERT"),
            &ctrl,
            &InferenceSim::new(),
            &DatasetModel::sst2(),
            3000,
            1,
        );
        assert_eq!(p.num_layers(), 12);
        assert!(p.survival_at(12) < 0.5, "most samples exit early");
    }
}
