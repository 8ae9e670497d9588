//! The multi-tenant driver: joint allocation + per-tenant control loops
//! on one global clock.
//!
//! Time is divided into **allocation epochs** of `realloc_every`
//! scheduling windows. At each epoch boundary the driver measures every
//! tenant's current exit profile offline (the dataset active at the
//! epoch's first window), wraps each in a memoizing
//! [`e3_optimizer::ValueOracle`], and asks the
//! [`crate::ClusterAllocator`] for disjoint per-kind GPU shares. The
//! shares become disjoint [`ClusterSpec`] partitions, and every tenant
//! runs its own windowed E3 control loop on its partition.
//!
//! Tenants are independent given their partitions, but all their serving
//! happens on one shared time axis: each tenant's kernel events are
//! re-based onto its cumulative clock ([`OffsetObserver`]). Under
//! [`MultiTenantSystem::run_observed`] they are written into one
//! tenant-tagged [`TaggedEventLog`], whose time-ordered merge is the
//! cluster-wide trace; [`MultiTenantSystem::run`] keeps none of them.
//!
//! **Reconfiguration across epochs is guarded conservatively.** When an
//! epoch boundary leaves a tenant's partition unchanged, its control
//! loop continues uninterrupted — estimator state, incumbent plan, and
//! watchdog state all survive (consecutive same-partition epochs are
//! served by a single [`E3System`] run, so this holds bit-for-bit). When
//! the partition *changes*, the old incumbent plan references hardware
//! the tenant no longer owns, so the loop restarts in the cold-start
//! stance: plan for "no exits", observe, adapt — the same conservative
//! answer [`E3System`] gives a shrunken cluster. Within an epoch,
//! setting [`TenancyConfig::guarded`] additionally routes every
//! plan swap through the probe/canary/rollback state machine.

use e3::system::measure_profile;
use e3::{E3Config, E3System};
use e3_hardware::{ClusterSpec, LatencyModel, TransferModel};
use e3_model::{InferenceSim, RampController};
use e3_optimizer::{OptimizerConfig, ValueOracle};
use e3_runtime::kernel::{FaultPlan, NullObserver};
use e3_runtime::{OffsetObserver, RunObserver, TaggedEventLog};
use e3_simcore::{SeedSplitter, SimDuration, SimTime};
use e3_workload::DatasetModel;

use crate::allocator::{ClusterAllocator, Shares, TenantDemand};
use crate::report::{AllocationRecord, MultiTenantReport, TenantReport};
use crate::tenant::TenantSpec;

/// The SLO-attainment floor the operator holds every tenant against
/// (reported; benchmarks assert it).
pub const SLO_FLOOR: f64 = 0.5;

/// Knobs for a multi-tenant run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenancyConfig {
    /// Scheduling windows each tenant serves.
    pub windows: usize,
    /// Scheduling-window length (drives demand rates and phase mapping).
    pub window: SimDuration,
    /// Windows between allocation decisions; `0` allocates once up
    /// front.
    pub realloc_every: usize,
    /// Route within-epoch plan swaps through guarded probe/canary
    /// transitions (see [`e3::E3Config::guarded`]).
    pub guarded: bool,
    /// Experiment seed; all tenant streams derive from it.
    pub seed: u64,
    /// Samples per offline profile measurement at each epoch boundary.
    pub profile_samples: usize,
    /// Split bound passed to every tenant's optimizer.
    pub max_splits: usize,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            windows: 6,
            window: SimDuration::from_secs(2),
            realloc_every: 3,
            guarded: false,
            seed: 0,
            profile_samples: 2000,
            max_splits: 4,
        }
    }
}

/// One tenant's planning context for an epoch — owns everything the
/// borrowing [`ValueOracle`] needs.
struct PlanContext {
    ctrl: RampController,
    profile: e3_model::BatchProfile,
    tm: TransferModel,
    lm: LatencyModel,
    opt: OptimizerConfig,
}

/// N concurrent EE-DNN tenants on one shared cluster.
pub struct MultiTenantSystem {
    tenants: Vec<TenantSpec>,
    cluster: ClusterSpec,
    cfg: TenancyConfig,
}

impl MultiTenantSystem {
    /// Creates a multi-tenant deployment.
    ///
    /// # Panics
    ///
    /// Panics if there are no tenants, more tenants than GPUs, or zero
    /// windows.
    pub fn new(tenants: Vec<TenantSpec>, cluster: ClusterSpec, cfg: TenancyConfig) -> Self {
        assert!(
            !tenants.is_empty() && tenants.len() <= cluster.num_gpus(),
            "need 1..=num_gpus tenants"
        );
        assert!(cfg.windows > 0, "need at least one window");
        MultiTenantSystem {
            tenants,
            cluster,
            cfg,
        }
    }

    /// The tenant roster.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Runs the deployment under `allocator`, keeping no kernel events:
    /// each tenant's events are re-based onto the shared clock and then
    /// dropped, so segment bases and the report are those of
    /// [`Self::run_observed`].
    pub fn run(&self, allocator: &dyn ClusterAllocator) -> MultiTenantReport {
        self.serve(allocator, None)
    }

    /// Runs the deployment, streaming every tenant's kernel events —
    /// tagged by tenant index and re-based onto the shared clock — into
    /// `log`.
    pub fn run_observed(
        &self,
        allocator: &dyn ClusterAllocator,
        log: &mut TaggedEventLog,
    ) -> MultiTenantReport {
        self.serve(allocator, Some(log))
    }

    /// Allocates every epoch, then serves each tenant, writing its events
    /// into `log` when there is one.
    fn serve(
        &self,
        allocator: &dyn ClusterAllocator,
        mut log: Option<&mut TaggedEventLog>,
    ) -> MultiTenantReport {
        let seeds = SeedSplitter::new(self.cfg.seed);
        let step = if self.cfg.realloc_every == 0 {
            self.cfg.windows
        } else {
            self.cfg.realloc_every
        };
        let epoch_starts: Vec<usize> = (0..self.cfg.windows).step_by(step).collect();

        // Allocation decisions, one per epoch. Decisions depend on
        // offline profile measurements only, never on serving results,
        // so they are precomputable (and therefore identical whether or
        // not anything downstream reuses estimator state).
        let mut allocations: Vec<AllocationRecord> = Vec::with_capacity(epoch_starts.len());
        let mut partitions: Vec<Vec<ClusterSpec>> = Vec::with_capacity(epoch_starts.len());
        for (e, &ws) in epoch_starts.iter().enumerate() {
            let shares = self.allocate_epoch(allocator, e, ws, &seeds);
            partitions.push(self.cluster.partition(&shares));
            allocations.push(AllocationRecord {
                epoch: e,
                start_window: ws,
                shares,
            });
        }

        // Serve each tenant. Consecutive epochs with an identical
        // partition for a tenant collapse into one control-loop run
        // (estimator continuity); a partition change restarts the loop
        // in the conservative cold-start stance.
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let mut windows_out = Vec::new();
                let mut elapsed = SimDuration::ZERO;
                // Where the next segment's events may start: at least the
                // cumulative duration, but never before an already-emitted
                // trailing event (fault expiries land past `duration`).
                let mut base = SimTime::ZERO;
                let mut e = 0;
                while e < epoch_starts.len() {
                    let mut end = e + 1;
                    while end < epoch_starts.len() && partitions[end][t] == partitions[e][t] {
                        end += 1;
                    }
                    let ws = epoch_starts[e];
                    let we = epoch_starts.get(end).copied().unwrap_or(self.cfg.windows);
                    let phases: Vec<DatasetModel> = (ws..we)
                        .map(|w| spec.dataset_for_window(w, self.cfg.window).clone())
                        .collect();
                    let sys = E3System::new(
                        spec.model.clone(),
                        spec.policy,
                        partitions[e][t].clone(),
                        self.tenant_config(spec, &seeds, t, ws),
                    );
                    // Window-indexed fault plans on the tenant's own
                    // timeline, sliced to this segment (indices are
                    // partition-local).
                    let segment_faults: Vec<FaultPlan> = (ws..we)
                        .map(|w| spec.faults.get(w).cloned().unwrap_or_default())
                        .collect();
                    let mut tag;
                    let mut null = NullObserver;
                    let sink: &mut dyn RunObserver = match log.as_deref_mut() {
                        Some(log) => {
                            tag = log.tagged(t as u32);
                            &mut tag
                        }
                        None => &mut null,
                    };
                    // The high-water mark is the offset observer's own, so
                    // the next segment's base does not depend on the sink.
                    let mut off = OffsetObserver::new(base, sink);
                    let report = sys.run_windows_observed(&phases, &segment_faults, &mut off);
                    let high_water = off.high_water();
                    for (i, mut w) in report.windows.into_iter().enumerate() {
                        w.window = ws + i;
                        elapsed += w.run.duration;
                        windows_out.push(w);
                    }
                    base = (SimTime::ZERO + elapsed).max(high_water);
                    e = end;
                }
                TenantReport {
                    name: spec.name.clone(),
                    weight: spec.weight,
                    demand_rate: spec.demand_rate(self.cfg.window),
                    windows: windows_out,
                    elapsed,
                }
            })
            .collect();

        MultiTenantReport {
            allocator: allocator.name().to_string(),
            tenants,
            allocations,
            slo_floor: SLO_FLOOR,
        }
    }

    /// One epoch's allocation decision.
    fn allocate_epoch(
        &self,
        allocator: &dyn ClusterAllocator,
        epoch: usize,
        start_window: usize,
        seeds: &SeedSplitter,
    ) -> Shares {
        let ctxs: Vec<PlanContext> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let ctrl =
                    RampController::all_enabled(spec.model.num_ramps(), spec.policy.ramp_style());
                let dataset = spec.dataset_for_window(start_window, self.cfg.window);
                let profile = measure_profile(
                    &spec.model,
                    &spec.policy,
                    &ctrl,
                    &InferenceSim::new(),
                    dataset,
                    self.cfg.profile_samples,
                    seeds.derive_indexed(&format!("profile-t{t}"), epoch as u64),
                );
                PlanContext {
                    ctrl,
                    profile,
                    tm: TransferModel::default(),
                    lm: LatencyModel::new(),
                    opt: OptimizerConfig {
                        slo: spec.slo,
                        max_splits: self.cfg.max_splits,
                        ..Default::default()
                    },
                }
            })
            .collect();
        let mut oracles: Vec<ValueOracle<'_>> = self
            .tenants
            .iter()
            .zip(&ctxs)
            .map(|(spec, c)| {
                ValueOracle::new(
                    &spec.model,
                    &c.ctrl,
                    &c.profile,
                    spec.batch.max(1) as f64,
                    &c.tm,
                    &c.lm,
                    &c.opt,
                )
            })
            .collect();
        let demands: Vec<TenantDemand> = self
            .tenants
            .iter()
            .map(|spec| TenantDemand {
                demand_rate: spec.demand_rate(self.cfg.window),
                weight: spec.weight,
                slo: spec.slo,
            })
            .collect();
        allocator.allocate(&self.cluster, &demands, &mut oracles)
    }

    /// The per-tenant control-loop configuration for one run segment.
    fn tenant_config(
        &self,
        spec: &TenantSpec,
        seeds: &SeedSplitter,
        tenant: usize,
        segment_start: usize,
    ) -> E3Config {
        E3Config {
            seed: seeds.derive_indexed(&format!("tenant{tenant}-segment"), segment_start as u64),
            slo: spec.slo,
            batch: spec.batch,
            max_splits: self.cfg.max_splits,
            requests_per_window: spec.requests_per_window,
            guarded: self.cfg.guarded,
            ..Default::default()
        }
    }
}
