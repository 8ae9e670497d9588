//! The scenario matrix: composed-subsystem stress runs with online
//! invariant checking.
//!
//! Every grown subsystem — faults, guarded reconfiguration,
//! multi-tenancy, continuous batching with KV preemption, adaptive exit
//! policies — is correct in isolation; the matrix checks them *composed*.
//! A [`ScenarioCell`] picks one value per axis ({arrival pattern} ×
//! {hardness drift} × {fault plan} × {tenancy skew} × {guarded on/off} ×
//! {exit policy}), and [`ScenarioMatrix::run`] drives each cell through
//! two legs:
//!
//! 1. a **tenancy leg** — three NLP tenants on a shared cluster under
//!    [`MultiTenantSystem`] with per-tenant fault plans, validated
//!    per-tenant by a [`StreamScope::Windowed`] checker; and
//! 2. a **continuous leg** — two chunks of autoregressive serving through
//!    [`run_continuous`] under KV pressure, validated online by a
//!    [`StreamScope::SingleRun`] checker riding the kernel loop; the
//!    exit-policy axis swaps a fixed entropy threshold for the
//!    [`OnlineThresholdTuner`] retuned between chunks.
//!
//! Runs are deterministic from one seed. On a failing cell the matrix
//! greedily shrinks the cell toward the baseline (steady / stationary /
//! fault-free / even / unguarded / fixed) while the failure reproduces,
//! and reports the minimal failing cell with its seed.

use std::fmt::Write as _;

use e3::OnlineThresholdTuner;
use e3_hardware::{ClusterSpec, GpuKind, LatencyModel};
use e3_model::{zoo, ExitPolicy, InferenceSim, RampController};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, KvPlan, PreemptMode, TaggedEventLog,
};
use e3_simcore::{SeedSplitter, SimDuration, SimTime};
use e3_tenancy::{MarginalGoodput, MultiTenantSystem, TenancyConfig, TenantSpec};
use e3_workload::{DatasetModel, Phase};

use crate::invariant::{CheckerConfig, InvariantChecker, InvariantClass, StreamScope, Violation};

/// Offered-load shape across the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Uniform demand: every tenant (and every continuous chunk) offers
    /// the same load.
    Steady,
    /// A burst: tenant 0 offers 4× the others' demand, and the second
    /// continuous chunk carries 5× the first's sequences.
    Bursty,
}

/// Input-hardness dynamics across the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardnessDrift {
    /// One hardness mixture for the whole run.
    Stationary,
    /// Tenants drift easy↔hard out of phase mid-horizon; the continuous
    /// leg switches datasets between chunks.
    Drifting,
}

/// Fault plan injected into both legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSeverity {
    /// Fault-free.
    None,
    /// A replica crash followed by a delayed recovery.
    CrashRecover,
    /// A transient slowdown plus a dispatch stall.
    SlowdownStall,
}

/// Priority skew across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenancySkew {
    /// Equal priority weights.
    Even,
    /// Tenant 0 carries 4× priority weight.
    Skewed,
}

/// Exit-policy regime for the continuous leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitPolicyMode {
    /// The paper's static entropy threshold.
    Fixed,
    /// The [`OnlineThresholdTuner`], retuned between chunks toward a
    /// target exit rate.
    Adaptive,
}

/// One point of the composed-scenario space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioCell {
    /// Offered-load shape.
    pub arrival: ArrivalPattern,
    /// Hardness dynamics.
    pub drift: HardnessDrift,
    /// Injected faults.
    pub faults: FaultSeverity,
    /// Tenant priority skew.
    pub skew: TenancySkew,
    /// Guarded reconfiguration on the tenancy leg.
    pub guarded: bool,
    /// Exit-policy regime on the continuous leg.
    pub exit: ExitPolicyMode,
}

impl ScenarioCell {
    /// The all-baseline cell every shrink step moves toward.
    pub fn baseline() -> Self {
        ScenarioCell {
            arrival: ArrivalPattern::Steady,
            drift: HardnessDrift::Stationary,
            faults: FaultSeverity::None,
            skew: TenancySkew::Even,
            guarded: false,
            exit: ExitPolicyMode::Fixed,
        }
    }

    /// Compact display label, one token per axis.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}",
            match self.arrival {
                ArrivalPattern::Steady => "steady",
                ArrivalPattern::Bursty => "bursty",
            },
            match self.drift {
                HardnessDrift::Stationary => "stationary",
                HardnessDrift::Drifting => "drifting",
            },
            match self.faults {
                FaultSeverity::None => "no-fault",
                FaultSeverity::CrashRecover => "crash",
                FaultSeverity::SlowdownStall => "slow+stall",
            },
            match self.skew {
                TenancySkew::Even => "even",
                TenancySkew::Skewed => "skewed",
            },
            if self.guarded { "guarded" } else { "unguarded" },
            match self.exit {
                ExitPolicyMode::Fixed => "fixed",
                ExitPolicyMode::Adaptive => "adaptive",
            },
        )
    }

    /// Every cell one axis-step closer to the baseline (the shrink
    /// candidates).
    fn reductions(&self) -> Vec<ScenarioCell> {
        let base = ScenarioCell::baseline();
        let mut out = Vec::new();
        if self.arrival != base.arrival {
            out.push(ScenarioCell {
                arrival: base.arrival,
                ..*self
            });
        }
        if self.drift != base.drift {
            out.push(ScenarioCell {
                drift: base.drift,
                ..*self
            });
        }
        if self.faults != base.faults {
            out.push(ScenarioCell {
                faults: base.faults,
                ..*self
            });
        }
        if self.skew != base.skew {
            out.push(ScenarioCell {
                skew: base.skew,
                ..*self
            });
        }
        if self.guarded != base.guarded {
            out.push(ScenarioCell {
                guarded: base.guarded,
                ..*self
            });
        }
        if self.exit != base.exit {
            out.push(ScenarioCell {
                exit: base.exit,
                ..*self
            });
        }
        out
    }
}

/// What one cell's composed run produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: ScenarioCell,
    /// Kernel events validated across both legs.
    pub events_checked: u64,
    /// Invariant violations, stream order (empty = pass).
    pub violations: Vec<Violation>,
    /// Tenancy-leg aggregate goodput over the shared horizon.
    pub tenancy_goodput: f64,
    /// Continuous-leg completions per second (both chunks).
    pub continuous_goodput: f64,
}

impl CellOutcome {
    /// True when every invariant held.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The whole matrix run: per-cell outcomes plus a shrunk repro when any
/// cell failed.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// The seed every cell ran under.
    pub seed: u64,
    /// Outcomes, in cell order.
    pub cells: Vec<CellOutcome>,
    /// The minimal failing cell (greedy per-axis shrink toward the
    /// baseline), when any cell failed.
    pub shrunk_repro: Option<ScenarioCell>,
}

impl MatrixOutcome {
    /// True when every cell passed.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(CellOutcome::pass)
    }

    /// Total kernel events validated.
    pub fn events_checked(&self) -> u64 {
        self.cells.iter().map(|c| c.events_checked).sum()
    }

    /// A compact pass/fail/violation report. Deterministic for a given
    /// seed and cell list (golden-pinned by the `fig_matrix` bench).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<58} {:>8} {:>6} {:>7}  status",
            "cell (arrival/drift/faults/skew/guard/exit)", "events", "viols", "tput/s"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<58} {:>8} {:>6} {:>7.0}  {}",
                c.cell.label(),
                c.events_checked,
                c.violations.len(),
                c.tenancy_goodput + c.continuous_goodput,
                if c.pass() { "pass" } else { "FAIL" },
            );
        }
        if !self.pass() {
            let _ = writeln!(out, "\nviolations (first 5 per failing cell):");
            for c in self.cells.iter().filter(|c| !c.pass()) {
                for v in c.violations.iter().take(5) {
                    let _ = writeln!(out, "  {} :: {v}", c.cell.label());
                }
            }
            if let Some(min) = &self.shrunk_repro {
                let _ = writeln!(
                    out,
                    "\nshrunk repro: cell {} seed {:#x}",
                    min.label(),
                    self.seed
                );
            }
        }
        out
    }
}

/// The scenario-matrix driver.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioMatrix {
    /// Seed every cell's run derives from.
    pub seed: u64,
}

impl ScenarioMatrix {
    /// A matrix driver over `seed`.
    pub fn new(seed: u64) -> Self {
        ScenarioMatrix { seed }
    }

    /// The pruned smoke subset: every axis value appears at least twice,
    /// adversarial pairings (faults × guarded × skew, drift × adaptive ×
    /// burst) are present, and the whole set runs in well under the CI
    /// budget.
    pub fn smoke_cells() -> Vec<ScenarioCell> {
        use ArrivalPattern::*;
        use ExitPolicyMode::*;
        use FaultSeverity::*;
        use HardnessDrift::*;
        use TenancySkew::*;
        let cell = |arrival, drift, faults, skew, guarded, exit| ScenarioCell {
            arrival,
            drift,
            faults,
            skew,
            guarded,
            exit,
        };
        vec![
            ScenarioCell::baseline(),
            cell(Steady, Stationary, CrashRecover, Even, false, Fixed),
            cell(Steady, Drifting, CrashRecover, Skewed, true, Fixed),
            cell(Bursty, Drifting, None, Skewed, true, Adaptive),
            cell(Bursty, Stationary, SlowdownStall, Even, false, Adaptive),
            cell(Steady, Drifting, SlowdownStall, Skewed, false, Adaptive),
            cell(Bursty, Drifting, CrashRecover, Even, true, Adaptive),
            cell(Bursty, Stationary, SlowdownStall, Skewed, true, Fixed),
        ]
    }

    /// The full cross product: 2 × 2 × 3 × 2 × 2 × 2 = 96 cells.
    pub fn full_cells() -> Vec<ScenarioCell> {
        let mut out = Vec::new();
        for arrival in [ArrivalPattern::Steady, ArrivalPattern::Bursty] {
            for drift in [HardnessDrift::Stationary, HardnessDrift::Drifting] {
                for faults in [
                    FaultSeverity::None,
                    FaultSeverity::CrashRecover,
                    FaultSeverity::SlowdownStall,
                ] {
                    for skew in [TenancySkew::Even, TenancySkew::Skewed] {
                        for guarded in [false, true] {
                            for exit in [ExitPolicyMode::Fixed, ExitPolicyMode::Adaptive] {
                                out.push(ScenarioCell {
                                    arrival,
                                    drift,
                                    faults,
                                    skew,
                                    guarded,
                                    exit,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Runs `cells`, shrinking the first failure (if any) to a minimal
    /// repro.
    pub fn run(&self, cells: &[ScenarioCell]) -> MatrixOutcome {
        self.assemble(cells.iter().map(|c| self.run_cell(*c)).collect())
    }

    /// Builds a [`MatrixOutcome`] from per-cell outcomes produced
    /// elsewhere — each cell is deterministic from the seed alone, so a
    /// driver may run [`ScenarioMatrix::run_cell`] on any thread in any
    /// order and hand the outcomes back *in cell order*. Shrinks the
    /// first failure exactly as [`ScenarioMatrix::run`] would.
    pub fn assemble(&self, outcomes: Vec<CellOutcome>) -> MatrixOutcome {
        let shrunk_repro = outcomes
            .iter()
            .find(|o| !o.pass())
            .map(|o| self.shrink(o.cell));
        MatrixOutcome {
            seed: self.seed,
            cells: outcomes,
            shrunk_repro,
        }
    }

    /// Greedy shrink: repeatedly take any one-axis reduction toward the
    /// baseline that still fails, until none does.
    fn shrink(&self, failing: ScenarioCell) -> ScenarioCell {
        let mut current = failing;
        loop {
            let next = current
                .reductions()
                .into_iter()
                .find(|r| !self.run_cell(*r).pass());
            match next {
                Some(r) => current = r,
                None => return current,
            }
        }
    }

    /// Runs one cell: the tenancy leg and the continuous leg, each under
    /// its invariant checker.
    pub fn run_cell(&self, cell: ScenarioCell) -> CellOutcome {
        let mut events = 0u64;
        let mut violations = Vec::new();

        let tenancy_goodput = self.run_tenancy_leg(cell, &mut events, &mut violations);
        let continuous_goodput = self.run_continuous_leg(cell, &mut events, &mut violations);

        CellOutcome {
            cell,
            events_checked: events,
            violations,
            tenancy_goodput,
            continuous_goodput,
        }
    }

    /// Three NLP tenants on 6 V100s under joint allocation, with
    /// per-tenant window-indexed fault plans; each tenant's re-based
    /// stream is replayed through a windowed-scope checker.
    fn run_tenancy_leg(
        &self,
        cell: ScenarioCell,
        events: &mut u64,
        violations: &mut Vec<Violation>,
    ) -> f64 {
        let cfg = TenancyConfig {
            windows: 4,
            realloc_every: 2,
            guarded: cell.guarded,
            seed: SeedSplitter::new(self.seed).derive("matrix-tenancy"),
            profile_samples: 400,
            max_splits: 2,
            ..Default::default()
        };
        let horizon = cfg.window * cfg.windows as u64;
        let tenants: Vec<TenantSpec> = (0..3)
            .map(|i| {
                let phases = match cell.drift {
                    HardnessDrift::Stationary => vec![Phase {
                        dataset: DatasetModel::with_mix(0.6),
                        duration: horizon,
                    }],
                    HardnessDrift::Drifting => {
                        let (a, b) = if i % 2 == 0 { (0.8, 0.35) } else { (0.35, 0.8) };
                        vec![
                            Phase {
                                dataset: DatasetModel::with_mix(a),
                                duration: horizon / 2,
                            },
                            Phase {
                                dataset: DatasetModel::with_mix(b),
                                duration: horizon / 2,
                            },
                        ]
                    }
                };
                let demand = match cell.arrival {
                    ArrivalPattern::Steady => 300,
                    ArrivalPattern::Bursty => {
                        if i == 0 {
                            600
                        } else {
                            150
                        }
                    }
                };
                let weight = match cell.skew {
                    TenancySkew::Even => 1.0,
                    TenancySkew::Skewed => {
                        if i == 0 {
                            4.0
                        } else {
                            1.0
                        }
                    }
                };
                let faults = if i == 0 {
                    tenancy_faults(cell.faults)
                } else {
                    vec![]
                };
                TenantSpec::nlp(&format!("tenant{i}"), phases)
                    .with_demand(demand)
                    .with_weight(weight)
                    .with_faults(faults)
            })
            .collect();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 6, 2);
        let sys = MultiTenantSystem::new(tenants, cluster, cfg);
        let mut log = TaggedEventLog::new();
        let report = sys.run_observed(&MarginalGoodput::default(), &mut log);
        for t in 0..3u32 {
            *events += log.for_tag(t).len() as u64;
            violations.extend(InvariantChecker::check_tagged(
                CheckerConfig {
                    scope: StreamScope::Windowed,
                    ..Default::default()
                },
                &log,
                t,
            ));
        }
        report.aggregate_goodput()
    }

    /// Two chunks of CALM-T5 continuous batching under KV pressure; the
    /// checker rides the kernel loop online, and the exit-policy axis
    /// retunes the entropy threshold between chunks.
    fn run_continuous_leg(
        &self,
        cell: ScenarioCell,
        events: &mut u64,
        violations: &mut Vec<Violation>,
    ) -> f64 {
        let model = zoo::calm_t5();
        let lm = LatencyModel::new();
        let seeds = SeedSplitter::new(self.seed);
        // `None` is the fixed entropy-0.4 policy.
        let mut tuner = match cell.exit {
            ExitPolicyMode::Fixed => None,
            ExitPolicyMode::Adaptive => Some(OnlineThresholdTuner::new(0.4, 0.6, 0.5)),
        };
        let chunk_sizes: [usize; 2] = match cell.arrival {
            ArrivalPattern::Steady => [120, 120],
            ArrivalPattern::Bursty => [40, 200],
        };
        let mut completed = 0u64;
        let mut elapsed = 0.0f64;
        for (chunk, &n) in chunk_sizes.iter().enumerate() {
            let ds = match (chunk, cell.drift) {
                (1, HardnessDrift::Drifting) => DatasetModel::samsum(),
                _ => DatasetModel::wmt(),
            };
            let exit_policy = tuner.as_ref().map_or(
                ExitPolicy::Entropy { threshold: 0.4 },
                OnlineThresholdTuner::policy,
            );
            let ctrl = RampController::all_enabled(model.num_ramps(), exit_policy.ramp_style());
            let infer = InferenceSim::with_accuracy(ds.base_accuracy);
            let specs = materialize_sequences(
                &model,
                &exit_policy,
                &ctrl,
                &infer,
                &ds,
                n,
                seeds.derive_indexed("matrix-continuous", chunk as u64),
            );
            // Realized early-exit fraction of the chunk's token stream,
            // fed back to the adaptive policy for the next chunk.
            if let Some(tuner) = &mut tuner {
                let full = model.num_layers();
                let total: usize = specs.iter().map(|s| s.tokens.len()).sum();
                let exited = specs
                    .iter()
                    .flat_map(|s| s.tokens.iter())
                    .filter(|t| t.layers_executed < full)
                    .count();
                tuner.observe_window(exited as f64 / total.max(1) as f64);
            }

            let kv_cap = 256;
            let cfg = ContinuousConfig {
                model: &model,
                ctrl: &ctrl,
                gpu: GpuKind::A6000,
                lm: &lm,
                join: JoinPolicy::Continuous,
                b0: 8,
                replicas_a: 2,
                boundary: None,
                replicas_b: 0,
                deferred_exits: false,
                kv: Some(KvPlan {
                    capacity_tokens: kv_cap,
                    bytes_per_token: model.autoreg().expect("autoreg").kv_bytes_per_token,
                    mode: PreemptMode::Recompute,
                }),
                slo: SimDuration::from_secs(86_400),
                fault_plan: continuous_faults(cell.faults),
                b_max_wait: None,
            };
            let mut checker = InvariantChecker::new(CheckerConfig {
                scope: StreamScope::SingleRun,
                kv_capacity_tokens: Some(kv_cap),
                queue_cap: None,
            });
            let outcome = run_continuous(&cfg, &specs, &mut checker);
            *events += checker.events_seen();
            if outcome.report.completed + outcome.leftover != specs.len() as u64 {
                violations.push(Violation {
                    at: SimTime::ZERO,
                    class: InvariantClass::SampleConservation,
                    detail: format!(
                        "chunk {chunk}: {} completed + {} leftover != {} offered",
                        outcome.report.completed,
                        outcome.leftover,
                        specs.len()
                    ),
                });
            }
            violations.extend(checker.finish());
            completed += outcome.report.completed;
            elapsed += outcome.report.duration.as_secs_f64();
        }
        if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        }
    }
}

/// Window-indexed fault plans for tenant 0's control loop
/// (partition-local indices: replica 0 / stage 0 exist in any plan).
fn tenancy_faults(severity: FaultSeverity) -> Vec<FaultPlan> {
    match severity {
        FaultSeverity::None => vec![],
        FaultSeverity::CrashRecover => vec![
            FaultPlan::new(),
            FaultPlan::new()
                .crash(0, SimTime::from_millis(100))
                .recover(0, SimTime::from_millis(900)),
        ],
        FaultSeverity::SlowdownStall => vec![
            FaultPlan::new(),
            FaultPlan::new().slowdown(0, 2.5, SimTime::from_millis(100), SimTime::from_millis(700)),
            FaultPlan::new().stall(0, SimTime::from_millis(100), SimTime::from_millis(400)),
        ],
    }
}

/// The continuous leg's fault plan (2 stage-A replicas, single stage).
fn continuous_faults(severity: FaultSeverity) -> FaultPlan {
    match severity {
        FaultSeverity::None => FaultPlan::new(),
        FaultSeverity::CrashRecover => FaultPlan::new()
            .crash(0, SimTime::from_millis(1))
            .recover(0, SimTime::from_millis(10)),
        FaultSeverity::SlowdownStall => FaultPlan::new()
            .slowdown(1, 3.0, SimTime::from_millis(1), SimTime::from_millis(10))
            .stall(0, SimTime::from_millis(2), SimTime::from_millis(6)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_cover_every_axis_value() {
        let cells = ScenarioMatrix::smoke_cells();
        assert!(cells.iter().any(|c| c.arrival == ArrivalPattern::Steady));
        assert!(cells.iter().any(|c| c.arrival == ArrivalPattern::Bursty));
        assert!(cells.iter().any(|c| c.drift == HardnessDrift::Stationary));
        assert!(cells.iter().any(|c| c.drift == HardnessDrift::Drifting));
        assert!(cells.iter().any(|c| c.faults == FaultSeverity::None));
        assert!(cells
            .iter()
            .any(|c| c.faults == FaultSeverity::CrashRecover));
        assert!(cells
            .iter()
            .any(|c| c.faults == FaultSeverity::SlowdownStall));
        assert!(cells.iter().any(|c| c.skew == TenancySkew::Even));
        assert!(cells.iter().any(|c| c.skew == TenancySkew::Skewed));
        assert!(cells.iter().any(|c| c.guarded));
        assert!(cells.iter().any(|c| !c.guarded));
        assert!(cells.iter().any(|c| c.exit == ExitPolicyMode::Fixed));
        assert!(cells.iter().any(|c| c.exit == ExitPolicyMode::Adaptive));
    }

    #[test]
    fn full_matrix_is_the_cross_product() {
        let cells = ScenarioMatrix::full_cells();
        assert_eq!(cells.len(), 96);
        // All distinct.
        for (i, a) in cells.iter().enumerate() {
            assert!(!cells[i + 1..].contains(a), "duplicate cell {}", a.label());
        }
    }

    #[test]
    fn reductions_step_toward_baseline() {
        let worst = ScenarioCell {
            arrival: ArrivalPattern::Bursty,
            drift: HardnessDrift::Drifting,
            faults: FaultSeverity::CrashRecover,
            skew: TenancySkew::Skewed,
            guarded: true,
            exit: ExitPolicyMode::Adaptive,
        };
        assert_eq!(worst.reductions().len(), 6);
        assert!(ScenarioCell::baseline().reductions().is_empty());
    }

    #[test]
    fn one_adversarial_cell_passes_clean() {
        let m = ScenarioMatrix::new(0xE3);
        let out = m.run_cell(ScenarioCell {
            arrival: ArrivalPattern::Bursty,
            drift: HardnessDrift::Drifting,
            faults: FaultSeverity::CrashRecover,
            skew: TenancySkew::Skewed,
            guarded: true,
            exit: ExitPolicyMode::Adaptive,
        });
        assert!(
            out.pass(),
            "violations: {:?}",
            out.violations.iter().take(5).collect::<Vec<_>>()
        );
        assert!(out.events_checked > 0);
    }
}
