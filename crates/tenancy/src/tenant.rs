//! Per-tenant serving contracts.
//!
//! A tenant is one EE-DNN deployment sharing the cluster with others: a
//! model + exit policy, an SLO, a demand level, a priority weight, and a
//! phased workload on the tenant's own timeline. Tenants constructed
//! with phase-shifted [`WorkloadGenerator`]s burst out of phase with each
//! other — the regime where joint allocation has something to exploit.

use e3_model::{zoo, EeModel, ExitPolicy};
use e3_runtime::kernel::FaultPlan;
use e3_simcore::{SimDuration, SimTime};
use e3_workload::{ArrivalProcess, DatasetModel, Phase, WorkloadGenerator};

/// One tenant's serving contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (table rows, event-stream legends).
    pub name: String,
    /// The EE-DNN this tenant serves.
    pub model: EeModel,
    /// The tenant's exit policy.
    pub policy: ExitPolicy,
    /// Per-tenant latency SLO.
    pub slo: SimDuration,
    /// Priority weight: the allocator values this tenant's goodput gains
    /// `weight`× relative to a weight-1.0 tenant.
    pub weight: f64,
    /// Closed-loop demand: requests offered per scheduling window.
    pub requests_per_window: usize,
    /// Input batch size the tenant's plans maintain across splits.
    pub batch: usize,
    /// The phased workload on the tenant's own clock — which dataset
    /// (hardness mixture) is active when.
    pub workload: WorkloadGenerator,
    /// Per-window fault plans on the tenant's own timeline: `faults[w]`
    /// is injected into the kernel run serving window `w` of this
    /// tenant's control loop. Windows past the end of the vector (and an
    /// empty vector, the default) run fault-free. Plans are validated
    /// against the tenant's *partition* shape at run time, so replica and
    /// stage indices are partition-local.
    pub faults: Vec<FaultPlan>,
}

impl TenantSpec {
    /// An NLP tenant (DeeBERT + its default entropy policy, the paper's
    /// 100 ms SLO) over `phases`; demand and weight start at the
    /// single-tenant defaults and can be adjusted with the builders.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty (via [`WorkloadGenerator::with_phases`]).
    pub fn nlp(name: &str, phases: Vec<Phase>) -> Self {
        TenantSpec {
            name: name.to_string(),
            model: zoo::deebert(),
            policy: zoo::default_policy("DeeBERT"),
            slo: SimDuration::from_millis(100),
            weight: 1.0,
            requests_per_window: 10_000,
            batch: 8,
            workload: WorkloadGenerator::with_phases(
                ArrivalProcess::ClosedLoop { concurrency: 8 },
                phases,
            ),
            faults: Vec::new(),
        }
    }

    /// A stationary NLP tenant: one dataset for the whole horizon.
    pub fn nlp_stationary(name: &str, dataset: DatasetModel, horizon: SimDuration) -> Self {
        Self::nlp(
            name,
            vec![Phase {
                dataset,
                duration: horizon,
            }],
        )
    }

    /// Sets the priority weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight.is_finite() && weight > 0.0, "weight must be > 0");
        self.weight = weight;
        self
    }

    /// Sets the per-window demand.
    pub fn with_demand(mut self, requests_per_window: usize) -> Self {
        self.requests_per_window = requests_per_window;
        self
    }

    /// Sets window-indexed fault plans on the tenant's timeline
    /// (partition-local replica/stage indices; see [`TenantSpec::faults`]).
    pub fn with_faults(mut self, faults: Vec<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Offered load in samples/s, given the scheduling-window length.
    pub(crate) fn demand_rate(&self, window: SimDuration) -> f64 {
        self.requests_per_window as f64 / window.as_secs_f64()
    }

    /// The dataset active during window `w` of the tenant's timeline —
    /// sampled at the window's midpoint, so a phase switch takes effect
    /// in the first window that is mostly past it.
    pub(crate) fn dataset_for_window(&self, w: usize, window: SimDuration) -> &DatasetModel {
        let mid = SimTime::ZERO + window * w as u64 + window / 2;
        self.workload.dataset_at(mid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_demand_rate() {
        let t = TenantSpec::nlp_stationary("a", DatasetModel::sst2(), SimDuration::from_secs(60))
            .with_weight(2.0)
            .with_demand(4000);
        assert_eq!(t.requests_per_window, 4000);
        let rate = t.demand_rate(SimDuration::from_secs(2));
        assert!((rate - 2000.0).abs() < 1e-9, "rate={rate}");
    }

    #[test]
    fn phased_tenant_switches_dataset_mid_horizon() {
        let w = SimDuration::from_secs(2);
        let t = TenantSpec::nlp(
            "bursty",
            vec![
                Phase {
                    dataset: DatasetModel::with_mix(0.8),
                    duration: SimDuration::from_secs(6),
                },
                Phase {
                    dataset: DatasetModel::with_mix(0.2),
                    duration: SimDuration::from_secs(6),
                },
            ],
        );
        let easy = DatasetModel::with_mix(0.8);
        let hard = DatasetModel::with_mix(0.2);
        assert_eq!(t.dataset_for_window(0, w).name(), easy.name());
        assert_eq!(t.dataset_for_window(2, w).name(), easy.name());
        assert_eq!(t.dataset_for_window(3, w).name(), hard.name());
        // Past the horizon the last phase persists.
        assert_eq!(t.dataset_for_window(50, w).name(), hard.name());
    }
}
