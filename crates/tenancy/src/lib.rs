//! # e3-tenancy
//!
//! Multi-tenant cluster serving: joint GPU allocation across concurrent
//! EE-DNN deployments.
//!
//! The paper evaluates E3 one deployment at a time — one model, one
//! cluster, one control loop. Real clusters serve many early-exit models
//! at once, and their demands ebb out of phase: while tenant A's
//! workload turns hard (few exits, more compute per sample), tenant B's
//! turns easy. A static even split wastes exactly the GPUs that the
//! loaded tenant needs. This crate closes that gap:
//!
//! * [`TenantSpec`] — one tenant's contract: model + exit policy, SLO,
//!   demand, priority weight, and a phased
//!   [`e3_workload::WorkloadGenerator`] on the tenant's own timeline;
//! * [`ClusterAllocator`] — the joint allocation policy seam, with
//!   three implementations: [`StaticEven`], [`DemandProportional`], and
//!   the headline [`MarginalGoodput`] — greedy water-filling on
//!   demand-capped marginal goodput per dollar, answered incrementally
//!   by each tenant's memoizing [`e3_optimizer::ValueOracle`];
//! * [`MultiTenantSystem`] — the driver: per-epoch allocation,
//!   disjoint [`e3_hardware::ClusterSpec::partition`]s, one windowed E3
//!   control loop per tenant, all kernel events tenant-tagged and
//!   re-based onto one global clock;
//! * [`MultiTenantReport`] — per-tenant goodput and SLO attainment,
//!   plus cluster-wide aggregate goodput over the shared horizon and
//!   Jain fairness (plain and priority-weighted).

pub mod allocator;
pub mod report;
pub mod system;
pub mod tenant;

pub use allocator::{
    ClusterAllocator, DemandProportional, MarginalGoodput, Shares, StaticEven, TenantDemand,
};
pub use report::{format_share, AllocationRecord, MultiTenantReport, TenantReport};
pub use system::{MultiTenantSystem, TenancyConfig, SLO_FLOOR};
pub use tenant::TenantSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use e3_hardware::ClusterSpec;
    use e3_runtime::{KernelEvent, TaggedEventLog};
    use e3_simcore::SimDuration;
    use e3_workload::DatasetModel;

    fn two_tenants() -> Vec<TenantSpec> {
        let horizon = SimDuration::from_secs(8);
        vec![
            TenantSpec::nlp_stationary("heavy", DatasetModel::sst2(), horizon).with_demand(6000),
            TenantSpec::nlp_stationary("light", DatasetModel::qnli(), horizon).with_demand(1500),
        ]
    }

    #[test]
    fn runs_all_tenants_and_tags_events() {
        let sys = MultiTenantSystem::new(
            two_tenants(),
            ClusterSpec::paper_homogeneous_v100(),
            TenancyConfig {
                windows: 4,
                realloc_every: 2,
                profile_samples: 1000,
                ..Default::default()
            },
        );
        let mut log = TaggedEventLog::new();
        let report = sys.run_observed(&StaticEven, &mut log);
        assert_eq!(report.tenants.len(), 2);
        for (t, tr) in report.tenants.iter().enumerate() {
            assert_eq!(tr.windows.len(), 4, "tenant {t} served every window");
            assert!(tr.goodput() > 0.0);
            assert!(
                log.count_for(t as u32, |e| matches!(e, KernelEvent::Completion { .. })) > 0,
                "tenant {t} has tagged completions"
            );
        }
        // Window indices are global.
        let idx: Vec<usize> = report.tenants[0].windows.iter().map(|w| w.window).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
        // Both tenants' events share one time axis.
        let merged = log.merged_by_time();
        assert!(merged.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn unchanged_allocation_matches_no_realloc_bit_for_bit() {
        // StaticEven never changes shares, so reallocating every 2
        // windows must serve exactly what a single up-front allocation
        // serves — the control loops are never restarted.
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let run = |realloc_every| {
            let sys = MultiTenantSystem::new(
                two_tenants(),
                cluster.clone(),
                TenancyConfig {
                    windows: 4,
                    realloc_every,
                    profile_samples: 1000,
                    ..Default::default()
                },
            );
            sys.run(&StaticEven)
        };
        let a = run(2);
        let b = run(0);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.elapsed, tb.elapsed);
            assert_eq!(ta.within_slo(), tb.within_slo());
            assert_eq!(ta.offered(), tb.offered());
        }
    }
}
