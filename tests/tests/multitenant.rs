//! End-to-end tests of multi-tenant cluster serving: joint allocation,
//! disjoint partitions, tenant-tagged accounting on one global clock,
//! and the headline claim — `MarginalGoodput` beats `StaticEven` on
//! aggregate goodput under skewed demand without dropping any tenant
//! below the SLO-attainment floor.

use e3_hardware::ClusterSpec;
use e3_runtime::kernel::FaultPlan;
use e3_runtime::{KernelEvent, TaggedEventLog};
use e3_simcore::SimTime;
use e3_tenancy::{
    DemandProportional, MarginalGoodput, MultiTenantSystem, StaticEven, TenancyConfig, TenantSpec,
};
use e3_workload::{DatasetModel, Phase};

fn cfg() -> TenancyConfig {
    TenancyConfig {
        windows: 4,
        realloc_every: 2,
        profile_samples: 1500,
        seed: 0xE3,
        ..Default::default()
    }
}

/// One heavy tenant (easy→hard burst) and two light ones out of phase.
fn skewed_roster(c: &TenancyConfig) -> Vec<TenantSpec> {
    let horizon = c.window * c.windows as u64;
    let phased = |name: &str, first: f64, second: f64, demand: usize| {
        TenantSpec::nlp(
            name,
            vec![
                Phase {
                    dataset: DatasetModel::with_mix(first),
                    duration: horizon / 2,
                },
                Phase {
                    dataset: DatasetModel::with_mix(second),
                    duration: horizon / 2,
                },
            ],
        )
        .with_demand(demand)
    };
    vec![
        phased("heavy", 0.8, 0.35, 5000),
        phased("light-a", 0.35, 0.8, 1500),
        phased("light-b", 0.8, 0.35, 1500),
    ]
}

#[test]
fn marginal_goodput_beats_static_even_under_skew() {
    let c = cfg();
    let sys = MultiTenantSystem::new(skewed_roster(&c), ClusterSpec::paper_heterogeneous(), c);
    let even = sys.run(&StaticEven);
    let marginal = sys.run(&MarginalGoodput::default());
    assert!(
        marginal.aggregate_goodput() > even.aggregate_goodput(),
        "marginal {} <= even {}",
        marginal.aggregate_goodput(),
        even.aggregate_goodput()
    );
    // And no tenant is starved below the attainment floor.
    for r in [&even, &marginal] {
        assert!(
            r.floor_held(),
            "{}: min attainment {:.3} below floor {:.2}",
            r.allocator,
            r.min_attainment(),
            r.slo_floor
        );
    }
    // The heavy tenant got strictly more GPUs than either light one.
    let last = marginal.allocations.last().expect("allocations recorded");
    let totals: Vec<usize> = last.shares.iter().map(|s| s.values().sum()).collect();
    assert!(
        totals[0] > totals[1] && totals[0] > totals[2],
        "heavy tenant under-provisioned: {totals:?}"
    );
}

#[test]
fn multitenant_runs_are_bit_identical() {
    let c = cfg();
    let run = || {
        let sys = MultiTenantSystem::new(skewed_roster(&c), ClusterSpec::paper_heterogeneous(), c);
        let mut log = TaggedEventLog::new();
        let r = sys.run_observed(&MarginalGoodput::default(), &mut log);
        (r, log)
    };
    let (a, log_a) = run();
    let (b, log_b) = run();
    assert_eq!(a.allocations, b.allocations, "allocation decisions replay");
    assert_eq!(log_a.events, log_b.events, "event streams replay");
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.elapsed, tb.elapsed);
        assert_eq!(ta.within_slo(), tb.within_slo());
        assert_eq!(ta.offered(), tb.offered());
    }
    assert_eq!(a.aggregate_goodput(), b.aggregate_goodput());
}

#[test]
fn run_keeps_no_events_yet_reports_as_run_observed() {
    // The heavy tenant's window-1 slowdown outlasts the window, so its
    // expiry lands past the segment's duration and sets the next base;
    // window 2 follows the reallocation and crashes a replica.
    let c = cfg();
    let mut roster = skewed_roster(&c);
    let ms = SimTime::from_millis;
    roster[0] = roster[0].clone().with_faults(vec![
        FaultPlan::new(),
        FaultPlan::new().slowdown(0, 3.0, ms(500), ms(60_000)),
        FaultPlan::new().crash(0, ms(300)).recover(0, ms(1_000)),
    ]);
    let sys = MultiTenantSystem::new(roster, ClusterSpec::paper_heterogeneous(), c);
    let mut log = TaggedEventLog::new();
    let observed = sys.run_observed(&MarginalGoodput::default(), &mut log);
    let kept = sys.run(&MarginalGoodput::default());
    assert_eq!(observed.allocations.len(), 2, "a reallocation at window 2");
    assert!(
        log.count_for(0, |e| matches!(e, KernelEvent::FaultInjected { .. })) >= 3,
        "every fault fired"
    );
    assert_eq!(format!("{observed:?}"), format!("{kept:?}"));
}

#[test]
fn partitions_are_disjoint_and_events_tenant_tagged() {
    let c = cfg();
    let roster = skewed_roster(&c);
    let n = roster.len();
    let cluster = ClusterSpec::paper_heterogeneous();
    let sys = MultiTenantSystem::new(roster, cluster.clone(), c);
    let mut log = TaggedEventLog::new();
    let report = sys.run_observed(&MarginalGoodput::default(), &mut log);

    for alloc in &report.allocations {
        // partition() itself enforces disjointness; verify the shares
        // never oversubscribe and cover every tenant.
        assert_eq!(alloc.shares.len(), n);
        let counts = cluster.gpu_counts();
        for (&kind, &have) in &counts {
            let granted: usize = alloc
                .shares
                .iter()
                .map(|s| s.get(&kind).copied().unwrap_or(0))
                .sum();
            assert!(granted <= have, "{kind:?} oversubscribed");
        }
        for (t, s) in alloc.shares.iter().enumerate() {
            assert!(s.values().sum::<usize>() >= 1, "tenant {t} granted nothing");
        }
    }

    // Every tenant produced tagged completions; per-tenant tagged
    // within-SLO counts agree with the report's accounting.
    for (t, tr) in report.tenants.iter().enumerate() {
        let tagged = log.count_for(t as u32, |e| {
            matches!(
                e,
                KernelEvent::Completion {
                    within_slo: true,
                    ..
                }
            )
        });
        assert_eq!(tagged as u64, tr.within_slo(), "tenant {t} accounting");
    }
    // The merged stream is on one monotone global clock.
    let merged = log.merged_by_time();
    assert!(merged.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn reallocation_shifts_gpus_toward_the_bursting_tenant() {
    // Two tenants with equal demand whose hardness bursts are out of
    // phase: tenant 0 is easy then hard, tenant 1 hard then easy. When
    // the roles flip mid-horizon, MarginalGoodput's second allocation
    // epoch should move GPUs toward the newly-hard tenant relative to
    // the first epoch (hard workloads exit less, so each unit of demand
    // needs more GPUs).
    let c = TenancyConfig {
        windows: 4,
        realloc_every: 2,
        profile_samples: 2000,
        seed: 0xE3,
        ..Default::default()
    };
    let horizon = c.window * c.windows as u64;
    let mk = |name: &str, first: f64, second: f64| {
        TenantSpec::nlp(
            name,
            vec![
                Phase {
                    dataset: DatasetModel::with_mix(first),
                    duration: horizon / 2,
                },
                Phase {
                    dataset: DatasetModel::with_mix(second),
                    duration: horizon / 2,
                },
            ],
        )
        .with_demand(3500)
    };
    let sys = MultiTenantSystem::new(
        vec![mk("eh", 0.9, 0.2), mk("he", 0.2, 0.9)],
        ClusterSpec::paper_homogeneous_v100(),
        c,
    );
    let report = sys.run(&MarginalGoodput::default());
    assert_eq!(report.allocations.len(), 2, "two allocation epochs");
    let t0: Vec<usize> = report
        .allocations
        .iter()
        .map(|a| a.shares[0].values().sum())
        .collect();
    let t1: Vec<usize> = report
        .allocations
        .iter()
        .map(|a| a.shares[1].values().sum())
        .collect();
    assert!(
        t0[1] > t0[0],
        "tenant 0 turned hard but lost GPUs: epochs {t0:?}"
    );
    assert!(
        t1[1] < t1[0],
        "tenant 1 turned easy but gained GPUs: epochs {t1:?}"
    );
}

#[test]
fn demand_proportional_sits_between_even_and_marginal_under_skew() {
    let c = cfg();
    let sys = MultiTenantSystem::new(skewed_roster(&c), ClusterSpec::paper_heterogeneous(), c);
    let even = sys.run(&StaticEven).aggregate_goodput();
    let prop = sys.run(&DemandProportional).aggregate_goodput();
    let marginal = sys.run(&MarginalGoodput::default()).aggregate_goodput();
    assert!(
        prop > even,
        "demand awareness should beat the blind even split: {prop} vs {even}"
    );
    assert!(
        marginal >= prop * 0.95,
        "value-aware water-filling should not lose meaningfully to plain proportionality: {marginal} vs {prop}"
    );
}
