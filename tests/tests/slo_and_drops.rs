//! SLO handling, admission drops, and open-loop behaviour across crates.

use e3::harness::{Experiment, HarnessOpts, ModelFamily, SystemKind};
use e3_hardware::{ClusterSpec, GpuKind};
use e3_runtime::kernel::{EventLog, NullObserver};
use e3_runtime::KernelEvent;
use e3_simcore::SimDuration;
use e3_workload::{ArrivalProcess, BurstyTraceConfig, DatasetModel, WorkloadGenerator};

fn nlp(cluster: ClusterSpec, seed: u64) -> Experiment {
    Experiment::new(ModelFamily::nlp(), cluster, DatasetModel::sst2()).with_seed(seed)
}

#[test]
fn under_capacity_open_loop_serves_all() {
    let exp = nlp(ClusterSpec::paper_homogeneous_v100(), 41);
    let g = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate: 3000.0 },
        DatasetModel::sst2(),
        SimDuration::from_secs(5),
    );
    for kind in [SystemKind::Vanilla, SystemKind::E3] {
        let r = exp.run_open(kind, 8, &g, &mut NullObserver);
        assert!(r.drop_rate() < 0.02, "{kind:?}: drops {}", r.drop_rate());
        assert!(
            r.within_slo as f64 / r.completed.max(1) as f64 > 0.98,
            "{kind:?}: SLO misses"
        );
    }
}

#[test]
fn overload_sheds_load_but_served_requests_meet_slo() {
    let g = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate: 8000.0 },
        DatasetModel::sst2(),
        SimDuration::from_secs(3),
    );
    let mut log = EventLog::new();
    let r = nlp(ClusterSpec::homogeneous(GpuKind::V100, 2, 2), 42).run_open(
        SystemKind::E3,
        8,
        &g,
        &mut log,
    );
    assert!(r.drop_rate() > 0.3, "drops {}", r.drop_rate());
    assert!(
        r.within_slo as f64 / r.completed.max(1) as f64 > 0.9,
        "served requests must meet the SLO"
    );
    // SLO-slack admission is the one drop path: every drop is an
    // admission drop, and every offered request completes or drops.
    assert_eq!(r.robustness.sheds.admission, r.dropped);
    assert_eq!(r.shed, 0);
    let offered = log.count(|e| matches!(e, KernelEvent::Arrival { .. }));
    assert_eq!(r.completed + r.dropped, offered as u64);
}

#[test]
fn e3_survives_bursty_trace_better_than_baselines() {
    let exp = nlp(ClusterSpec::homogeneous(GpuKind::V100, 4, 2), 43);
    let g = WorkloadGenerator::new(
        ArrivalProcess::Bursty(BurstyTraceConfig::twitter_like(1000.0)),
        DatasetModel::sst2(),
        SimDuration::from_secs(60),
    );
    let goodput = |kind| exp.run_open(kind, 8, &g, &mut NullObserver).goodput();
    let e3 = goodput(SystemKind::E3);
    let vanilla = goodput(SystemKind::Vanilla);
    let naive = goodput(SystemKind::NaiveEe);
    assert!(e3 > vanilla, "e3 {e3} vanilla {vanilla}");
    assert!(e3 > naive, "e3 {e3} naive {naive}");
}

#[test]
fn looser_slo_admits_larger_feasible_batches() {
    let feasible = |slo_ms: u64| -> usize {
        let exp = nlp(ClusterSpec::paper_homogeneous_v100(), 44).with_opts(HarnessOpts {
            slo: SimDuration::from_millis(slo_ms),
            ..Default::default()
        });
        [1usize, 2, 4, 8, 16, 32, 64]
            .into_iter()
            .filter(|&b| {
                let plan = exp.plan(b);
                plan.worst_case_latency <= SimDuration::from_millis(slo_ms).mul_f64(0.8)
            })
            .max()
            .unwrap_or(1)
    };
    let tight = feasible(25);
    let loose = feasible(1000);
    assert!(loose > tight, "loose {loose} tight {tight}");
}

#[test]
fn straggler_detection_protects_goodput() {
    use e3_model::{zoo, InferenceSim, RampController, RampStyle};
    use e3_runtime::{FaultPlan, ServingConfig, ServingSim, Strategy};
    use e3_simcore::SimTime;
    let model = zoo::bert_base();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
    let stages = Strategy::Vanilla { batch: 8 }.realize(&model, &cluster);
    let run = |detect: bool| {
        let sim = ServingSim::new(
            &model,
            zoo::default_policy("DeeBERT"),
            RampController::all_enabled(0, RampStyle::Independent),
            InferenceSim::new(),
            stages.clone(),
            e3_hardware::LatencyModel::new(),
            e3_hardware::TransferModel::default(),
            ServingConfig {
                // Replica 1 runs 6x slow for the whole run.
                fault_plan: FaultPlan::new().slowdown(
                    1,
                    6.0,
                    SimTime::ZERO,
                    SimTime::from_secs(3600),
                ),
                detect_stragglers: detect,
                ..Default::default()
            },
        );
        let ds = DatasetModel::sst2();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(45);
        let reqs: Vec<e3_workload::Request> = (0..8000u64)
            .map(|id| e3_workload::Request {
                id,
                arrival: e3_simcore::SimTime::ZERO,
                hardness: ds.sample_hardness(&mut rng),
                output_tokens: 1,
            })
            .collect();
        sim.run(&reqs, 45, &mut NullObserver)
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with.stragglers_detected, vec![1]);
    assert!(without.stragglers_detected.is_empty());
    // Excluding the straggler improves tail latency.
    assert!(
        with.latency.quantile_ms(0.99) < without.latency.quantile_ms(0.99),
        "with {} without {}",
        with.latency.quantile_ms(0.99),
        without.latency.quantile_ms(0.99)
    );
}
