//! Reproducibility: every layer of the stack is bit-for-bit
//! deterministic in its seed — the property that makes the experiment
//! tables in `EXPERIMENTS.md` regenerable.

use e3::harness::{Experiment, ModelFamily, SystemKind};
use e3::{DeploymentBuilder, E3Config, E3System};
use e3_hardware::{ClusterSpec, GpuKind};
use e3_model::zoo;
use e3_runtime::kernel::NullObserver;
use e3_runtime::Strategy;
use e3_simcore::SimDuration;
use e3_workload::{ArrivalProcess, DatasetModel, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DeeBERT on SST-2, 8000 requests per point.
fn nlp(cluster: ClusterSpec, seed: u64) -> Experiment {
    Experiment::new(ModelFamily::nlp(), cluster, DatasetModel::sst2())
        .with_n(8000)
        .with_seed(seed)
}

#[test]
fn plans_are_deterministic() {
    let exp = nlp(ClusterSpec::paper_heterogeneous(), 21);
    assert_eq!(exp.plan(8), exp.plan(8));
}

#[test]
fn serving_runs_are_deterministic() {
    let exp = nlp(ClusterSpec::paper_homogeneous_v100(), 22);
    let a = exp.run(SystemKind::E3, 8, &mut NullObserver);
    let b = exp.run(SystemKind::E3, 8, &mut NullObserver);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.within_slo, b.within_slo);
    assert_eq!(a.correct, b.correct);
    assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        nlp(ClusterSpec::paper_homogeneous_v100(), seed).run(SystemKind::E3, 8, &mut NullObserver)
    };
    let (a, b) = (run(1), run(2));
    assert_ne!(a.latency.samples_ms(), b.latency.samples_ms());
}

#[test]
fn control_loop_is_deterministic() {
    let mk = || {
        let sys = E3System::new(
            zoo::deebert(),
            zoo::default_policy("DeeBERT"),
            ClusterSpec::paper_homogeneous_v100(),
            E3Config {
                seed: 23,
                requests_per_window: 3000,
                ..Default::default()
            },
        );
        sys.run_windows_observed(&vec![DatasetModel::sst2(); 3], &[], &mut NullObserver)
    };
    let a = mk();
    let b = mk();
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        assert_eq!(wa.plan, wb.plan);
        assert_eq!(wa.run.completed, wb.run.completed);
        assert_eq!(wa.predicted.survival(), wb.predicted.survival());
    }
}

#[test]
fn kernel_reruns_produce_identical_reports() {
    // Drive one ServingSim (the unified serving kernel) twice with the
    // same seed under overload, so admission drops, fusion flushes, and
    // completions are all exercised, and require the reports to agree
    // bit-for-bit on goodput, drops, and the latency quartiles.
    let family = ModelFamily::nlp();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 2, 2);
    let ds = DatasetModel::sst2();
    let plan = nlp(cluster.clone(), 24).plan(8);
    let strategy = Strategy::Plan(plan);
    let g = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate: 8000.0 },
        ds.clone(),
        SimDuration::from_secs(3),
    );
    let reqs = g.generate(0, &mut StdRng::seed_from_u64(5));
    let sim = DeploymentBuilder::new(&family.ee, family.policy, &strategy, &cluster)
        .with_latency_model(family.latency_model())
        .open_loop(g.horizon())
        .build();
    let a = sim.run(&reqs, 24, &mut NullObserver);
    let b = sim.run(&reqs, 24, &mut NullObserver);
    assert!(a.dropped > 0, "overload must shed load");
    assert_eq!(a.goodput().to_bits(), b.goodput().to_bits());
    assert_eq!(a.dropped, b.dropped);
    let (qa, qb) = (a.latency_summary_ms(), b.latency_summary_ms());
    assert_eq!(
        [qa.min, qa.p25, qa.median, qa.p75, qa.max].map(f64::to_bits),
        [qb.min, qb.p25, qb.median, qb.p75, qb.max].map(f64::to_bits),
    );
    assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
}

#[test]
fn workloads_are_deterministic() {
    let g = WorkloadGenerator::new(
        ArrivalProcess::Bursty(e3_workload::BurstyTraceConfig::twitter_like(500.0)),
        DatasetModel::qnli(),
        SimDuration::from_secs(20),
    );
    let a = g.generate(0, &mut StdRng::seed_from_u64(3));
    let b = g.generate(0, &mut StdRng::seed_from_u64(3));
    assert_eq!(a, b);
}
