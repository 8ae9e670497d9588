//! End-to-end integration: the paper's headline orderings must hold when
//! every crate — workload → model → profiler → optimizer → runtime —
//! runs together.

use e3::harness::{Experiment, HarnessOpts, ModelFamily, SystemKind};
use e3_hardware::{ClusterSpec, GpuKind};
use e3_runtime::kernel::NullObserver;
use e3_workload::DatasetModel;

const N: usize = 15_000;

/// `N` SST-2 requests per point.
fn experiment(family: &ModelFamily, cluster: &ClusterSpec, seed: u64) -> Experiment {
    Experiment::new(family.clone(), cluster.clone(), DatasetModel::sst2())
        .with_n(N)
        .with_seed(seed)
}

fn goodput(kind: SystemKind, family: &ModelFamily, cluster: &ClusterSpec, b: usize) -> f64 {
    experiment(family, cluster, 99)
        .run(kind, b, &mut NullObserver)
        .goodput()
}

#[test]
fn headline_fig7_ordering() {
    let family = ModelFamily::nlp();
    let cluster = ClusterSpec::paper_homogeneous_v100();
    let e3 = goodput(SystemKind::E3, &family, &cluster, 8);
    let vanilla = goodput(SystemKind::Vanilla, &family, &cluster, 8);
    let naive = goodput(SystemKind::NaiveEe, &family, &cluster, 8);
    assert!(e3 > vanilla, "E3 {e3} vanilla {vanilla}");
    assert!(vanilla > naive, "vanilla {vanilla} naive {naive}");
    // The paper's bound: E3 delivers >1.3x over the naive EE baseline.
    assert!(e3 / naive > 1.3, "E3/naive = {}", e3 / naive);
}

#[test]
fn naive_ee_wins_only_at_batch_one() {
    let family = ModelFamily::nlp();
    let cluster = ClusterSpec::paper_homogeneous_v100();
    let naive_1 = goodput(SystemKind::NaiveEe, &family, &cluster, 1);
    let vanilla_1 = goodput(SystemKind::Vanilla, &family, &cluster, 1);
    assert!(naive_1 > vanilla_1, "naive {naive_1} vanilla {vanilla_1}");
}

#[test]
fn all_families_keep_ordering_at_batch_8() {
    for (family, cluster) in [
        (ModelFamily::nlp(), ClusterSpec::paper_homogeneous_v100()),
        (ModelFamily::vision(), ClusterSpec::paper_homogeneous_v100()),
        (
            ModelFamily::compressed(),
            ClusterSpec::homogeneous(GpuKind::V100, 4, 2),
        ),
        (ModelFamily::pabee(), ClusterSpec::paper_homogeneous_v100()),
    ] {
        let e3 = goodput(SystemKind::E3, &family, &cluster, 8);
        let naive = goodput(SystemKind::NaiveEe, &family, &cluster, 8);
        assert!(e3 > naive, "{}: E3 {e3} <= naive {naive}", family.ee.name());
    }
}

#[test]
fn e3_accuracy_matches_naive_ee() {
    // E3 changes scheduling, never predictions: accuracy must match the
    // naive EE baseline's within noise.
    let exp = experiment(
        &ModelFamily::nlp(),
        &ClusterSpec::paper_homogeneous_v100(),
        5,
    );
    let e3 = exp.run(SystemKind::E3, 8, &mut NullObserver);
    let naive = exp.run(SystemKind::NaiveEe, 8, &mut NullObserver);
    assert!(
        (e3.accuracy() - naive.accuracy()).abs() < 0.01,
        "e3 {} naive {}",
        e3.accuracy(),
        naive.accuracy()
    );
}

#[test]
fn plan_is_structurally_valid_everywhere() {
    for cluster in [
        ClusterSpec::paper_homogeneous_v100(),
        ClusterSpec::paper_heterogeneous(),
        ClusterSpec::paper_full_testbed(),
        ClusterSpec::homogeneous(GpuKind::K80, 3, 1),
    ] {
        for b in [1usize, 8, 32] {
            let family = ModelFamily::nlp();
            let plan = experiment(&family, &cluster, 11).plan(b);
            plan.assert_valid(family.ee.num_layers());
            assert!(plan.gpus_used() <= cluster.num_gpus());
            assert!(plan.goodput > 0.0);
            // Replicas of one split share a kind present in the cluster.
            for s in &plan.splits {
                assert!(cluster.kinds().contains(&s.gpu));
            }
        }
    }
}

#[test]
fn heterogeneous_cluster_helps_at_small_batch() {
    // §5.2: at batch 1, the equal-cost heterogeneous cluster beats the
    // V100-only cluster for E3 (more devices for latency-bound work).
    let family = ModelFamily::nlp();
    let homo = goodput(
        SystemKind::E3,
        &family,
        &ClusterSpec::paper_homogeneous_v100(),
        1,
    );
    let hetero = goodput(
        SystemKind::E3,
        &family,
        &ClusterSpec::paper_heterogeneous(),
        1,
    );
    assert!(hetero > homo * 0.95, "hetero {hetero} homo {homo}");
}

#[test]
fn wrapper_never_hurts_materially() {
    let plain_exp = experiment(
        &ModelFamily::nlp(),
        &ClusterSpec::paper_homogeneous_v100(),
        13,
    );
    let wrapped_exp = plain_exp.clone().with_opts(HarnessOpts {
        use_wrapper: true,
        ..Default::default()
    });
    for b in [2usize, 8] {
        let plain = plain_exp
            .run(SystemKind::E3, b, &mut NullObserver)
            .goodput();
        let wrapped = wrapped_exp
            .run(SystemKind::E3, b, &mut NullObserver)
            .goodput();
        assert!(
            wrapped > plain * 0.98,
            "b={b}: wrapped {wrapped} plain {plain}"
        );
    }
}
