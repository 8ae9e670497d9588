//! Planner fidelity: the split planner (§3.2) promises a goodput at a
//! worst-case latency; these cells hold that promise against what the
//! simulator realizes. Four closed-loop NLP cells, 40k SST-2 or MNLI
//! requests each at seed 42, under the default 100 ms SLO.

use e3::harness::{Experiment, ModelFamily, SystemKind};
use e3_hardware::ClusterSpec;
use e3_runtime::kernel::NullObserver;
use e3_workload::DatasetModel;

/// (label, cluster, dataset, batch) of each cell.
fn cells() -> Vec<(&'static str, ClusterSpec, DatasetModel, usize)> {
    vec![
        (
            "16 V100, sst2, b=8",
            ClusterSpec::paper_homogeneous_v100(),
            DatasetModel::sst2(),
            8,
        ),
        (
            "hetero, sst2, b=16",
            ClusterSpec::paper_heterogeneous(),
            DatasetModel::sst2(),
            16,
        ),
        (
            "hetero, sst2, b=32",
            ClusterSpec::paper_heterogeneous(),
            DatasetModel::sst2(),
            32,
        ),
        (
            "hetero, mnli, b=32",
            ClusterSpec::paper_heterogeneous(),
            DatasetModel::mnli(),
            32,
        ),
    ]
}

/// Realized throughput over the plan's predicted goodput, and the
/// realized maximum latency over the plan's worst case.
fn ratios(cluster: ClusterSpec, dataset: DatasetModel, b: usize) -> (f64, f64) {
    let exp = Experiment::new(ModelFamily::nlp(), cluster, dataset)
        .with_n(40_000)
        .with_seed(42);
    let plan = exp.plan(b);
    let run = exp.run(SystemKind::E3, b, &mut NullObserver);
    let max_ms = run.latency_summary_ms().max;
    (
        run.throughput() / plan.goodput,
        max_ms / plan.worst_case_latency.as_millis_f64(),
    )
}

/// The throughput prediction holds to within a few percent: every cell
/// realizes 0.94-0.96 of `plan.goodput`, so the band is [0.93, 0.99].
#[test]
fn realized_throughput_tracks_plan_goodput() {
    for (label, cluster, dataset, b) in cells() {
        let (tput, _) = ratios(cluster, dataset, b);
        assert!(
            (0.93..=0.99).contains(&tput),
            "{label}: throughput / plan goodput = {tput:.3}"
        );
    }
}

/// A stated envelope, not a bound: the realized maximum latency sits
/// 1.6-1.8x above `SplitPlan::worst_case_latency` in these cells, so
/// that figure does not bound the tail. This test only keeps the gap from
/// widening past 2x. The latency contract itself stays open: either
/// `worst_case_latency` is fixed to bound the tail, or a bound that holds
/// is added beside it.
#[test]
fn realized_max_latency_stays_within_twice_the_plan_worst_case() {
    for (label, cluster, dataset, b) in cells() {
        let (_, lat) = ratios(cluster, dataset, b);
        assert!(
            lat <= 2.0,
            "{label}: realized max / plan worst case = {lat:.3}"
        );
    }
}
