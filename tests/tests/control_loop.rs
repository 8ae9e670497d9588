//! The fig. 4 control loop: profiler → optimizer → runtime, across
//! scheduling windows, including regime changes.

use e3::{E3Config, E3Report, E3System};
use e3_hardware::ClusterSpec;
use e3_model::zoo;
use e3_runtime::kernel::NullObserver;
use e3_runtime::FaultPlan;
use e3_simcore::{stats::mape, SimTime};
use e3_workload::DatasetModel;

fn system(seed: u64) -> E3System {
    E3System::new(
        zoo::deebert(),
        zoo::default_policy("DeeBERT"),
        ClusterSpec::paper_homogeneous_v100(),
        E3Config {
            seed,
            requests_per_window: 5000,
            ..Default::default()
        },
    )
}

fn run(seed: u64, phases: &[DatasetModel], faults: &[FaultPlan]) -> E3Report {
    system(seed).run_windows_observed(phases, faults, &mut NullObserver)
}

fn stationary(seed: u64, dataset: DatasetModel, windows: usize) -> E3Report {
    run(seed, &vec![dataset; windows], &[])
}

#[test]
fn stationary_predictions_converge_tightly() {
    let report = stationary(1, DatasetModel::sst2(), 8);
    // After warm-up, predicted vs observed survival at mid-model should
    // be within a few percent (fig. 21).
    let series = report.profile_series(6);
    let predicted: Vec<f64> = series[3..].iter().map(|(p, _)| *p).collect();
    let actual: Vec<f64> = series[3..]
        .iter()
        .map(|(_, o)| o.expect("observed"))
        .collect();
    let err = mape(&predicted, &actual);
    assert!(err < 0.10, "MAPE {err}");
}

#[test]
fn warmup_discovers_splits_without_losing_goodput() {
    // The cold-start plan (no-exit forecast) is a single data-parallel
    // split; exits still fire in it, so it is already decent. Warming up
    // must discover a multi-split plan and never regress goodput.
    let report = stationary(2, DatasetModel::sst2(), 5);
    assert_eq!(report.windows[0].plan.num_splits(), 1, "cold start");
    let settled = report.windows.last().expect("windows");
    assert!(settled.plan.num_splits() >= 2, "{}", settled.plan);
    assert!(
        settled.run.goodput() >= report.windows[0].run.goodput(),
        "settled {} vs cold-start {}",
        settled.run.goodput(),
        report.windows[0].run.goodput()
    );
}

#[test]
fn regime_change_recovers_within_two_windows() {
    let phases = vec![
        DatasetModel::with_mix(0.8),
        DatasetModel::with_mix(0.8),
        DatasetModel::with_mix(0.8),
        DatasetModel::with_mix(0.2),
        DatasetModel::with_mix(0.2),
        DatasetModel::with_mix(0.2),
    ];
    let report = run(3, &phases, &[]);
    // The drift spike at the switch settles by the second window after.
    assert!(report.windows[3].drift > report.windows[2].drift);
    assert!(
        report.windows[5].drift < 0.05,
        "post-reset drift {}",
        report.windows[5].drift
    );
    // And goodput in the new regime is steady.
    let w4 = report.windows[4].run.goodput();
    let w5 = report.windows[5].run.goodput();
    assert!(
        (w5 - w4).abs() / w4 < 0.15,
        "unsettled goodput: {w4} -> {w5}"
    );
}

#[test]
fn easy_mixes_produce_more_splits_than_hard() {
    let easy = stationary(4, DatasetModel::with_mix(0.9), 4);
    let hard = stationary(4, DatasetModel::with_mix(0.05), 4);
    let easy_splits = easy.windows.last().expect("windows").plan.num_splits();
    let hard_splits = hard.windows.last().expect("windows").plan.num_splits();
    assert!(
        easy_splits >= hard_splits,
        "easy {easy_splits} hard {hard_splits}"
    );
}

#[test]
fn control_loop_replans_around_permanent_crashes() {
    // Two replicas crash for good in window 2 (after warm-up settles a
    // multi-split plan). The faulted window runs degraded; the next
    // re-optimization plans against the shrunken cluster and the
    // remaining windows recover on 14 GPUs, fault-free.
    let phases = vec![DatasetModel::sst2(); 5];
    let faults = vec![
        FaultPlan::new(),
        FaultPlan::new(),
        FaultPlan::new()
            .crash(0, SimTime::from_millis(40))
            .crash(1, SimTime::from_millis(60)),
    ];
    let report = run(6, &phases, &faults);

    // The planner saw 16 GPUs through the faulted window, 14 after.
    assert_eq!(report.windows[2].cluster_gpus, 16);
    assert_eq!(report.windows[3].cluster_gpus, 14);
    assert_eq!(report.windows[4].cluster_gpus, 14);

    // The faulted window is visibly degraded...
    let faulted = &report.windows[2].run;
    assert_eq!(faulted.faults_injected, 2);
    assert!(faulted.mean_availability() < 1.0);
    assert!(faulted.degraded_completed > 0);
    // ...and later windows are clean again on the smaller cluster.
    let settled = &report.windows[4].run;
    assert_eq!(settled.faults_injected, 0);
    assert!(settled.replica_availability.iter().all(|&a| a == 1.0));
    assert!(
        settled.goodput() > faulted.goodput(),
        "replanned {} vs degraded {}",
        settled.goodput(),
        faulted.goodput()
    );
}

#[test]
fn windows_past_the_fault_list_run_fault_free() {
    let phases = vec![DatasetModel::sst2(); 2];
    let plain = run(7, &phases, &[FaultPlan::new(), FaultPlan::new()]);
    let empty = run(7, &phases, &[]);
    assert_eq!(plain.windows.len(), empty.windows.len());
    for (a, b) in plain.windows.iter().zip(&empty.windows) {
        assert_eq!(a.run.goodput().to_bits(), b.run.goodput().to_bits());
        assert_eq!(a.cluster_gpus, b.cluster_gpus);
    }
}

#[test]
fn report_aggregates_are_consistent() {
    let report = stationary(5, DatasetModel::sst2(), 3);
    let manual: u64 = report.windows.iter().map(|w| w.run.within_slo).sum();
    let dur: f64 = report
        .windows
        .iter()
        .map(|w| w.run.duration.as_secs_f64())
        .sum();
    assert!((report.goodput() - manual as f64 / dur).abs() < 1e-9);
    assert!(report.accuracy() > 0.85);
    assert!(report.mean_drift() >= 0.0);
}

#[test]
fn stationary_windows_stay_under_the_drift_threshold() {
    // A stationary workload gives the forecaster nothing to chase: once
    // the first observation seeds it (window 0 plans on "no exits"),
    // every later window's drift stays far below the reset threshold.
    for m in [0.5, 0.8] {
        let report = stationary(1, DatasetModel::with_mix(m), 30);
        for w in &report.windows[1..] {
            assert!(
                w.drift < 0.05,
                "mix {m}: window {} drift {}",
                w.window,
                w.drift
            );
        }
    }
}
