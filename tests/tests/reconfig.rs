//! Guarded live reconfiguration: drift watchdog and drain/canary/rollback
//! plan transitions.
//!
//! The scenarios here are the acceptance demos: the guarded control loop
//! strictly beats naive instant re-planning under a misprediction burst,
//! and every path stays bit-for-bit deterministic.

use e3::{E3Config, E3System};
use e3_hardware::ClusterSpec;
use e3_model::zoo;
use e3_runtime::kernel::{EventLog, NullObserver};
use e3_runtime::KernelEvent;
use e3_workload::DatasetModel;

fn burst_system(guarded: bool) -> E3System {
    let cfg = E3Config {
        seed: 7,
        requests_per_window: 4000,
        guarded,
        ..Default::default()
    };
    E3System::new(
        zoo::deebert(),
        zoo::default_policy("DeeBERT"),
        ClusterSpec::paper_homogeneous_v100(),
        cfg,
    )
}

/// Three settled easy windows, then a misprediction burst: the regime
/// flips every window, so the one-window-lagged forecast is persistently
/// and maximally wrong for the rest of the run.
fn burst_phases() -> Vec<DatasetModel> {
    let mut phases = vec![DatasetModel::with_mix(0.8); 3];
    for i in 0..8 {
        let mix = if i % 2 == 0 { 0.15 } else { 0.85 };
        phases.push(DatasetModel::with_mix(mix));
    }
    phases
}

#[test]
fn guarded_beats_naive_under_misprediction_burst() {
    let phases = burst_phases();
    let naive = burst_system(false).run_windows_observed(&phases, &[], &mut NullObserver);
    let guarded = burst_system(true).run_windows_observed(&phases, &[], &mut NullObserver);

    // The headline: strictly higher aggregate goodput.
    assert!(
        guarded.goodput() > naive.goodput(),
        "guarded {} vs naive {}",
        guarded.goodput(),
        naive.goodput()
    );

    // The guard actually engaged: the watchdog confirmed the drift and
    // entered safe mode inside the burst, at least one candidate plan was
    // rolled back, and at least one was promoted.
    let trigger = guarded.first_trigger_window().expect("watchdog tripped");
    assert!((3..=5).contains(&trigger), "trigger at {trigger}");
    assert!(guarded.rollback_count() >= 1, "no rollback happened");
    assert!(guarded.promotion_count() >= 1, "no promotion happened");
    assert!(
        guarded.safe_mode_windows() >= 3,
        "safe mode held only {} windows",
        guarded.safe_mode_windows()
    );

    // Where the forecast was wrong in the expensive direction (hard
    // windows planned from an easy-regime forecast), the guarded loop
    // wins each window outright.
    for w in [5usize, 7, 9] {
        assert!(
            guarded.windows[w].run.goodput() > naive.windows[w].run.goodput(),
            "window {w}: guarded {} vs naive {}",
            guarded.windows[w].run.goodput(),
            naive.windows[w].run.goodput()
        );
    }
}

#[test]
fn guarded_loop_is_deterministic() {
    let phases = burst_phases();
    let a = burst_system(true).run_windows_observed(&phases, &[], &mut NullObserver);
    let b = burst_system(true).run_windows_observed(&phases, &[], &mut NullObserver);
    assert_eq!(a.goodput().to_bits(), b.goodput().to_bits());
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        assert_eq!(wa.plan, wb.plan);
        assert_eq!(wa.run.completed, wb.run.completed);
        assert_eq!(wa.run.dropped, wb.run.dropped);
        assert_eq!(wa.run.latency.samples_ms(), wb.run.latency.samples_ms());
        assert_eq!(wa.reconfig, wb.reconfig);
        assert_eq!(wa.safe_mode, wb.safe_mode);
        assert_eq!(wa.watchdog_triggered, wb.watchdog_triggered);
    }
}

#[test]
fn reconfig_events_pair_up_on_one_clock() {
    let phases = burst_phases();
    let sys = burst_system(true);
    let mut log = EventLog::new();
    let report = sys.run_windows_observed(&phases, &[], &mut log);

    // The whole multi-window stream sits on one global clock: segment
    // re-basing never lets a timestamp go backwards.
    assert!(log.events.windows(2).all(|w| w[0].0 <= w[1].0));

    // Every transition opens with ReconfigStarted and closes with exactly
    // one verdict carrying the same epoch, in order.
    let markers: Vec<&KernelEvent> = log
        .events
        .iter()
        .filter_map(|(_, e)| {
            matches!(
                e,
                KernelEvent::ReconfigStarted { .. }
                    | KernelEvent::CanaryPromoted { .. }
                    | KernelEvent::RolledBack { .. }
            )
            .then_some(e)
        })
        .collect();
    assert_eq!(markers.len() % 2, 0, "unpaired reconfig markers");
    let mut last_epoch = 0;
    for pair in markers.chunks(2) {
        let KernelEvent::ReconfigStarted { epoch } = pair[0] else {
            panic!(
                "transition must open with ReconfigStarted, got {:?}",
                pair[0]
            );
        };
        let verdict_epoch = match pair[1] {
            KernelEvent::CanaryPromoted { epoch } | KernelEvent::RolledBack { epoch } => epoch,
            other => panic!("expected a verdict, got {other:?}"),
        };
        assert_eq!(epoch, verdict_epoch, "verdict for a different epoch");
        assert_eq!(*epoch, last_epoch + 1, "epochs must be contiguous");
        last_epoch = *epoch;
    }

    // The event stream and the report agree on how many transitions ran
    // and how they ended.
    let attempts = report
        .windows
        .iter()
        .filter(|w| w.reconfig.is_some())
        .count();
    assert_eq!(markers.len() / 2, attempts);
    let promoted = log.count(|e| matches!(e, KernelEvent::CanaryPromoted { .. }));
    let rolled = log.count(|e| matches!(e, KernelEvent::RolledBack { .. }));
    assert_eq!(promoted, report.promotion_count());
    assert_eq!(rolled, report.rollback_count());
}

#[test]
fn guarded_off_matches_naive_bit_for_bit() {
    // The master switch truly is one: with `guarded` off the new loop is
    // the old loop, including under oscillating workloads.
    let phases = burst_phases();
    let a = burst_system(false).run_windows_observed(&phases, &[], &mut NullObserver);
    let b = burst_system(false).run_windows_observed(&phases, &[], &mut NullObserver);
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        assert_eq!(wa.plan, wb.plan);
        assert_eq!(wa.run.latency.samples_ms(), wb.run.latency.samples_ms());
        assert!(wa.reconfig.is_none());
        assert!(!wa.safe_mode && !wa.watchdog_triggered);
    }
}
