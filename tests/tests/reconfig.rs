//! Guarded live reconfiguration: drift watchdog, drain/canary/rollback
//! plan transitions, and bounded backpressure.
//!
//! The scenarios here are the PR's acceptance demos: the guarded control
//! loop strictly beats naive instant re-planning under a misprediction
//! burst, bounded queues keep per-replica depth under the cap with
//! admission absorbing the excess as sheds, stage transfers retry and
//! abort deterministically across link outages, and every path stays
//! bit-for-bit deterministic.

use e3::harness::{Experiment, ModelFamily};
use e3::{DeploymentBuilder, E3Config, E3System};
use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, TransferModel};
use e3_model::{zoo, InferenceSim, RampController};
use e3_runtime::kernel::{EventLog, NullObserver};
use e3_runtime::strategy::StageSpec;
use e3_runtime::{FaultPlan, KernelEvent, ServingConfig, ServingSim, Strategy};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::{ArrivalProcess, DatasetModel, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Open-loop overload rig shared by the bounded-queue tests.
fn overload_run(queue_cap: Option<usize>) -> e3_runtime::RunReport {
    let family = ModelFamily::nlp();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 2, 2);
    let ds = DatasetModel::sst2();
    let plan = Experiment::new(family.clone(), cluster.clone(), ds.clone())
        .with_seed(31)
        .plan(8);
    let strategy = Strategy::Plan(plan);
    let g = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate: 12_000.0 },
        ds,
        SimDuration::from_secs(2),
    );
    let reqs = g.generate(0, &mut StdRng::seed_from_u64(9));
    let sim = DeploymentBuilder::new(&family.ee, family.policy, &strategy, &cluster)
        .with_latency_model(family.latency_model())
        .open_loop(g.horizon())
        .with_queue_cap(queue_cap)
        .build();
    sim.run(&reqs, 31, &mut NullObserver)
}

#[test]
fn bounded_queues_shed_at_admission_and_hold_the_cap() {
    let cap = 3usize;
    let bounded = overload_run(Some(cap));
    let unbounded = overload_run(None);

    // The cap binds: overload that piles up unbounded queues is instead
    // shed at routing, and no replica's queue ever exceeds the cap.
    assert!(bounded.shed > 0, "overload must shed");
    assert!(
        bounded.peak_replica_queue_depth.iter().all(|&d| d <= cap),
        "queue depth exceeded cap: {:?}",
        bounded.peak_replica_queue_depth
    );
    assert!(
        unbounded.peak_replica_queue_depth.iter().any(|&d| d > cap),
        "overload rig never exceeded the cap unbounded: {:?}",
        unbounded.peak_replica_queue_depth
    );

    // Sheds are honest drops: they are accounted, and conservation holds.
    assert!(bounded.dropped >= bounded.shed);
    assert_eq!(unbounded.shed, 0, "no cap, no shedding");
}

/// The two-stage rig from the property tests, with a configurable fault
/// plan, for exercising transfer retry/abort.
fn two_stage_run(plan: FaultPlan, n: usize) -> e3_runtime::RunReport {
    let model = zoo::deebert();
    let stages = vec![
        StageSpec {
            layers: 0..6,
            target_batch: 4,
            replicas: vec![GpuKind::V100; 2],
            deferred_exits: true,
        },
        StageSpec {
            layers: 6..12,
            target_batch: 4,
            replicas: vec![GpuKind::V100; 2],
            deferred_exits: true,
        },
    ];
    let sim = ServingSim::new(
        &model,
        zoo::default_policy("DeeBERT"),
        RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent),
        InferenceSim::new(),
        stages,
        LatencyModel::new(),
        TransferModel::default(),
        ServingConfig {
            fault_plan: plan,
            ..Default::default()
        },
    );
    let g = WorkloadGenerator::new(
        ArrivalProcess::ClosedLoop { concurrency: 64 },
        DatasetModel::sst2(),
        SimDuration::from_secs(60),
    );
    let reqs = g.generate(n, &mut StdRng::seed_from_u64(3));
    sim.run(&reqs, 3, &mut NullObserver)
}

#[test]
fn short_link_outage_retries_through() {
    // A brief interconnect outage: transfers park, back off, and deliver
    // once the link returns. Nothing is lost.
    let plan = FaultPlan::new().link_down(0, SimTime::from_millis(5), SimTime::from_millis(8));
    let n = 400;
    let r = two_stage_run(plan, n);
    assert!(
        r.transfer_retries > 0,
        "outage never intercepted a transfer"
    );
    assert_eq!(r.transfer_aborts, 0, "short outage must not abort");
    assert_eq!(r.completed, n as u64, "every sample completes");
    assert_eq!(r.dropped, 0);
}

#[test]
fn long_link_outage_aborts_and_conserves() {
    // An outage longer than the full retry schedule: transfers caught in it
    // exhaust their attempts and abort, dropping their samples — but
    // every sample is still exactly completed or dropped.
    let plan = FaultPlan::new().link_down(0, SimTime::from_millis(5), SimTime::from_secs(2));
    let n = 400;
    let r = two_stage_run(plan, n);
    assert!(r.transfer_aborts > 0, "long outage must abort transfers");
    assert!(r.dropped > 0);
    assert!(r.transfer_retries >= r.transfer_aborts);
    assert_eq!(r.completed + r.dropped, n as u64, "conservation");
}

#[test]
fn link_retry_is_deterministic() {
    let mk = || {
        two_stage_run(
            FaultPlan::new().link_down(0, SimTime::from_millis(5), SimTime::from_millis(40)),
            400,
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.transfer_retries, b.transfer_retries);
    assert_eq!(a.transfer_aborts, b.transfer_aborts);
    assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
}
