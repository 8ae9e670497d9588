//! Fault injection end-to-end: determinism under a fault plan, degraded
//! operation and recovery, event-stream ordering with faults interleaved,
//! and the straggler-detection payoff.

use e3::harness::{Experiment, HarnessOpts, ModelFamily, SystemKind};
use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, TransferModel};
use e3_model::{zoo, EeModel, InferenceSim, RampController, RampStyle};
use e3_runtime::kernel::{EventLog, NullObserver};
use e3_runtime::strategy::StageSpec;
use e3_runtime::{
    ExclusionReason, FaultPlan, KernelEvent, RunReport, ServingConfig, ServingSim, Strategy,
};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::{ArrivalProcess, DatasetModel, Request, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn requests(n: usize, seed: u64) -> Vec<Request> {
    let g = WorkloadGenerator::new(
        ArrivalProcess::ClosedLoop { concurrency: 64 },
        DatasetModel::sst2(),
        SimDuration::from_secs(60),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    g.generate(n, &mut rng)
}

/// Runs DeeBERT under NaiveEe batching on `cluster` with `cfg`, returning
/// the report and the full event stream.
fn run_naive(
    model: &EeModel,
    cluster: &ClusterSpec,
    cfg: ServingConfig,
    n: usize,
    seed: u64,
) -> (RunReport, EventLog) {
    let stages = Strategy::NaiveEe { batch: 4 }.realize(model, cluster);
    run_stages(model, stages, cfg, n, seed)
}

/// A hand-built two-split DeeBERT pipeline (2 replicas per stage) so the
/// event stream includes fusion and transfers.
fn two_stage_specs() -> Vec<StageSpec> {
    vec![
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
    ]
}

fn run_stages(
    model: &EeModel,
    stages: Vec<StageSpec>,
    cfg: ServingConfig,
    n: usize,
    seed: u64,
) -> (RunReport, EventLog) {
    let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
    let sim = ServingSim::new(
        model,
        zoo::default_policy(model.name()),
        ctrl,
        InferenceSim::new(),
        stages,
        LatencyModel::new(),
        TransferModel::default(),
        cfg,
    );
    let reqs = requests(n, seed);
    let mut log = EventLog::new();
    let r = sim.run(&reqs, seed, &mut log);
    (r, log)
}

#[test]
fn faulted_runs_are_bit_identical() {
    // The determinism guarantee: same seed + same FaultPlan => the same
    // goodput bits, the same drop counts, the same event stream.
    let model = zoo::deebert();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
    let plan = FaultPlan::new()
        .crash(1, ms(400))
        .slowdown(2, 3.0, ms(100), ms(800))
        .stall(0, ms(200), ms(250))
        .recover(1, ms(900));
    let cfg = ServingConfig {
        fault_plan: plan.clone(),
        ..Default::default()
    };
    let (ra, la) = run_naive(&model, &cluster, cfg.clone(), 3000, 7);
    let (rb, lb) = run_naive(&model, &cluster, cfg, 3000, 7);
    assert_eq!(ra.goodput().to_bits(), rb.goodput().to_bits());
    assert_eq!(ra.completed, rb.completed);
    assert_eq!(ra.dropped, rb.dropped);
    assert_eq!(ra.within_slo, rb.within_slo);
    assert_eq!(ra.faults_injected, plan.len() as u64);
    assert_eq!(la.events, lb.events, "event streams diverged");
}

#[test]
fn fault_free_runs_report_full_availability() {
    let model = zoo::deebert();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
    let (r, log) = run_naive(&model, &cluster, ServingConfig::default(), 2000, 3);
    assert_eq!(r.faults_injected, 0);
    assert_eq!(r.degraded_completed, 0);
    assert!(r.replica_availability.iter().all(|&a| a == 1.0));
    assert_eq!(
        log.count(|e| matches!(e, KernelEvent::FaultInjected { .. })),
        0
    );
}

#[test]
fn crash_degrades_and_recovery_restores() {
    let model = zoo::deebert();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 4, 2);
    let n = 4000;
    let base_cfg = ServingConfig::default();
    let (clean, _) = run_naive(&model, &cluster, base_cfg.clone(), n, 11);

    // Crash replica 0 at 300ms, never recover: the survivors absorb the
    // whole backlog but the run is slower and partly degraded.
    let crash_cfg = ServingConfig {
        fault_plan: FaultPlan::new().crash(0, ms(300)),
        ..base_cfg.clone()
    };
    let (crashed, log) = run_naive(&model, &cluster, crash_cfg, n, 11);
    assert_eq!(crashed.completed, n as u64, "crash must not lose work");
    assert!(crashed.replica_availability[0] < 1.0);
    assert!(crashed.replica_availability[1..].iter().all(|&a| a == 1.0));
    assert!(crashed.degraded_completed > 0);
    assert!(crashed.goodput() < clean.goodput());
    assert_eq!(
        log.count(|e| matches!(
            e,
            KernelEvent::ReplicaExcluded {
                replica: 0,
                reason: ExclusionReason::Crash
            }
        )),
        1
    );

    // With a delayed recovery the replica rejoins and lost availability
    // shrinks; the event stream shows the exclusion before the recovery.
    let recover_cfg = ServingConfig {
        fault_plan: FaultPlan::new().crash(0, ms(300)).recover(0, ms(700)),
        ..base_cfg
    };
    let (recovered, log) = run_naive(&model, &cluster, recover_cfg, n, 11);
    assert_eq!(recovered.completed, n as u64);
    assert!(recovered.replica_availability[0] > crashed.replica_availability[0]);
    let excl = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::ReplicaExcluded { replica: 0, .. }))
        .expect("exclusion");
    let rec = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::ReplicaRecovered { replica: 0 }))
        .expect("recovery");
    assert!(excl < rec, "excluded at {excl}, recovered at {rec}");
}

#[test]
fn recovery_reclaims_work_stranded_on_a_dead_stage() {
    // Both replicas of the second stage crash; routed batches strand on a
    // dead queue until one replica recovers and drains them.
    let model = zoo::deebert();
    let n = 1500;
    let cfg = ServingConfig {
        fault_plan: FaultPlan::new()
            .crash(2, ms(200))
            .crash(3, ms(220))
            .recover(2, ms(700)),
        ..Default::default()
    };
    let (r, log) = run_stages(&model, two_stage_specs(), cfg, n, 13);
    assert_eq!(r.completed + r.dropped, n as u64, "stranded work reclaimed");
    assert_eq!(
        log.count(|e| matches!(e, KernelEvent::ReplicaRecovered { replica: 2 })),
        1
    );
    // Replica 3 never recovers; 2 rejoined part-way.
    assert!(r.replica_availability[3] < r.replica_availability[2]);
    assert!(r.replica_availability[2] < 1.0);
}

/// Vanilla BERT-base at batch 8 on one V100: a single replica, so every
/// batch's duration shows in the event stream.
fn one_v100_specs(model: &EeModel) -> Vec<StageSpec> {
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 1, 1);
    Strategy::Vanilla { batch: 8 }.realize(model, &cluster)
}

#[test]
fn stage_stall_pauses_dispatch_for_the_window() {
    let deebert = zoo::deebert();
    let bert = zoo::bert_base();
    // (model, stages, stalled stage, stalls, window no batch may begin
    // in, samples, seed).
    let cases = [
        // One stall on the second stage of a split pipeline.
        (
            &deebert,
            two_stage_specs(),
            1,
            FaultPlan::new().stall(1, ms(300), ms(500)),
            (ms(300), ms(500)),
            2000,
            17,
        ),
        // Back-to-back stalls: the first one's end and the second one's
        // start share an instant, and no batch may begin at it.
        (
            &bert,
            one_v100_specs(&bert),
            0,
            FaultPlan::new()
                .stall(0, ms(10), ms(50))
                .stall(0, ms(50), ms(80)),
            (ms(10), ms(80)),
            4000,
            6,
        ),
    ];
    for (model, stages, stage, plan, (from, until), n, seed) in cases {
        let cfg = ServingConfig {
            fault_plan: plan,
            ..Default::default()
        };
        let (r, log) = run_stages(model, stages, cfg, n, seed);
        assert_eq!(r.completed + r.dropped, n as u64);
        let starts_in = |lo: SimTime, hi: SimTime| {
            log.events
                .iter()
                .filter(|(t, e)| {
                    *t >= lo
                        && *t < hi
                        && matches!(e, KernelEvent::ExecStart { stage: s, .. } if *s == stage)
                })
                .count()
        };
        assert_eq!(
            starts_in(from, until),
            0,
            "stage {stage} dispatched while stalled"
        );
        assert!(
            starts_in(SimTime::ZERO, from) > 0,
            "no stage-{stage} work before stall"
        );
        assert!(
            starts_in(until, ms(60_000)) > 0,
            "stage {stage} never resumed after the stall"
        );
    }
}

#[test]
fn recovery_keeps_a_later_slowdown_window() {
    // A crash and recovery between two equal-factor slowdown windows on
    // the same replica: the first window's end must lift only its own
    // factor, so batches inside the second window stay slow.
    let model = zoo::bert_base();
    let cfg = ServingConfig {
        fault_plan: FaultPlan::new()
            .slowdown(0, 2.0, ms(0), ms(100))
            .crash(0, ms(10))
            .recover(0, ms(20))
            .slowdown(0, 2.0, ms(30), ms(200)),
        ..Default::default()
    };
    let (_, log) = run_stages(&model, one_v100_specs(&model), cfg, 4000, 6);
    // (start, duration) of every batch that ran to completion.
    let mut batches = Vec::new();
    let mut started = None;
    for (t, e) in &log.events {
        match e {
            KernelEvent::ExecStart { .. } => started = Some(*t),
            KernelEvent::ExecDone { .. } => {
                let at = started.take().expect("done without a start");
                batches.push((at, t.saturating_since(at)));
            }
            KernelEvent::ReplicaExcluded { .. } => started = None,
            _ => {}
        }
    }
    let healthy = batches
        .iter()
        .find(|(at, _)| *at >= ms(200))
        .expect("a batch after both windows")
        .1;
    let inside: Vec<SimDuration> = batches
        .iter()
        .filter(|(at, _)| *at >= ms(100) && *at < ms(190))
        .map(|&(_, d)| d)
        .collect();
    assert!(
        !inside.is_empty(),
        "no batch started inside the second window"
    );
    for d in inside {
        assert!(
            d.as_secs_f64() > 1.5 * healthy.as_secs_f64(),
            "a batch inside the second window took {d:?}, healthy {healthy:?}"
        );
    }
}

#[test]
fn event_log_ordering_holds_under_faults() {
    // Satellite: the per-sample narrative stays well-formed with faults
    // interleaved, and `for_sample` never leaks another sample's events.
    let model = zoo::deebert();
    let n = 2000usize;
    let cfg = ServingConfig {
        fault_plan: FaultPlan::new()
            .crash(1, ms(200))
            .recover(1, ms(500))
            .slowdown(3, 2.0, ms(100), ms(400))
            .stall(1, ms(250), ms(300)),
        ..Default::default()
    };
    let (r, log) = run_stages(&model, two_stage_specs(), cfg, n, 19);

    // The clock never rewinds, even across fault events.
    assert!(log.events.windows(2).all(|w| w[0].0 <= w[1].0));
    // Terminal accounting matches the report.
    assert_eq!(
        log.count(|e| matches!(e, KernelEvent::Arrival { .. })) as u64,
        r.completed + r.dropped
    );
    assert_eq!(
        log.count(|e| matches!(e, KernelEvent::Completion { .. })) as u64,
        r.completed
    );

    for id in 0..n as u64 {
        let evts = log.for_sample(id);
        if evts.is_empty() {
            continue;
        }
        // Purity: every returned event names this sample.
        for e in &evts {
            let sample = match e {
                KernelEvent::Arrival { sample }
                | KernelEvent::Dropped { sample, .. }
                | KernelEvent::Completion { sample, .. } => *sample,
                other => panic!("for_sample returned {other:?}"),
            };
            assert_eq!(sample, id);
        }
        // Exactly one arrival, first; at most one terminal event, last.
        assert!(matches!(evts[0], KernelEvent::Arrival { .. }));
        let arrivals = evts
            .iter()
            .filter(|e| matches!(e, KernelEvent::Arrival { .. }))
            .count();
        assert_eq!(arrivals, 1, "sample {id} arrived {arrivals} times");
        let terminals = evts
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    KernelEvent::Dropped { .. } | KernelEvent::Completion { .. }
                )
            })
            .count();
        assert!(terminals <= 1, "sample {id} terminated {terminals} times");
        if terminals == 1 {
            assert!(
                matches!(
                    evts.last().expect("nonempty"),
                    KernelEvent::Dropped { .. } | KernelEvent::Completion { .. }
                ),
                "sample {id}: terminal event is not last"
            );
        }
    }

    // Coarse lifecycle: the first completion was preceded by an arrival, a
    // formed batch, an exec start, and an exec done, in that order.
    let completion = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::Completion { .. }))
        .expect("some completion");
    let before = &log.events[..completion];
    let pos = |pred: &dyn Fn(&KernelEvent) -> bool| before.iter().position(|(_, e)| pred(e));
    let arrival = pos(&|e| matches!(e, KernelEvent::Arrival { .. })).expect("arrival");
    let batched = pos(&|e| matches!(e, KernelEvent::BatchFormed { .. })).expect("batch formed");
    let started = pos(&|e| matches!(e, KernelEvent::ExecStart { .. })).expect("exec start");
    let done = pos(&|e| matches!(e, KernelEvent::ExecDone { .. })).expect("exec done");
    assert!(arrival < batched && batched < started && started < done);
}

#[test]
fn straggler_detection_beats_none_under_injected_slowdown() {
    // The acceptance sweep in miniature: open-loop arrivals at ~70% of
    // capacity, one replica slowed 4x (past the 1.8x exclusion threshold).
    // Without detection a trickle of batches keeps landing on the
    // straggler and blows the SLO; with detection it is excluded and the
    // survivors have headroom.
    let generator = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate: 2000.0 },
        DatasetModel::sst2(),
        SimDuration::from_secs(4),
    );
    let run = |detect_stragglers: bool| {
        Experiment::new(
            ModelFamily::nlp(),
            ClusterSpec::homogeneous(GpuKind::V100, 8, 2),
            DatasetModel::sst2(),
        )
        .with_opts(HarnessOpts {
            fault_plan: FaultPlan::new().slowdown(0, 4.0, ms(200), SimTime::from_secs(3600)),
            detect_stragglers,
            ..Default::default()
        })
        .with_seed(0xE3)
        .run_open(SystemKind::NaiveEe, 8, &generator, &mut NullObserver)
    };
    let none = run(false);
    let detected = run(true);
    assert!(
        detected.goodput() > none.goodput(),
        "RelativeSlowdown {} <= NoStragglerDetection {}",
        detected.goodput(),
        none.goodput()
    );
    assert_eq!(detected.stragglers_detected, vec![0]);
    assert!(none.stragglers_detected.is_empty());
}
