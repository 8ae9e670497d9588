//! Mutation-style self-tests for the invariant checker: record a real
//! kernel event log, verify it checks clean, then corrupt it in targeted
//! ways and assert each corruption is detected by the *right* invariant
//! class. A checker that never fires is indistinguishable from no
//! checker; these tests prove every rule has teeth.

use e3::harness::{Experiment, HarnessOpts, ModelFamily, SystemKind};
use e3_hardware::{ClusterSpec, GpuKind, LatencyModel};
use e3_model::{zoo, InferenceSim, RampController};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::{EventLog, KernelEvent, TeeObserver};
use e3_runtime::{run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, KvPlan, PreemptMode};
use e3_scenarios::{CheckerConfig, InvariantChecker, InvariantClass, StreamScope};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::{ArrivalProcess, DatasetModel, WorkloadGenerator};

const KV_CAP: usize = 96;

/// Records a real continuous-batching run (KV pressure + a crash/recover
/// fault, so the log carries token, residency, KV, and replica-lifecycle
/// events) and returns its event log.
fn recorded_continuous_log() -> EventLog {
    let model = zoo::calm_t5();
    let ar = *model.autoreg().expect("calm_t5 is autoregressive");
    let ctrl = RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent);
    let specs = materialize_sequences(
        &model,
        &zoo::default_policy("CALM"),
        &ctrl,
        &InferenceSim::new(),
        &DatasetModel::samsum(),
        48,
        0xE3,
    );
    let lm = LatencyModel::new();
    let cfg = ContinuousConfig {
        model: &model,
        ctrl: &ctrl,
        gpu: GpuKind::A6000,
        lm: &lm,
        join: JoinPolicy::Continuous,
        b0: 8,
        replicas_a: 2,
        boundary: None,
        replicas_b: 0,
        deferred_exits: false,
        kv: Some(KvPlan {
            capacity_tokens: KV_CAP,
            bytes_per_token: ar.kv_bytes_per_token,
            mode: PreemptMode::Recompute,
        }),
        slo: SimDuration::from_secs(86_400),
        fault_plan: FaultPlan::new()
            .crash(0, SimTime::from_millis(2))
            .recover(0, SimTime::from_millis(8)),
        b_max_wait: None,
    };
    let mut log = EventLog::new();
    let out = run_continuous(&cfg, &specs, &mut log);
    assert!(out.report.completed > 0, "run produced no completions");
    log
}

fn continuous_cfg() -> CheckerConfig {
    CheckerConfig {
        scope: StreamScope::SingleRun,
        kv_capacity_tokens: Some(KV_CAP),
        queue_cap: None,
    }
}

/// Asserts the corrupted log trips `class` (and that the pristine log
/// did not).
fn assert_fires(log: &EventLog, class: InvariantClass) {
    let violations = InvariantChecker::check_log(continuous_cfg(), log);
    assert!(
        violations.iter().any(|v| v.class == class),
        "corruption was not detected as {class}; got: {:?}",
        violations.iter().take(3).collect::<Vec<_>>()
    );
}

#[test]
fn recorded_log_checks_clean() {
    let log = recorded_continuous_log();
    let violations = InvariantChecker::check_log(continuous_cfg(), &log);
    assert!(
        violations.is_empty(),
        "pristine log has violations: {:?}",
        violations.iter().take(3).collect::<Vec<_>>()
    );
    assert!(
        log.count(|e| matches!(e, KernelEvent::KvAdmitted { .. })) > 0
            && log.count(|e| matches!(e, KernelEvent::TokenGenerated { .. })) > 0
            && log.count(|e| matches!(e, KernelEvent::ReplicaExcluded { .. })) > 0,
        "recorded log is missing the event kinds the mutations target"
    );
}

#[test]
fn dropping_a_token_generated_fires_token_conservation() {
    let mut log = recorded_continuous_log();
    // Drop some sequence's index-0 token; its index-1 token (every samsum
    // output has several) then arrives out of sequence.
    let pos = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::TokenGenerated { index: 0, .. }))
        .expect("no index-0 token in log");
    log.events.remove(pos);
    assert_fires(&log, InvariantClass::TokenConservation);
}

#[test]
fn double_firing_a_kv_admitted_fires_kv_accounting() {
    let mut log = recorded_continuous_log();
    let pos = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::KvAdmitted { .. }))
        .expect("no KvAdmitted in log");
    let dup = log.events[pos];
    log.events.insert(pos + 1, dup);
    assert_fires(&log, InvariantClass::KvAccounting);
}

#[test]
fn duplicating_an_arrival_fires_sample_conservation() {
    let mut log = recorded_continuous_log();
    let pos = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::Arrival { .. }))
        .expect("no Arrival in log");
    let dup = log.events[pos];
    log.events.insert(pos + 1, dup);
    assert_fires(&log, InvariantClass::SampleConservation);
}

#[test]
fn duplicating_a_sequence_joined_fires_sequence_residency() {
    let mut log = recorded_continuous_log();
    let pos = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::SequenceJoined { .. }))
        .expect("no SequenceJoined in log");
    let dup = log.events[pos];
    log.events.insert(pos + 1, dup);
    assert_fires(&log, InvariantClass::SequenceResidency);
}

#[test]
fn stray_recovery_fires_replica_lifecycle() {
    let mut log = recorded_continuous_log();
    // Replica 7 never existed, let alone was excluded.
    let at = log.events.last().expect("nonempty log").0;
    log.events
        .push((at, KernelEvent::ReplicaRecovered { replica: 7 }));
    assert_fires(&log, InvariantClass::ReplicaLifecycle);
}

#[test]
fn exec_start_on_crashed_replica_fires_replica_lifecycle() {
    let mut log = recorded_continuous_log();
    let pos = log
        .events
        .iter()
        .position(|(_, e)| matches!(e, KernelEvent::ReplicaExcluded { .. }))
        .expect("no ReplicaExcluded in log");
    let (at, excluded) = log.events[pos];
    let replica = match excluded {
        KernelEvent::ReplicaExcluded { replica, .. } => replica,
        _ => unreachable!(),
    };
    log.events.insert(
        pos + 1,
        (
            at,
            KernelEvent::ExecStart {
                replica,
                stage: 0,
                size: 1,
            },
        ),
    );
    assert_fires(&log, InvariantClass::ReplicaLifecycle);
}

#[test]
fn unconfigured_batch_shed_fires_queue_bound() {
    let mut log = recorded_continuous_log();
    // The run was checked with `queue_cap: None`: no shedding may happen.
    let at = log.events.last().expect("nonempty log").0;
    log.events
        .push((at, KernelEvent::BatchShed { stage: 0, size: 4 }));
    assert_fires(&log, InvariantClass::QueueBound);
}

#[test]
fn swapping_timestamps_fires_clock_monotonic() {
    let mut log = recorded_continuous_log();
    let pos = log
        .events
        .windows(2)
        .position(|w| w[0].0 < w[1].0)
        .expect("no strictly increasing adjacent pair");
    let (a, b) = (log.events[pos].0, log.events[pos + 1].0);
    log.events[pos].0 = b;
    log.events[pos + 1].0 = a;
    assert_fires(&log, InvariantClass::ClockMonotonic);
}

/// The guarded-reconfiguration protocol invariants, checked on a
/// handcrafted epoch stream (the continuous kernel does not emit epoch
/// events; the windowed control loop does).
mod epochs {
    use super::*;

    fn legal_epoch_log() -> EventLog {
        let mut log = EventLog::new();
        let t = SimTime::from_millis(1);
        log.events
            .push((t, KernelEvent::ReconfigStarted { epoch: 1 }));
        log.events
            .push((t, KernelEvent::CanaryPromoted { epoch: 1 }));
        log.events
            .push((t, KernelEvent::ReconfigStarted { epoch: 2 }));
        log.events.push((t, KernelEvent::RolledBack { epoch: 2 }));
        log
    }

    fn epoch_violations(log: &EventLog) -> Vec<e3_scenarios::Violation> {
        InvariantChecker::check_log(CheckerConfig::default(), log)
    }

    #[test]
    fn legal_epoch_stream_checks_clean() {
        assert!(epoch_violations(&legal_epoch_log()).is_empty());
    }

    #[test]
    fn unpairing_a_canary_promoted_fires_reconfig_epochs() {
        let mut log = legal_epoch_log();
        // Remove epoch 1's ReconfigStarted: its CanaryPromoted is now
        // unpaired.
        log.events.remove(0);
        let v = epoch_violations(&log);
        assert!(
            v.iter().any(|v| v.class == InvariantClass::ReconfigEpochs),
            "unpaired promotion not detected: {v:?}"
        );
    }

    #[test]
    fn double_promotion_fires_reconfig_epochs() {
        let mut log = legal_epoch_log();
        let dup = log.events[1];
        log.events.insert(2, dup);
        let v = epoch_violations(&log);
        assert!(v.iter().any(|v| v.class == InvariantClass::ReconfigEpochs));
    }

    #[test]
    fn skipped_epoch_number_fires_reconfig_epochs() {
        let mut log = legal_epoch_log();
        let t = SimTime::from_millis(2);
        log.events
            .push((t, KernelEvent::ReconfigStarted { epoch: 9 }));
        log.events
            .push((t, KernelEvent::CanaryPromoted { epoch: 9 }));
        let v = epoch_violations(&log);
        assert!(v.iter().any(|v| v.class == InvariantClass::ReconfigEpochs));
    }

    #[test]
    fn unclosed_epoch_fires_at_finish() {
        let mut log = legal_epoch_log();
        log.events.push((
            SimTime::from_millis(2),
            KernelEvent::ReconfigStarted { epoch: 3 },
        ));
        let v = epoch_violations(&log);
        assert!(v.iter().any(|v| v.class == InvariantClass::ReconfigEpochs));
    }
}

/// The checker composes next to a recording observer without perturbing
/// either: teeing checker + log yields the same stream the log-only run
/// records, and the live checker agrees with a replay of the recording.
#[test]
fn tee_composed_checker_matches_replay() {
    let model = zoo::calm_t5();
    let ar = *model.autoreg().expect("calm_t5 is autoregressive");
    let ctrl = RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent);
    let specs = materialize_sequences(
        &model,
        &zoo::default_policy("CALM"),
        &ctrl,
        &InferenceSim::new(),
        &DatasetModel::samsum(),
        24,
        7,
    );
    let lm = LatencyModel::new();
    let cfg = ContinuousConfig {
        model: &model,
        ctrl: &ctrl,
        gpu: GpuKind::A6000,
        lm: &lm,
        join: JoinPolicy::Continuous,
        b0: 8,
        replicas_a: 2,
        boundary: None,
        replicas_b: 0,
        deferred_exits: false,
        kv: Some(KvPlan {
            capacity_tokens: KV_CAP,
            bytes_per_token: ar.kv_bytes_per_token,
            mode: PreemptMode::Swap,
        }),
        slo: SimDuration::from_secs(86_400),
        fault_plan: FaultPlan::new(),
        b_max_wait: None,
    };
    let mut checker = InvariantChecker::new(continuous_cfg());
    let mut log = EventLog::new();
    {
        let mut tee = TeeObserver::new(&mut checker, &mut log);
        let out = run_continuous(&cfg, &specs, &mut tee);
        assert_eq!(out.report.completed + out.leftover, specs.len() as u64);
    }
    assert_eq!(checker.events_seen(), log.events.len() as u64);
    let live = checker.finish();
    let replayed = InvariantChecker::check_log(continuous_cfg(), &log);
    assert_eq!(live, replayed);
    assert!(
        live.is_empty(),
        "violations: {:?}",
        &live[..live.len().min(3)]
    );
}

/// Asserts `log` checks clean and never runs two replicas on one of
/// `m` GPUs at once. Stage `s`'s replica `k` is global id `s·m + k`, so
/// ids congruent mod `m` share a GPU; their `ExecStart`→`ExecDone`
/// intervals must not overlap. Returns the completions the log narrates.
fn assert_legal_and_unshared(log: &EventLog, m: usize) -> usize {
    let violations = InvariantChecker::check_log(CheckerConfig::default(), log);
    assert!(
        violations.is_empty(),
        "violations: {:?}",
        &violations[..violations.len().min(3)]
    );
    // Per GPU: the replica running on it and when it started.
    let mut running: Vec<Option<(usize, SimTime)>> = vec![None; m];
    let mut stages_seen = std::collections::BTreeSet::new();
    let mut completions = 0;
    for (now, e) in &log.events {
        match *e {
            KernelEvent::ExecStart { replica, stage, .. } => {
                stages_seen.insert(stage);
                let gpu = &mut running[replica % m];
                assert!(
                    gpu.is_none(),
                    "replica {replica} starts at {now:?} while {gpu:?} runs on GPU {}",
                    replica % m
                );
                *gpu = Some((replica, *now));
            }
            KernelEvent::ExecDone { replica, .. } => {
                let gpu = &mut running[replica % m];
                assert_eq!(gpu.map(|(r, _)| r), Some(replica), "unpaired ExecDone");
                *gpu = None;
            }
            KernelEvent::Completion { .. } => completions += 1,
            _ => {}
        }
    }
    assert!(
        stages_seen.len() > 1,
        "the plan must split: {stages_seen:?}"
    );
    completions
}

/// Model parallelism OFF streams legal runs that keep every GPU to one
/// replica at a time under the phase barrier: fig. 26's MP-OFF E3 point
/// at b=8 (DeeBERT on 16 V100s, 20k requests, seed 0xE3), and the same
/// deployment open loop under 4000 req/s of Poisson arrivals.
#[test]
fn mp_off_stream_checks_clean_and_never_shares_a_gpu() {
    let exp = Experiment::new(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    )
    .with_n(20_000)
    .with_seed(0xE3)
    .with_opts(HarnessOpts {
        pipelining: false,
        ..Default::default()
    });
    let m = exp.cluster.num_gpus();
    let mut log = EventLog::new();
    let report = exp.run(SystemKind::E3, 8, &mut log);
    assert_eq!(report.completed, 20_000);
    assert_eq!(assert_legal_and_unshared(&log, m), 20_000);

    let poisson = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate: 4000.0 },
        DatasetModel::sst2(),
        SimDuration::from_secs(2),
    );
    let mut log = EventLog::new();
    let report = exp.run_open(SystemKind::E3, 8, &poisson, &mut log);
    assert!(report.completed > 0);
    assert_eq!(assert_legal_and_unshared(&log, m) as u64, report.completed);
}
