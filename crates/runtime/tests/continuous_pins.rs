//! Pinned continuous-batching runs for the configurations no figure
//! golden reaches: PCIe swap-in under KV pressure, two-stage splits with
//! immediate and deferred exits, stage-A and stage-B crash/recovery,
//! stacked transient slowdowns and a boundary link outage.
//!
//! Each case digests the `Debug` rendering of the [`ContinuousOutcome`]
//! together with the full [`EventLog`] (every event and its timestamp),
//! so any change to pass pricing, admission, preemption or fault
//! handling moves a digest. The digests were recorded from the driver
//! that re-derived every pass cost layer by layer; the table-priced
//! driver must reproduce them unchanged.

use e3_hardware::{GpuKind, LatencyModel};
use e3_model::{zoo, EeModel, InferenceSim, RampController};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::{EventLog, FaultPlan};
use e3_runtime::{
    run_continuous, ContinuousConfig, ContinuousOutcome, JoinPolicy, KvPlan, PreemptMode,
    SequenceSpec,
};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::DatasetModel;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(out: &ContinuousOutcome, log: &EventLog) -> u64 {
    fnv1a(format!("{out:?}|{log:?}").as_bytes())
}

/// Deterministic sequences with the model's real exit distribution.
fn specs(model: &EeModel, policy_name: &str, n: usize, seed: u64) -> Vec<SequenceSpec> {
    let ctrl = RampController::all_enabled(
        model.num_ramps(),
        zoo::default_policy(policy_name).ramp_style(),
    );
    let ds = DatasetModel::samsum();
    let infer = InferenceSim::with_accuracy(ds.base_accuracy);
    let policy = zoo::default_policy(policy_name);
    materialize_sequences(model, &policy, &ctrl, &infer, &ds, n, seed)
}

struct Case {
    model: EeModel,
    policy: &'static str,
    join: JoinPolicy,
    b0: usize,
    replicas_a: usize,
    boundary: Option<usize>,
    replicas_b: usize,
    deferred_exits: bool,
    kv: Option<(usize, PreemptMode)>,
    faults: FaultPlan,
    sequences: usize,
}

impl Case {
    fn calm(join: JoinPolicy, b0: usize, replicas_a: usize) -> Self {
        Case {
            model: zoo::calm_t5(),
            policy: "CALM",
            join,
            b0,
            replicas_a,
            boundary: None,
            replicas_b: 0,
            deferred_exits: false,
            kv: None,
            faults: FaultPlan::new(),
            sequences: 48,
        }
    }

    /// CALM-T5 split after decoder layer 4: three stage-A replicas feed
    /// one stage-B replica.
    fn calm_split(deferred_exits: bool) -> Self {
        Case {
            boundary: Some(12),
            replicas_b: 1,
            deferred_exits,
            kv: Some((96, PreemptMode::Recompute)),
            ..Case::calm(JoinPolicy::Continuous, 8, 3)
        }
    }

    fn run(&self) -> u64 {
        let ctrl = RampController::all_enabled(
            self.model.num_ramps(),
            zoo::default_policy(self.policy).ramp_style(),
        );
        let lm = LatencyModel::new();
        let kv_bytes = self
            .model
            .autoreg()
            .expect("autoregressive")
            .kv_bytes_per_token;
        let cfg = ContinuousConfig {
            model: &self.model,
            ctrl: &ctrl,
            gpu: GpuKind::A6000,
            lm: &lm,
            join: self.join,
            b0: self.b0,
            replicas_a: self.replicas_a,
            boundary: self.boundary,
            replicas_b: self.replicas_b,
            deferred_exits: self.deferred_exits,
            kv: self.kv.map(|(capacity_tokens, mode)| KvPlan {
                capacity_tokens,
                bytes_per_token: kv_bytes,
                mode,
            }),
            slo: SimDuration::from_secs(30),
            fault_plan: self.faults.clone(),
            b_max_wait: None,
        };
        let specs = specs(&self.model, self.policy, self.sequences, 0xC0DE);
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &specs, &mut log);
        assert_eq!(
            out.report.completed + out.leftover,
            self.sequences as u64,
            "sequences lost"
        );
        digest(&out, &log)
    }
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn check(name: &str, case: Case, pinned: u64) {
    let got = case.run();
    assert_eq!(
        got, pinned,
        "{name}: digest {got:#018x} != pinned {pinned:#018x}"
    );
}

#[test]
fn swap_under_kv_pressure_continuous() {
    let case = Case {
        kv: Some((40, PreemptMode::Swap)),
        ..Case::calm(JoinPolicy::Continuous, 8, 2)
    };
    check("swap_continuous", case, 0x1e95_4e71_4735_50a1);
}

#[test]
fn swap_under_kv_pressure_unpadded_window() {
    let case = Case {
        kv: Some((40, PreemptMode::Swap)),
        ..Case::calm(JoinPolicy::Window { padded: false }, 8, 2)
    };
    check("swap_unpadded_window", case, 0x6daa_cb12_20c2_5c68);
}

#[test]
fn two_stage_immediate_exits() {
    check(
        "two_stage_immediate",
        Case::calm_split(false),
        0xc5a5_0aae_cf44_ae99,
    );
}

#[test]
fn two_stage_deferred_exits() {
    check(
        "two_stage_deferred",
        Case::calm_split(true),
        0x9c86_2871_e250_e8f2,
    );
}

#[test]
fn two_stage_stage_a_crash_and_recovery() {
    let case = Case {
        faults: FaultPlan::new().crash(1, ms(40)).recover(1, ms(120)),
        ..Case::calm_split(true)
    };
    check("stage_a_crash", case, 0x7858_eb49_dce9_6f8e);
}

#[test]
fn two_stage_stage_b_crash_and_recovery() {
    let case = Case {
        faults: FaultPlan::new().crash(3, ms(60)).recover(3, ms(150)),
        ..Case::calm_split(false)
    };
    check("stage_b_crash", case, 0x0a36_a797_5da7_3f41);
}

#[test]
fn two_stage_slowdowns_and_link_down() {
    let case = Case {
        faults: FaultPlan::new()
            .slowdown(0, 2.5, ms(10), ms(150))
            .slowdown(0, 1.5, ms(40), ms(100))
            .slowdown(3, 3.0, ms(30), ms(120))
            .link_down(0, ms(60), ms(110)),
        kv: Some((96, PreemptMode::Swap)),
        ..Case::calm_split(true)
    };
    check("slowdown_link_down", case, 0x107b_f127_8d3a_db69);
}

#[test]
fn decoder_only_padded_window_with_crash() {
    // Llama has no encoder: every pass starts at decoder layer 0.
    let case = Case {
        model: zoo::llama31_8b_ee(),
        policy: "Llama3.1-8b-EE",
        kv: Some((64, PreemptMode::Recompute)),
        faults: FaultPlan::new().crash(0, ms(200)).recover(0, ms(900)),
        sequences: 24,
        ..Case::calm(JoinPolicy::Window { padded: true }, 4, 2)
    };
    check("llama_padded_window", case, 0xb554_e5d5_20eb_fd94);
}
