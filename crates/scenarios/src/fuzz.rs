//! Byte-decoded fault-plan fuzzing for the serving kernel.
//!
//! [`decode_fault_plan`] is a *total* decoder from an arbitrary byte
//! string to a valid, **live** [`FaultPlan`]: every byte string decodes
//! (trailing partial records are ignored), every crash is paired with a
//! recovery inside the active window, and a protected replica set — the
//! first replica of each stage — is never crashed. Liveness is what makes the conservation law
//! decidable: a plan that permanently kills a whole stage strands queued
//! samples forever, and `completed + dropped == offered` would hang on
//! the definition of "forever" instead of failing loudly.
//!
//! The decoder covers the kernel's fault vocabulary: crash with
//! recovery, transient slowdown and stage stall.
//!
//! The companion property test serves decoded plans with straggler
//! detection, and asserts, per run, that no sample is lost or
//! double-counted and the kernel event stream passes the typed invariant
//! checker.

use e3_runtime::kernel::FaultPlan;
use e3_simcore::{SimDuration, SimTime};

/// One decoded record is this many bytes:
/// `[opcode, operand, t_lo, t_hi, duration, factor]`.
pub const RECORD_BYTES: usize = 6;

/// Decodes `bytes` into a live fault plan for a deployment of
/// `num_replicas` replicas over `num_stages` stages.
///
/// * `protected` replicas (typically the first replica of each stage)
///   are never crashed; crash records targeting them are re-aimed at
///   the next unprotected replica.
/// * All fault onsets land in `[1ms, active)` and every window closes
///   by `active + 512ms`, so a run whose workload outlives `active`
///   always drains.
///
/// The decode is total and deterministic: any byte string yields a plan
/// that passes [`FaultPlan::validate`] for the given shape.
pub fn decode_fault_plan(
    bytes: &[u8],
    protected: &[usize],
    num_replicas: usize,
    num_stages: usize,
    active: SimDuration,
) -> FaultPlan {
    assert!(num_replicas > 0 && num_stages > 0, "empty deployment");
    let active_ms = (active.as_secs_f64() * 1e3) as u64;
    assert!(active_ms >= 2, "active window too short to place a fault");

    let mut plan = FaultPlan::new();
    for rec in bytes.chunks_exact(RECORD_BYTES) {
        let [op, operand, t_lo, t_hi, dur, fac] = [rec[0], rec[1], rec[2], rec[3], rec[4], rec[5]];
        let from_ms = 1 + u64::from(u16::from_le_bytes([t_lo, t_hi])) % (active_ms - 1);
        let until_ms = from_ms + 1 + u64::from(dur) * 2;
        let from = SimTime::from_millis(from_ms);
        let until = SimTime::from_millis(until_ms);
        // Slowdown factors in [1.5, 7.8]: strictly > 1 (validate requires
        // it) and bounded so a slowed batch still finishes within the
        // drain tail.
        let factor = 1.5 + f64::from(fac % 64) * 0.1;

        let replica = {
            let mut r = usize::from(operand) % num_replicas;
            if protected.contains(&r) {
                // Re-aim crashes at the nearest unprotected replica; the
                // scan terminates because `protected` never covers the
                // whole deployment in any caller (asserted below).
                while protected.contains(&r) {
                    r = (r + 1) % num_replicas;
                }
            }
            r
        };
        assert!(
            protected.len() < num_replicas,
            "every replica is protected; no crash target exists"
        );
        let stage = usize::from(operand) % num_stages;

        plan = match op % 4 {
            0 => plan.crash(replica, from).recover(replica, until),
            1 => plan.slowdown(replica, factor, from, until),
            _ => plan.stall(stage, from, until),
        };
    }
    plan.validate(num_replicas, num_stages);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::{CheckerConfig, InvariantChecker, StreamScope};
    use e3_hardware::{GpuKind, LatencyModel, TransferModel};
    use e3_model::{zoo, ExitPolicy, InferenceSim, RampController, RampStyle};
    use e3_runtime::strategy::StageSpec;
    use e3_runtime::{ServingConfig, ServingSim};
    use e3_simcore::SimDuration;
    use e3_workload::{ArrivalProcess, DatasetModel, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic byte stream: splitmix64 over the seed, truncated.
    fn decoded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.extend_from_slice(&z.to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn decoder_is_total_and_plans_validate() {
        for seed in 0..200u64 {
            let n = RECORD_BYTES * (seed as usize % 7) + (seed as usize % RECORD_BYTES);
            let plan = decode_fault_plan(
                &decoded_bytes(seed, n),
                &[0, 4],
                6,
                2,
                SimDuration::from_millis(1200),
            );
            // validate() ran inside; liveness: no protected replica is
            // ever crashed, and every crash has a later recovery.
            for e in plan.events() {
                if let e3_runtime::FaultEvent::ReplicaCrash { replica, at } = e {
                    assert!(
                        ![0usize, 4].contains(replica),
                        "crashed protected {replica}"
                    );
                    assert!(
                        plan.events().iter().any(|r| matches!(
                            r,
                            e3_runtime::FaultEvent::DelayedRecovery { replica: rr, at: ra }
                                if rr == replica && ra > at
                        )),
                        "crash of {replica} never recovers"
                    );
                }
            }
            assert!(plan.permanently_crashed().is_empty());
        }
    }

    #[test]
    fn conservation_holds_under_decoded_plans() {
        // A 2-stage DeeBERT pipeline over 6 V100s: stage transfers exist,
        // and each stage keeps a protected replica (0 and 4).
        let model = zoo::deebert();
        let stages = || {
            vec![
                StageSpec {
                    layers: 0..6,
                    target_batch: 8,
                    replicas: vec![GpuKind::V100; 4],
                    deferred_exits: true,
                },
                StageSpec {
                    layers: 6..12,
                    target_batch: 8,
                    replicas: vec![GpuKind::V100; 2],
                    deferred_exits: true,
                },
            ]
        };
        for seed in 0..12u64 {
            let records = 3 + seed as usize % 5;
            let plan = decode_fault_plan(
                &decoded_bytes(seed, RECORD_BYTES * records),
                &[0, 4],
                6,
                2,
                SimDuration::from_millis(1200),
            );
            let g = WorkloadGenerator::new(
                ArrivalProcess::Poisson { rate: 400.0 },
                DatasetModel::sst2(),
                SimDuration::from_millis(1500),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let reqs = g.generate(0, &mut rng);
            let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
            let sim = ServingSim::new(
                &model,
                ExitPolicy::Entropy { threshold: 0.4 },
                ctrl,
                InferenceSim::new(),
                stages(),
                LatencyModel::new(),
                TransferModel::default(),
                ServingConfig {
                    closed_loop: false,
                    slo: SimDuration::from_millis(50),
                    detect_stragglers: true,
                    fault_plan: plan,
                    ..Default::default()
                },
            );
            let mut checker = InvariantChecker::new(CheckerConfig {
                scope: StreamScope::SingleRun,
                kv_capacity_tokens: None,
            });
            let r = sim.run(&reqs, seed, &mut checker);
            assert!(checker.events_seen() > 0, "seed {seed}: silent run");
            let violations = checker.finish();
            assert!(
                violations.is_empty(),
                "seed {seed}: {:?}",
                violations.iter().take(5).collect::<Vec<_>>()
            );
            // Conservation: every offered sample is completed or dropped,
            // exactly once, and every drop is attributed to a cause.
            assert_eq!(
                r.completed + r.dropped,
                reqs.len() as u64,
                "seed {seed}: {} completed + {} dropped != {} offered",
                r.completed,
                r.dropped,
                reqs.len()
            );
            assert_eq!(
                r.robustness.sheds.total(),
                r.dropped,
                "seed {seed}: shed breakdown {:?} does not add up to {} drops",
                r.robustness.sheds,
                r.dropped
            );
        }
    }
}
