//! Batch execution on one replica.
//!
//! Given the samples in a batch (with materialized exit layers) and the
//! stage's layer range, computes how long the replica runs and at what
//! occupancy — charging each layer the latency of the batch that actually
//! survives to it, and each enabled ramp its checking cost. This is where
//! the naive-EE inefficiency physically appears: a batch of 8 whose
//! samples exit early leaves the late layers running at batch 2–3, well
//! below the device's saturation point.

use std::ops::Range;

use e3_hardware::{ExitOverheads, GpuKind, LatencyModel};
use e3_model::{EeModel, RampController};
use e3_simcore::SimDuration;

use crate::sample::SimSample;

/// Result of timing a batch through a stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExecOutcome {
    /// Wall time the replica is busy.
    pub duration: SimDuration,
    /// Time-weighted mean occupancy over the execution.
    pub mean_occupancy: f64,
}

/// Times `samples` through `stage` layers of `model` on `gpu`.
///
/// `slowdown` is the replica's straggler factor (1.0 = healthy).
///
/// `deferred_exits` selects how exit decisions are *acted on*:
/// `false` (naive EE) pays a sync + batch-compaction overhead at every
/// checked ramp; `true` (E3 split execution) pays it once at the stage
/// boundary, where the gather re-forms the batch anyway.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_batch(
    model: &EeModel,
    ctrl: &RampController,
    lm: &LatencyModel,
    ov: &ExitOverheads,
    gpu: GpuKind,
    stage: Range<usize>,
    samples: &[SimSample],
    deferred_exits: bool,
    slowdown: f64,
) -> ExecOutcome {
    assert!(slowdown > 0.0, "slowdown factor must be positive");
    let stage_end = stage.end;
    let mut total = SimDuration::ZERO;
    let mut occ_weighted = 0.0f64;
    let mut ramps_in_stage = false;
    for k in stage {
        let active = samples.iter().filter(|s| s.needs_layer(k)).count();
        if active == 0 {
            break; // everyone left; the rest of the stage never runs
        }
        let b = active as f64;
        let spec = model.layers()[k];
        let t = lm.layer_time(spec.work_us + spec.fixed_us, b, gpu);
        occ_weighted += t.as_secs_f64() * lm.occupancy(b, gpu);
        total += t;
        if let Some(ri) = model.ramp_after(k) {
            if ctrl.pays_cost_at(ri) {
                ramps_in_stage = true;
                let rs = model.ramps()[ri];
                let rt = lm.layer_time(rs.work_us + rs.fixed_us, b, gpu);
                occ_weighted += rt.as_secs_f64() * lm.occupancy(b, gpu);
                total += rt;
                if !deferred_exits {
                    // Naive EE: act on the decision immediately —
                    // device-host sync plus compaction of survivors.
                    total += ov.reform_time(b);
                }
            }
        }
    }
    if deferred_exits && ramps_in_stage {
        // E3: one gather at the split boundary handles all exits.
        let live_at_end = samples
            .iter()
            .filter(|s| s.needs_layer(stage_end.saturating_sub(1)))
            .count();
        total += ov.reform_time(live_at_end as f64);
    }
    let mean_occupancy = if total.is_zero() {
        0.0
    } else {
        occ_weighted / total.as_secs_f64()
    };
    ExecOutcome {
        duration: total.mul_f64(slowdown),
        mean_occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::{zoo, RampStyle};
    use e3_simcore::SimTime;

    fn sample(exit: usize) -> SimSample {
        SimSample {
            id: 0,
            arrival: SimTime::ZERO,
            layers_executed: exit,
            exited_at_ramp: None,
            correct: true,
            output_tokens: 1,
        }
    }

    fn setup() -> (e3_model::EeModel, RampController, LatencyModel) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new())
    }

    #[test]
    fn full_batch_full_model_anchor() {
        let (m, c, lm) = setup();
        let batch: Vec<SimSample> = (0..8).map(|_| sample(12)).collect();
        let out = execute_batch(
            &m,
            &c,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            0..12,
            &batch,
            false,
            1.0,
        );
        // BERT at b=8 is ~19.7ms; DeeBERT adds 11 ramp checks plus the
        // per-ramp sync/compaction overheads of acting on them.
        let ms = out.duration.as_millis_f64();
        assert!((28.0..40.0).contains(&ms), "t={ms}");
        // Sync/compaction time counts against occupancy, so even a full
        // batch sits below 1.0 when ramps are acted on in place.
        assert!(out.mean_occupancy > 0.6, "occ={}", out.mean_occupancy);
    }

    #[test]
    fn early_exits_shorten_and_deoccupy() {
        let (m, c, lm) = setup();
        let full: Vec<SimSample> = (0..8).map(|_| sample(12)).collect();
        // Six of eight exit after layer 3.
        let mut shrink = vec![sample(4); 6];
        shrink.extend(vec![sample(12); 2]);
        let a = execute_batch(
            &m,
            &c,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            0..12,
            &full,
            false,
            1.0,
        );
        let b = execute_batch(
            &m,
            &c,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            0..12,
            &shrink,
            false,
            1.0,
        );
        assert!(b.duration < a.duration);
        assert!(b.mean_occupancy < a.mean_occupancy);
    }

    #[test]
    fn everyone_exits_before_stage_costs_nothing() {
        let (m, c, lm) = setup();
        let batch = vec![sample(3); 4];
        let out = execute_batch(
            &m,
            &c,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            6..12,
            &batch,
            false,
            1.0,
        );
        assert!(out.duration.is_zero());
    }

    #[test]
    fn slowdown_scales_duration() {
        let (m, c, lm) = setup();
        let batch = vec![sample(12); 4];
        let fast = execute_batch(
            &m,
            &c,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            0..12,
            &batch,
            false,
            1.0,
        );
        let slow = execute_batch(
            &m,
            &c,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            0..12,
            &batch,
            false,
            2.0,
        );
        let ratio = slow.duration.as_secs_f64() / fast.duration.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stock_model_has_no_ramp_cost() {
        let stock = zoo::bert_base();
        let c0 = RampController::all_enabled(0, RampStyle::Independent);
        let lm = LatencyModel::new();
        let batch = vec![sample(12); 8];
        let stock_t = execute_batch(
            &stock,
            &c0,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            0..12,
            &batch,
            false,
            1.0,
        );
        let (ee, c, _) = setup();
        let ee_t = execute_batch(
            &ee,
            &c,
            &lm,
            &ExitOverheads::default(),
            GpuKind::V100,
            0..12,
            &batch,
            false,
            1.0,
        );
        assert!(ee_t.duration > stock_t.duration, "ramps must cost time");
    }
}
