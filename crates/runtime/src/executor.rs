//! Batch execution on one replica.
//!
//! Given the samples in a batch (with materialized exit layers) and the
//! stage's layer range, computes how long the replica runs and at what
//! occupancy — charging each layer the latency of the batch that actually
//! survives to it, and each enabled ramp its checking cost. This is where
//! the naive-EE inefficiency physically appears: a batch of 8 whose
//! samples exit early leaves the late layers running at batch 2–3, well
//! below the device's saturation point.
//!
//! The price is `e3_optimizer::stage`'s one stage price: an
//! [`ExecTable`] per (stage, kind), built on the per-layer rule the
//! planner reads too, and the table token serving walks. Timing a batch
//! is a histogram of its exit depths, one table read per layer, and the
//! replica's slowdown factor.

use e3_hardware::GpuKind;
use e3_optimizer::stage::ExecTable;
use e3_simcore::SimDuration;

use crate::engine::ServingSim;
use crate::sample::SimSample;

/// Result of timing a batch through a stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExecOutcome {
    /// Wall time the replica is busy.
    pub duration: SimDuration,
    /// Time-weighted mean occupancy over the execution.
    pub mean_occupancy: f64,
}

/// Times `samples` through `table`'s stage, filling the table to the
/// batch first. `slowdown` is the replica's straggler factor (1.0 =
/// healthy); `hist` is scratch for the exit-depth histogram.
fn execute(
    table: &mut ExecTable<'_>,
    samples: &[SimSample],
    slowdown: f64,
    hist: &mut Vec<usize>,
) -> ExecOutcome {
    assert!(slowdown > 0.0, "slowdown factor must be positive");
    table.fill(samples.len());
    let (start, len) = (table.stage().start, table.stage().len());
    // How many samples leave after each depth within the stage; those
    // that run all of it need no entry.
    hist.clear();
    hist.resize(len, 0);
    for s in samples {
        if let Some(h) = hist.get_mut(usize::from(s.layers_executed).saturating_sub(start)) {
            *h += 1;
        }
    }
    let (total, mean_occupancy) = table.price_batch(hist, samples.len());
    ExecOutcome {
        duration: total.mul_f64(slowdown),
        mean_occupancy,
    }
}

/// The [`ExecTable`] of every (stage, GPU kind) a deployment dispatches
/// to, each built at its first dispatch and shared by the stage's
/// replicas of that kind.
pub(crate) struct ExecTables<'a> {
    sim: &'a ServingSim<'a>,
    /// Per stage, one table per kind.
    tables: Vec<Vec<ExecTable<'a>>>,
    hist: Vec<usize>,
}

impl<'a> ExecTables<'a> {
    pub(crate) fn new(sim: &'a ServingSim<'a>) -> Self {
        ExecTables {
            sim,
            tables: vec![Vec::new(); sim.stages.len()],
            hist: Vec::new(),
        }
    }

    /// Times `samples` through stage `stage` on a replica of kind `gpu`.
    pub(crate) fn execute(
        &mut self,
        stage: usize,
        gpu: GpuKind,
        samples: &[SimSample],
        slowdown: f64,
    ) -> ExecOutcome {
        let sim = self.sim;
        let kinds = &mut self.tables[stage];
        let at = match kinds.iter().position(|t| t.gpu() == gpu) {
            Some(at) => at,
            None => {
                let spec = &sim.stages[stage];
                kinds.push(ExecTable::new(
                    sim.model,
                    &sim.ctrl,
                    &sim.lm,
                    gpu,
                    spec.layers.clone(),
                    spec.deferred_exits,
                ));
                kinds.len() - 1
            }
        };
        execute(&mut kinds[at], samples, slowdown, &mut self.hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_hardware::{ExitOverheads, LatencyModel};
    use e3_model::{zoo, EeModel, RampController, RampStyle};
    use e3_simcore::SimTime;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;

    /// The per-layer walk [`ExecTable`] tables: counts the live samples
    /// at every layer and prices each from the latency model.
    #[allow(clippy::too_many_arguments)]
    fn execute_batch(
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

    fn sample(exit: usize) -> SimSample {
        SimSample {
            id: 0,
            arrival: SimTime::ZERO,
            layers_executed: u16::try_from(exit).expect("test models have at most u16::MAX layers"),
            exited_early: false,
            correct: true,
            output_tokens: 1,
        }
    }

    fn setup() -> (e3_model::EeModel, RampController, LatencyModel) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new())
    }

    /// Times `batch` through `stage` of `m` on a V100 with naive EE.
    fn run(
        m: &EeModel,
        c: &RampController,
        lm: &LatencyModel,
        stage: Range<usize>,
        batch: &[SimSample],
        slowdown: f64,
    ) -> ExecOutcome {
        let mut table = ExecTable::new(m, c, lm, GpuKind::V100, stage, false);
        execute(&mut table, batch, slowdown, &mut Vec::new())
    }

    #[test]
    fn full_batch_full_model_anchor() {
        let (m, c, lm) = setup();
        let batch: Vec<SimSample> = (0..8).map(|_| sample(12)).collect();
        let out = run(&m, &c, &lm, 0..12, &batch, 1.0);
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
        let a = run(&m, &c, &lm, 0..12, &full, 1.0);
        let b = run(&m, &c, &lm, 0..12, &shrink, 1.0);
        assert!(b.duration < a.duration);
        assert!(b.mean_occupancy < a.mean_occupancy);
    }

    #[test]
    fn everyone_exits_before_stage_costs_nothing() {
        let (m, c, lm) = setup();
        let batch = vec![sample(3); 4];
        let out = run(&m, &c, &lm, 6..12, &batch, 1.0);
        assert!(out.duration.is_zero());
    }

    #[test]
    fn slowdown_scales_duration() {
        let (m, c, lm) = setup();
        let batch = vec![sample(12); 4];
        let fast = run(&m, &c, &lm, 0..12, &batch, 1.0);
        let slow = run(&m, &c, &lm, 0..12, &batch, 2.0);
        let ratio = slow.duration.as_secs_f64() / fast.duration.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stock_model_has_no_ramp_cost() {
        let stock = zoo::bert_base();
        let c0 = RampController::all_enabled(0, RampStyle::Independent);
        let lm = LatencyModel::new();
        let batch = vec![sample(12); 8];
        let stock_t = run(&stock, &c0, &lm, 0..12, &batch, 1.0);
        let (ee, c, _) = setup();
        let ee_t = run(&ee, &c, &lm, 0..12, &batch, 1.0);
        assert!(ee_t.duration > stock_t.duration, "ramps must cost time");
    }

    #[test]
    fn table_matches_the_per_layer_walk() {
        let models = [
            zoo::deebert(),
            zoo::pabee(),
            zoo::branchy_resnet50(),
            zoo::calm_t5(),
        ];
        let mut rng = StdRng::seed_from_u64(0xE3);
        let mut hist = Vec::new();
        let (configs, per_config) = (1000, 100);
        let mut grew = 0;
        for config in 0..configs {
            let model = &models[config % models.len()];
            let gpu = GpuKind::ALL[config / models.len() % GpuKind::ALL.len()];
            let l = model.num_layers();
            let start = rng.gen_range(0..l);
            let stage = start..rng.gen_range(start + 1..l + 1);
            let mask = (0..model.num_ramps()).map(|_| rng.gen_bool(0.6)).collect();
            let ctrl = RampController::with_mask(mask, RampStyle::Independent);
            let lm = LatencyModel {
                speed_scale: rng.gen_range(0.5..2.0),
                ..LatencyModel::new()
            };
            let deferred = rng.gen_bool(0.5);
            let b0 = rng.gen_range(1..17);
            let mut table = ExecTable::new(model, &ctrl, &lm, gpu, stage.clone(), deferred);
            for _ in 0..per_config {
                let n = rng.gen_range(1..3 * b0 + 1);
                // Depths before, inside and past the stage.
                let batch: Vec<SimSample> =
                    (0..n).map(|_| sample(rng.gen_range(1..l + 1))).collect();
                let slowdown = if rng.gen_bool(0.5) {
                    1.0
                } else {
                    rng.gen_range(0.1..8.0)
                };
                let width = table.width();
                let got = execute(&mut table, &batch, slowdown, &mut hist);
                grew += usize::from(table.width() > width && width > 0);
                let want = execute_batch(
                    model,
                    &ctrl,
                    &lm,
                    &lm.exit,
                    gpu,
                    stage.clone(),
                    &batch,
                    deferred,
                    slowdown,
                );
                assert_eq!(got.duration, want.duration, "config {config}");
                assert_eq!(
                    got.mean_occupancy.to_bits(),
                    want.mean_occupancy.to_bits(),
                    "config {config}"
                );
            }
        }
        assert!(configs * per_config >= 100_000);
        assert!(grew > configs, "tables grew {grew} times");
    }
}
