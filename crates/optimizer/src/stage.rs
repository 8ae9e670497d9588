//! Stage cost evaluation: the `T(i → j, c, m, B)` term of the paper's DP.
//!
//! A *stage* is one split running on one GPU kind. Its batch enters at
//! the split boundary refused to the full input batch `b0`; inside the
//! stage, exits shrink the expected batch according to the profile, and
//! each surviving layer (plus every enabled ramp) is charged the
//! latency-model cost at its expected batch size.
//!
//! The *effective* per-input-batch time of a stage divides by the replica
//! count and multiplies by the stage's survival fraction: a stage that
//! only 50% of samples reach needs to run only half a stage-batch per
//! input batch, and `m` replicas share that work.

use e3_hardware::{GpuKind, LatencyModel};
use e3_model::{BatchProfile, EeModel, RampController};
use e3_simcore::SimDuration;
use std::ops::Range;

/// Cost summary of one stage (split × GPU kind × replica count × batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Wall time for one replica to process one stage-batch.
    pub batch_time: SimDuration,
    /// Per-input-batch effective time: `survival_at_start · batch_time / replicas`.
    pub effective_time: SimDuration,
    /// Mean GPU occupancy while executing (for utilization reports).
    pub mean_occupancy: f64,
    /// Expected batch surviving at the stage's end (per stage-batch of `b0`).
    pub batch_out: f64,
    /// Survival fraction at the stage's start.
    pub survival_in: f64,
}

/// Computes the cost of running `layers` (half-open) of `model` at input
/// batch `b0` on `gpu`, honoring the profile's shrinkage and the ramp
/// controller's enablement.
///
/// `b0` is the *constant* batch E3 maintains: the batch entering the
/// stage is refused to `b0` regardless of upstream exits; within the
/// stage the expected batch is `b0 · survival[k] / survival[start]`.
#[allow(clippy::too_many_arguments)] // the DP inputs of fig. 6
pub(crate) fn stage_cost(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    layers: Range<usize>,
    b0: f64,
    gpu: GpuKind,
    replicas: usize,
    lm: &LatencyModel,
) -> StageCost {
    assert!(!layers.is_empty(), "stage must contain at least one layer");
    assert!(layers.end <= model.num_layers(), "stage out of range");
    let mut walk = StageWalk::new(model, ctrl, profile, layers.start, b0, gpu, lm);
    for _ in layers {
        walk.extend();
    }
    walk.cost(replicas)
}

/// Whether one replica of the stage `layers` fits `gpu`'s memory at
/// batch `b0`: estimated weights (from the calibrated compute costs) plus
/// double-buffered activations, per the §3.1 resource safety check. The
/// split search asks the same question of its `StageWalk`; tests check
/// finished plans with this.
#[cfg(test)]
pub(crate) fn stage_fits(model: &EeModel, layers: Range<usize>, b0: f64, gpu: GpuKind) -> bool {
    let mut footprint = Footprint::default();
    for k in layers {
        footprint.add(model, k);
    }
    footprint.fits(b0, gpu)
}

/// The weights and widest activation of a layer range, one layer at a
/// time.
#[derive(Default)]
struct Footprint {
    params: f64,
    widest: f64,
}

impl Footprint {
    fn add(&mut self, model: &EeModel, k: usize) {
        let spec = model.layers()[k];
        self.params += e3_hardware::memory::params_from_work_us(spec.work_us);
        self.widest = self.widest.max(spec.output_bytes as f64);
    }

    fn fits(&self, b0: f64, gpu: GpuKind) -> bool {
        e3_hardware::memory::MemoryFootprint::new(self.params, self.widest).fits(b0, gpu)
    }
}

/// The stages that start at one layer on one GPU kind, grown a layer at a
/// time: the one pricing path behind [`stage_cost`], `stage_fits` and
/// the split search's stage tables, which price every end layer of a
/// start layer from one walk. After `extend` has taken layers
/// `start..end`, `cost` and `fits` answer for that range. Batch times
/// are integer nanoseconds and the other sums run in layer order, so a
/// range priced mid-walk equals the same range priced alone.
pub(crate) struct StageWalk<'a> {
    model: &'a EeModel,
    ctrl: &'a RampController,
    profile: &'a BatchProfile,
    lm: &'a LatencyModel,
    gpu: GpuKind,
    b0: f64,
    /// The next layer `extend` takes.
    end: usize,
    /// Survival fraction at the start layer.
    s_in: f64,
    /// Layer and ramp time so far, without the boundary gather.
    time: SimDuration,
    /// That time weighted by occupancy, in seconds.
    occ_weighted: f64,
    /// Whether a paid ramp sits in the range.
    ramps: bool,
    footprint: Footprint,
}

impl<'a> StageWalk<'a> {
    /// An empty range starting at layer `start`.
    #[allow(clippy::too_many_arguments)] // the DP inputs of fig. 6
    pub(crate) fn new(
        model: &'a EeModel,
        ctrl: &'a RampController,
        profile: &'a BatchProfile,
        start: usize,
        b0: f64,
        gpu: GpuKind,
        lm: &'a LatencyModel,
    ) -> Self {
        assert!(b0 > 0.0, "batch must be positive");
        StageWalk {
            model,
            ctrl,
            profile,
            lm,
            gpu,
            b0,
            end: start,
            s_in: profile.survival_at(start),
            time: SimDuration::ZERO,
            occ_weighted: 0.0,
            ramps: false,
            footprint: Footprint::default(),
        }
    }

    /// Takes the next layer, and the ramp after it if the controller pays
    /// for that ramp, at the layer's expected batch.
    pub(crate) fn extend(&mut self) {
        let k = self.end;
        self.end += 1;
        self.footprint.add(self.model, k);
        // Nothing reaches a stage whose start nobody survives to.
        if self.s_in <= 0.0 {
            return;
        }
        let batch = self.b0 * self.profile.survival_at(k) / self.s_in;
        if batch <= 0.0 {
            return;
        }
        let (lm, gpu) = (self.lm, self.gpu);
        let spec = self.model.layers()[k];
        let t = lm.layer_time(spec.work_us + spec.fixed_us, batch, gpu);
        self.occ_weighted += t.as_secs_f64() * lm.occupancy(batch, gpu);
        self.time += t;
        if let Some(ri) = self.model.ramp_after(k) {
            if self.ctrl.pays_cost_at(ri) {
                self.ramps = true;
                let rs = self.model.ramps()[ri];
                let rt = lm.layer_time(rs.work_us + rs.fixed_us, batch, gpu);
                self.occ_weighted += rt.as_secs_f64() * lm.occupancy(batch, gpu);
                self.time += rt;
            }
        }
    }

    /// The cost of the range so far on `replicas` replicas. A stage
    /// nobody reaches is free (the DP will still place a replica, but it
    /// will never run).
    pub(crate) fn cost(&self, replicas: usize) -> StageCost {
        assert!(replicas >= 1, "stage needs at least one replica");
        let s_in = self.s_in;
        if s_in <= 0.0 {
            return StageCost {
                batch_time: SimDuration::ZERO,
                effective_time: SimDuration::ZERO,
                mean_occupancy: 0.0,
                batch_out: 0.0,
                survival_in: 0.0,
            };
        }
        let batch_out = self.b0 * self.profile.survival_at(self.end) / s_in;
        let mut batch_time = self.time;
        if self.ramps {
            // E3's split execution acts on all exit decisions with one
            // gather at the stage boundary (see e3-hardware's ExitOverheads).
            batch_time += self.lm.exit.reform_time(batch_out);
        }
        let mean_occupancy = if batch_time.is_zero() {
            0.0
        } else {
            self.occ_weighted / batch_time.as_secs_f64()
        };
        StageCost {
            batch_time,
            effective_time: batch_time.mul_f64(s_in / replicas as f64),
            mean_occupancy,
            batch_out,
            survival_in: s_in,
        }
    }

    /// Whether one replica of the range so far fits the GPU's memory at
    /// the walk's batch (see `stage_fits`).
    pub(crate) fn fits(&self) -> bool {
        self.footprint.fits(self.b0, self.gpu)
    }
}

/// The activation-transfer time charged at the boundary entering
/// `next_start` (the paper's `Tx(s, s+1)`): one refused batch of `b0`
/// samples of the boundary's activation size.
pub(crate) fn boundary_transfer(
    model: &EeModel,
    next_start: usize,
    b0: f64,
    tm: &e3_hardware::TransferModel,
) -> SimDuration {
    assert!(next_start >= 1, "no boundary before the first layer");
    tm.batch_transfer_time(model.boundary_bytes(next_start - 1), b0)
}

/// The transfer time of the *surviving* samples crossing the boundary at
/// `next_start`: samples that exited upstream never cross, so the wire
/// carries only `b0 · survival[next_start]` samples. This is the payload
/// that matters for the pipeline's steady state; the full-batch
/// [`boundary_transfer`] matters for a single request's latency path.
pub(crate) fn boundary_transfer_surviving(
    model: &EeModel,
    profile: &BatchProfile,
    next_start: usize,
    b0: f64,
    tm: &e3_hardware::TransferModel,
) -> SimDuration {
    assert!(next_start >= 1, "no boundary before the first layer");
    tm.batch_transfer_time(
        model.boundary_bytes(next_start - 1),
        b0 * profile.survival_at(next_start),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use e3_hardware::TransferModel;
    use e3_model::zoo;
    use e3_model::RampStyle;

    /// [`stage_cost`] as it priced one range before the row walk, kept
    /// verbatim as the reference the walk must equal bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reference_stage_cost(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        layers: Range<usize>,
        b0: f64,
        gpu: GpuKind,
        replicas: usize,
        lm: &LatencyModel,
    ) -> StageCost {
        let s_in = profile.survival_at(layers.start);
        if s_in <= 0.0 {
            return StageCost {
                batch_time: SimDuration::ZERO,
                effective_time: SimDuration::ZERO,
                mean_occupancy: 0.0,
                batch_out: 0.0,
                survival_in: 0.0,
            };
        }
        let mut batch_time = SimDuration::ZERO;
        let mut occ_weighted = 0.0f64;
        let mut ramps_in_stage = false;
        for k in layers.clone() {
            let batch = b0 * profile.survival_at(k) / s_in;
            if batch <= 0.0 {
                continue;
            }
            let spec = model.layers()[k];
            let t = lm.layer_time(spec.work_us + spec.fixed_us, batch, gpu);
            occ_weighted += t.as_secs_f64() * lm.occupancy(batch, gpu);
            batch_time += t;
            if let Some(ri) = model.ramp_after(k) {
                if ctrl.pays_cost_at(ri) {
                    ramps_in_stage = true;
                    let rs = model.ramps()[ri];
                    let rt = lm.layer_time(rs.work_us + rs.fixed_us, batch, gpu);
                    occ_weighted += rt.as_secs_f64() * lm.occupancy(batch, gpu);
                    batch_time += rt;
                }
            }
        }
        if ramps_in_stage {
            let live_at_end = b0 * profile.survival_at(layers.end) / s_in;
            batch_time += lm.exit.reform_time(live_at_end);
        }
        let mean_occupancy = if batch_time.is_zero() {
            0.0
        } else {
            occ_weighted / batch_time.as_secs_f64()
        };
        let effective_time = batch_time.mul_f64(s_in / replicas as f64);
        StageCost {
            batch_time,
            effective_time,
            mean_occupancy,
            batch_out: b0 * profile.survival_at(layers.end) / s_in,
            survival_in: s_in,
        }
    }

    /// [`stage_fits`] as it checked one range before the row walk, kept
    /// verbatim as the reference.
    pub(crate) fn reference_stage_fits(
        model: &EeModel,
        layers: Range<usize>,
        b0: f64,
        gpu: GpuKind,
    ) -> bool {
        use e3_hardware::memory::{params_from_work_us, MemoryFootprint};
        let params: f64 = layers
            .clone()
            .map(|k| params_from_work_us(model.layers()[k].work_us))
            .sum();
        let widest = layers
            .map(|k| model.layers()[k].output_bytes as f64)
            .fold(0.0f64, f64::max);
        MemoryFootprint::new(params, widest).fits(b0, gpu)
    }

    fn setup() -> (EeModel, RampController, LatencyModel) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new())
    }

    #[test]
    fn full_model_no_exit_stage_matches_anchor() {
        // Whole DeeBERT with a flat profile at b=8 on V100: layer time
        // ~19.7ms plus ~11 ramps of overhead.
        let (m, c, lm) = setup();
        let p = BatchProfile::no_exits(12);
        let sc = stage_cost(&m, &c, &p, 0..12, 8.0, GpuKind::V100, 1, &lm);
        let ms = sc.batch_time.as_millis_f64();
        assert!((20.0..26.0).contains(&ms), "t={ms}");
        assert_eq!(sc.batch_out, 8.0);
        assert_eq!(sc.survival_in, 1.0);
    }

    #[test]
    fn shrinking_profile_cheapens_late_layers() {
        let (m, c, lm) = setup();
        // Half the batch gone by layer 6.
        let mut surv = vec![1.0; 7];
        surv.extend(vec![0.5; 6]);
        let p = BatchProfile::new(surv);
        let flat = stage_cost(
            &m,
            &c,
            &BatchProfile::no_exits(12),
            0..12,
            8.0,
            GpuKind::V100,
            1,
            &lm,
        );
        let shrunk = stage_cost(&m, &c, &p, 0..12, 8.0, GpuKind::V100, 1, &lm);
        assert!(shrunk.batch_time < flat.batch_time);
        assert_eq!(shrunk.batch_out, 4.0);
    }

    #[test]
    fn effective_time_scales_with_replicas_and_survival() {
        let (m, c, lm) = setup();
        // Survival drops to 0.5 entering layer 6 (indices 0..=5 are 1.0).
        let mut surv = vec![1.0; 6];
        surv.extend(vec![0.5; 7]);
        let p = BatchProfile::new(surv);
        // Second half of the model: survival in = 0.5.
        let one = stage_cost(&m, &c, &p, 6..12, 8.0, GpuKind::V100, 1, &lm);
        let two = stage_cost(&m, &c, &p, 6..12, 8.0, GpuKind::V100, 2, &lm);
        assert_eq!(one.survival_in, 0.5);
        assert!(
            (one.effective_time.as_secs_f64() - 0.5 * one.batch_time.as_secs_f64()).abs() < 1e-9
        );
        assert!(
            (two.effective_time.as_secs_f64() - 0.5 * one.effective_time.as_secs_f64()).abs()
                < 1e-9
        );
    }

    #[test]
    fn disabled_ramps_reduce_stage_time() {
        let (m, mut c, lm) = setup();
        let p = BatchProfile::no_exits(12);
        let full = stage_cost(&m, &c, &p, 0..12, 4.0, GpuKind::V100, 1, &lm);
        c.keep_only(&[5]);
        let trimmed = stage_cost(&m, &c, &p, 0..12, 4.0, GpuKind::V100, 1, &lm);
        assert!(trimmed.batch_time < full.batch_time);
    }

    #[test]
    fn dead_stage_is_free() {
        let (m, c, lm) = setup();
        // Nobody survives past layer 5.
        let mut surv = vec![1.0; 6];
        surv.extend(vec![0.0; 7]);
        let p = BatchProfile::new(surv);
        let sc = stage_cost(&m, &c, &p, 6..12, 8.0, GpuKind::V100, 1, &lm);
        assert!(sc.batch_time.is_zero());
        assert_eq!(sc.survival_in, 0.0);
    }

    #[test]
    fn boundary_transfer_positive_for_ethernet() {
        let (m, _, _) = setup();
        let tm = TransferModel::default();
        let t = boundary_transfer(&m, 6, 16.0, &tm);
        assert!(t > SimDuration::from_millis(1));
    }

    #[test]
    fn occupancy_reflects_batch() {
        let (m, c, lm) = setup();
        let p = BatchProfile::no_exits(12);
        let small = stage_cost(&m, &c, &p, 0..12, 1.0, GpuKind::V100, 1, &lm);
        let big = stage_cost(&m, &c, &p, 0..12, 8.0, GpuKind::V100, 1, &lm);
        assert!(small.mean_occupancy < 0.3);
        // Boundary-reform time dilutes occupancy slightly below 1.0.
        assert!(big.mean_occupancy > 0.9, "occ={}", big.mean_occupancy);
    }
}
