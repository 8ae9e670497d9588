//! Stage cost evaluation: the `T(i → j, c, m, B)` term of the paper's DP,
//! and the one price of a stage that the planner and the runtime share.
//!
//! A *stage* is one split running on one GPU kind. Every stage layer
//! costs what [`price_layer`] says: the layer's latency-model time at its
//! batch, plus its exit ramp's when the ramp controller pays for that
//! ramp. Two walks read it:
//!
//! * the planner's `stage_cost` (and the split search's stage tables)
//!   prices each layer at its *expected* batch: the batch enters at the
//!   split boundary refused to the full input batch `b0`, and inside
//!   the stage exits shrink it to `b0 · survival[k] / survival[start]`,
//!   a fraction;
//! * an [`ExecTable`] tables each layer at every *integer* live count,
//!   which the runtime's batch kernel and token serving read for the
//!   batches that actually run.
//!
//! The *effective* per-input-batch time of a stage divides by the replica
//! count and multiplies by the stage's survival fraction: a stage that
//! only 50% of samples reach needs to run only half a stage-batch per
//! input batch, and `m` replicas share that work.

use e3_hardware::{GpuKind, LatencyModel};
use e3_model::{BatchProfile, EeModel, RampController};
use e3_simcore::SimDuration;
use std::ops::Range;

/// Layer `k` of `model` at batch `b` on `gpu`: the layer's time, and the
/// time of the exit ramp after it when `ctrl` pays for that ramp. The one
/// per-layer price every stage walk reads.
#[inline]
pub fn price_layer(
    model: &EeModel,
    ctrl: &RampController,
    lm: &LatencyModel,
    gpu: GpuKind,
    k: usize,
    b: f64,
) -> (SimDuration, Option<SimDuration>) {
    let spec = model.layers()[k];
    let layer = lm.layer_time(spec.work_us + spec.fixed_us, b, gpu);
    let ramp = model
        .ramp_after(k)
        .filter(|&ri| ctrl.pays_cost_at(ri))
        .map(|ri| {
            let rs = model.ramps()[ri];
            lm.layer_time(rs.work_us + rs.fixed_us, b, gpu)
        });
    (layer, ramp)
}

/// Cost summary of one stage (split × GPU kind × replica count × batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Wall time for one replica to process one stage-batch.
    pub batch_time: SimDuration,
    /// Per-input-batch effective time: `survival_at_start · batch_time / replicas`.
    pub effective_time: SimDuration,
    /// Expected batch surviving at the stage's end (per stage-batch of `b0`).
    pub batch_out: f64,
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
/// are integer nanoseconds, so a range priced mid-walk equals the same
/// range priced alone.
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
        let (layer, ramp) = price_layer(self.model, self.ctrl, self.lm, self.gpu, k, batch);
        self.time += layer;
        if let Some(ramp) = ramp {
            self.ramps = true;
            self.time += ramp;
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
                batch_out: 0.0,
            };
        }
        let batch_out = self.b0 * self.profile.survival_at(self.end) / s_in;
        let mut batch_time = self.time;
        if self.ramps {
            // E3's split execution acts on all exit decisions with one
            // gather at the stage boundary (see e3-hardware's ExitOverheads).
            batch_time += self.lm.exit.reform_time(batch_out);
        }
        StageCost {
            batch_time,
            effective_time: batch_time.mul_f64(s_in / replicas as f64),
            batch_out,
        }
    }

    /// Whether one replica of the range so far fits the GPU's memory at
    /// the walk's batch (see `stage_fits`).
    pub(crate) fn fits(&self) -> bool {
        self.footprint.fits(self.b0, self.gpu)
    }
}

/// The price of one stage on one GPU kind by integer live count: what
/// the runtime charges every batch that actually runs. Entry `(b, i)` is
/// stage layer `i` at live count `b` as [`price_layer`] prices it, plus,
/// for naive EE, the sync and compaction that act on the paid ramp's
/// exits at once; deferred exits pay that reform once, at the stage
/// boundary. A walk prices a batch from the histogram of its exit depths
/// with one read per layer; durations are integer nanoseconds, so it
/// equals the layer-by-layer sum in any grouping.
#[derive(Debug, Clone)]
pub struct ExecTable<'a> {
    model: &'a EeModel,
    ctrl: &'a RampController,
    lm: &'a LatencyModel,
    gpu: GpuKind,
    stage: Range<usize>,
    deferred_exits: bool,
    /// Whether a paid ramp follows a stage layer (known once filled).
    paid_ramp: bool,
    /// The largest live count tabled.
    width: usize,
    /// `times[(b - 1) * len + i]`: stage layer `i` at live count `b`, apart
    /// from occupancy so a duration-only walk reads 8-byte entries.
    times: Vec<SimDuration>,
    /// The entry's layer and paid-ramp seconds, each times the occupancy
    /// at `b` (`0.0` without a ramp: the sum stays bit for bit the same).
    occupancy: Vec<[f64; 2]>,
    /// The stage-boundary reform of deferred exits, by live count.
    reform: Vec<SimDuration>,
}

impl<'a> ExecTable<'a> {
    /// An empty table of `stage` (half-open layers) of `model` on `gpu`.
    pub fn new(
        model: &'a EeModel,
        ctrl: &'a RampController,
        lm: &'a LatencyModel,
        gpu: GpuKind,
        stage: Range<usize>,
        deferred_exits: bool,
    ) -> Self {
        ExecTable {
            model,
            ctrl,
            lm,
            gpu,
            stage,
            deferred_exits,
            paid_ramp: false,
            width: 0,
            times: Vec::new(),
            occupancy: Vec::new(),
            reform: vec![SimDuration::ZERO],
        }
    }

    /// The GPU kind the table prices.
    #[inline]
    pub fn gpu(&self) -> GpuKind {
        self.gpu
    }

    /// The stage's layers (half-open).
    #[inline]
    pub fn stage(&self) -> Range<usize> {
        self.stage.clone()
    }

    /// The largest live count tabled so far.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Tables live counts up to `width` (a no-op for counts already in).
    #[inline]
    pub fn fill(&mut self, width: usize) {
        if width > self.width {
            self.fill_to(width);
        }
    }

    fn fill_to(&mut self, width: usize) {
        let (lm, gpu) = (self.lm, self.gpu);
        let entries = (width - self.width) * self.stage.len();
        self.times.reserve_exact(entries);
        self.occupancy.reserve_exact(entries);
        for live in self.width + 1..=width {
            let b = live as f64;
            let occupancy = lm.occupancy(b, gpu);
            for k in self.stage.clone() {
                let (layer, ramp) = price_layer(self.model, self.ctrl, lm, gpu, k, b);
                let mut time = layer;
                let mut occ = [layer.as_secs_f64() * occupancy, 0.0];
                if let Some(ramp) = ramp {
                    self.paid_ramp = true;
                    time += ramp;
                    occ[1] = ramp.as_secs_f64() * occupancy;
                    if !self.deferred_exits {
                        // Naive EE: act on the decision immediately —
                        // device-host sync plus compaction of survivors.
                        time += lm.exit.reform_time(b);
                    }
                }
                self.times.push(time);
                self.occupancy.push(occ);
            }
            self.reform.push(lm.exit.reform_time(b));
        }
        self.width = width;
    }

    /// Walks the stage for `n` members, `depths[d]` of which leave after
    /// its first `d` layers (`d = 0`: never enter; missing entries count
    /// zero). Calls `visit` with each entry read; returns the summed
    /// duration and the live count at the stage's last layer.
    #[inline]
    fn walk_with(
        &self,
        depths: &[usize],
        n: usize,
        mut visit: impl FnMut(usize),
    ) -> (SimDuration, usize) {
        debug_assert!(n <= self.width, "batch past the table");
        let len = self.stage.len();
        let (mut live, mut total) = (n, SimDuration::ZERO);
        for i in 0..len {
            live -= depths.get(i).copied().unwrap_or(0);
            if live == 0 {
                break; // everyone left; the rest of the stage never runs
            }
            let at = (live - 1) * len + i;
            total += self.times[at];
            visit(at);
        }
        (total, live)
    }

    /// The stage's layers for `n` members exiting at `depths` (see
    /// `walk_with`; an empty `depths` runs every layer at `n`), without
    /// the boundary reform.
    #[inline]
    pub fn walk(&self, depths: &[usize], n: usize) -> SimDuration {
        self.walk_with(depths, n, |_| ()).0
    }

    /// One batch through the stage: the walk of `n` members exiting at
    /// `depths`, plus, under deferred exits, the boundary reform of the
    /// members that ran the stage's last layer. Returns the busy time and
    /// its time-weighted mean occupancy.
    #[inline]
    pub fn price_batch(&self, depths: &[usize], n: usize) -> (SimDuration, f64) {
        let mut occ_weighted = 0.0f64;
        let (mut total, live) = self.walk_with(depths, n, |at| {
            let [layer, ramp] = self.occupancy[at];
            occ_weighted += layer;
            occ_weighted += ramp;
        });
        if self.deferred_exits && self.paid_ramp {
            // E3: one gather at the split boundary handles all exits.
            total += self.reform[live];
        }
        let mean_occupancy = if total.is_zero() {
            0.0
        } else {
            occ_weighted / total.as_secs_f64()
        };
        (total, mean_occupancy)
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
                batch_out: 0.0,
            };
        }
        let mut batch_time = SimDuration::ZERO;
        let mut ramps_in_stage = false;
        for k in layers.clone() {
            let batch = b0 * profile.survival_at(k) / s_in;
            if batch <= 0.0 {
                continue;
            }
            let spec = model.layers()[k];
            batch_time += lm.layer_time(spec.work_us + spec.fixed_us, batch, gpu);
            if let Some(ri) = model.ramp_after(k) {
                if ctrl.pays_cost_at(ri) {
                    ramps_in_stage = true;
                    let rs = model.ramps()[ri];
                    batch_time += lm.layer_time(rs.work_us + rs.fixed_us, batch, gpu);
                }
            }
        }
        if ramps_in_stage {
            let live_at_end = b0 * profile.survival_at(layers.end) / s_in;
            batch_time += lm.exit.reform_time(live_at_end);
        }
        let effective_time = batch_time.mul_f64(s_in / replicas as f64);
        StageCost {
            batch_time,
            effective_time,
            batch_out: b0 * profile.survival_at(layers.end) / s_in,
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
        assert_eq!(sc.effective_time, sc.batch_time);
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
        assert!(sc.effective_time.is_zero());
    }

    #[test]
    fn boundary_transfer_positive_for_ethernet() {
        let (m, _, _) = setup();
        let tm = TransferModel::default();
        let t = boundary_transfer(&m, 6, 16.0, &tm);
        assert!(t > SimDuration::from_millis(1));
    }

    /// The planner prices what the executor runs. Survivals in eighths
    /// and `b0` equal to the members entering the stage make every
    /// expected live count `b0 · s_k / s_in` an exact integer, so
    /// [`stage_cost`]'s batch time must equal the [`ExecTable`] walk of
    /// a batch with exactly those exit depths, under deferred exits, to
    /// the nanosecond: zoo models, GPU kinds, random ramp masks, stages
    /// and profiles, empty ones included. One term is priced apart by
    /// design: the planner's boundary gather re-forms the members that
    /// cross the boundary, the executor's the members that ran the
    /// stage's last layer, exits at its ramp included.
    #[test]
    fn planner_prices_what_the_executor_runs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let models = [
            zoo::deebert(),
            zoo::pabee(),
            zoo::branchy_resnet50(),
            zoo::calm_t5(),
            zoo::llama31_8b_ee(),
        ];
        let lm = LatencyModel::new();
        let mut rng = StdRng::seed_from_u64(0xE3);
        let mut depths = Vec::new();
        for config in 0..2000 {
            let model = &models[config % models.len()];
            let gpu = GpuKind::ALL[config / models.len() % GpuKind::ALL.len()];
            let l = model.num_layers();
            let mask = (0..model.num_ramps()).map(|_| rng.gen_bool(0.6)).collect();
            let ctrl = RampController::with_mask(mask, RampStyle::Independent);
            // `entering[k]` of 8 members enter layer k.
            let mut entering = vec![8usize; l + 1];
            for k in 1..=l {
                let before = entering[k - 1];
                let left = if before > 0 && rng.gen_bool(0.3) {
                    rng.gen_range(1..before + 1)
                } else {
                    0
                };
                entering[k] = before - left;
            }
            let profile = BatchProfile::new(entering.iter().map(|&n| n as f64 / 8.0).collect());
            let a = rng.gen_range(0..l);
            let b = rng.gen_range(a + 1..l + 1);
            let live = entering[a];
            let planned = stage_cost(
                model,
                &ctrl,
                &profile,
                a..b,
                live.max(1) as f64,
                gpu,
                1,
                &lm,
            );

            // Members leaving after the stage's first d layers.
            depths.clear();
            depths.extend((0..b - a).map(|d| match d {
                0 => 0,
                _ => entering[a + d - 1] - entering[a + d],
            }));
            let mut table = ExecTable::new(model, &ctrl, &lm, gpu, a..b, true);
            table.fill(live);
            let (ran, _) = table.price_batch(&depths, live);

            let paid = (a..b).any(|k| price_layer(model, &ctrl, &lm, gpu, k, 1.0).1.is_some());
            let (mut planner, mut executor) = (planned.batch_time, ran);
            if paid && live > 0 {
                planner += lm.exit.reform_time(entering[b - 1] as f64);
                executor += lm.exit.reform_time(entering[b] as f64);
            }
            assert_eq!(
                planner,
                executor,
                "config {config}: {} {a}..{b} {gpu:?}",
                model.name()
            );
        }
    }
}
