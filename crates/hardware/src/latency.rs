//! The analytic GPU latency model.
//!
//! A layer's execution time on a device, for a (possibly fractional,
//! because the optimizer reasons about *expected* shrinking batches) batch
//! size `b`, is:
//!
//! ```text
//! t(b) = (launch + work_us * max(1, b / b_sat)) * base_factor
//! ```
//!
//! where `work_us` is the layer's calibrated compute cost at batch 1 on a
//! reference V100, `b_sat` the device's saturation batch, and
//! `base_factor` the device's small-batch latency multiple. The shape —
//! flat until saturation, then linear — is the textbook GPU batching curve
//! and reproduces the paper's fig. 7 anchors (BERT-BASE per-batch latency
//! of ~10 ms up to batch 4 and ~20 ms at batch 8 on a V100).
//!
//! Occupancy (the quantity behind fig. 3's GPU-utilization plot) is
//! `min(1, b / b_sat)`.

use crate::gpu::GpuKind;
use e3_simcore::SimDuration;

/// Computes layer execution times and occupancy on specific GPU kinds.
///
/// The model is stateless; it exists as a struct so experiments can apply
/// a global speed scale (e.g. to mimic a faster serving stack) or a
/// per-device straggler slowdown without threading extra parameters
/// through every call site.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Global multiplier on all compute latencies (1.0 = calibrated).
    pub speed_scale: f64,
    /// Exit-check synchronization / batch-compaction overheads.
    pub exit: ExitOverheads,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            speed_scale: 1.0,
            exit: ExitOverheads::default(),
        }
    }
}

impl LatencyModel {
    /// Creates the calibrated model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execution time of one layer with calibrated work `work_us`
    /// (microseconds at batch 1 on a V100) for batch size `batch` on `gpu`.
    ///
    /// `batch` may be fractional: the optimizer evaluates *expected* batch
    /// sizes from the profiler. A batch of zero costs nothing.
    pub fn layer_time(&self, work_us: f64, batch: f64, gpu: GpuKind) -> SimDuration {
        assert!(work_us >= 0.0 && batch >= 0.0, "negative latency inputs");
        if batch == 0.0 {
            return SimDuration::ZERO;
        }
        let stretch = (batch / gpu.saturation_batch()).max(1.0);
        let mut us = (gpu.launch_overhead_us() + work_us * stretch)
            * gpu.base_latency_factor()
            * self.speed_scale;
        // A fractional batch below one sample is an *expected* batch from
        // the profiler: interpret it as the probability that the layer
        // runs at all (real executions always see integer batches, and a
        // batch of zero is skipped entirely).
        if batch < 1.0 {
            us *= batch;
        }
        SimDuration::from_micros_f64(us)
    }

    /// Total execution time of a sequence of layer works, where the batch
    /// size may differ per layer (the early-exit shrinkage case).
    pub fn layers_time(&self, works_us: &[f64], batches: &[f64], gpu: GpuKind) -> SimDuration {
        assert_eq!(
            works_us.len(),
            batches.len(),
            "layers_time: works and batches must align"
        );
        let mut total = SimDuration::ZERO;
        for (w, b) in works_us.iter().zip(batches) {
            total += self.layer_time(*w, *b, gpu);
        }
        total
    }

    /// Fraction of the device's parallelism a batch of size `batch` uses.
    pub fn occupancy(&self, batch: f64, gpu: GpuKind) -> f64 {
        (batch / gpu.saturation_batch()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibrated BERT-BASE encoder layer work (µs at batch 1 on V100).
    /// See `e3-model`'s zoo for the authoritative value; duplicated here
    /// only to keep this crate's tests self-contained.
    const BERT_LAYER_US: f64 = 800.0;

    /// Steady-state throughput (samples/sec) of repeatedly running
    /// `works_us` at a constant `batch`.
    fn steady_throughput(m: &LatencyModel, works_us: &[f64], batch: f64, gpu: GpuKind) -> f64 {
        let cycle = m.layers_time(works_us, &vec![batch; works_us.len()], gpu);
        batch / cycle.as_secs_f64()
    }

    #[test]
    fn latency_flat_below_saturation() {
        let m = LatencyModel::new();
        let t1 = m.layer_time(BERT_LAYER_US, 1.0, GpuKind::V100);
        let t4 = m.layer_time(BERT_LAYER_US, 4.0, GpuKind::V100);
        assert_eq!(t1, t4, "V100 latency must be flat up to batch 4");
    }

    #[test]
    fn latency_linear_above_saturation() {
        let m = LatencyModel::new();
        let t4 = m
            .layer_time(BERT_LAYER_US, 4.0, GpuKind::V100)
            .as_secs_f64();
        let t8 = m
            .layer_time(BERT_LAYER_US, 8.0, GpuKind::V100)
            .as_secs_f64();
        let t16 = m
            .layer_time(BERT_LAYER_US, 16.0, GpuKind::V100)
            .as_secs_f64();
        assert!(t8 / t4 > 1.9 && t8 / t4 < 2.0, "t8/t4={}", t8 / t4);
        assert!(t16 / t8 > 1.9 && t16 / t8 < 2.1);
    }

    #[test]
    fn bert_base_cycle_time_anchor() {
        // 12 layers of BERT-BASE on a V100: ~10 ms per batch up to b=4,
        // ~20 ms at b=8 (fig. 7 calibration anchors, DESIGN.md).
        let m = LatencyModel::new();
        let works = vec![BERT_LAYER_US; 12];
        let t4 = m
            .layers_time(&works, &[4.0; 12], GpuKind::V100)
            .as_millis_f64();
        let t8 = m
            .layers_time(&works, &[8.0; 12], GpuKind::V100)
            .as_millis_f64();
        assert!((9.0..11.0).contains(&t4), "t4={t4}ms");
        assert!((18.0..21.0).contains(&t8), "t8={t8}ms");
    }

    #[test]
    fn zero_batch_costs_nothing() {
        let m = LatencyModel::new();
        assert_eq!(m.layer_time(1000.0, 0.0, GpuKind::K80), SimDuration::ZERO);
    }

    #[test]
    fn occupancy_saturates() {
        let m = LatencyModel::new();
        assert_eq!(m.occupancy(2.0, GpuKind::V100), 0.5);
        assert_eq!(m.occupancy(8.0, GpuKind::V100), 1.0);
        assert_eq!(m.occupancy(1.0, GpuKind::K80), 1.0);
    }

    #[test]
    fn k80_small_batch_competitive_per_dollar() {
        // The heterogeneity result (§5.2): at batch 1, aggregate
        // throughput-per-dollar of K80s beats V100s because V100s are
        // underutilized.
        let m = LatencyModel::new();
        let works = vec![BERT_LAYER_US; 12];
        let v100 = steady_throughput(&m, &works, 1.0, GpuKind::V100) / GpuKind::V100.cost_per_sec();
        let k80 = steady_throughput(&m, &works, 1.0, GpuKind::K80) / GpuKind::K80.cost_per_sec();
        assert!(
            k80 > v100,
            "K80 must win per-dollar at batch 1: k80={k80:.0} v100={v100:.0}"
        );
        // ... but lose badly at batch 8.
        let v100_8 =
            steady_throughput(&m, &works, 8.0, GpuKind::V100) / GpuKind::V100.cost_per_sec();
        let k80_8 = steady_throughput(&m, &works, 8.0, GpuKind::K80) / GpuKind::K80.cost_per_sec();
        assert!(v100_8 > k80_8);
    }

    #[test]
    fn speed_scale_scales_latency() {
        let slow = LatencyModel {
            speed_scale: 2.0,
            ..LatencyModel::new()
        };
        let fast = LatencyModel::new();
        let ts = slow.layer_time(1000.0, 4.0, GpuKind::V100).as_secs_f64();
        let tf = fast.layer_time(1000.0, 4.0, GpuKind::V100).as_secs_f64();
        assert!((ts / tf - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_gpus_are_faster() {
        let m = LatencyModel::new();
        let works = vec![BERT_LAYER_US; 12];
        let order: Vec<f64> = GpuKind::ALL
            .iter()
            .map(|g| steady_throughput(&m, &works, 32.0, *g))
            .collect();
        for w in order.windows(2) {
            assert!(w[0] > w[1], "throughput at b=32 must decrease: {order:?}");
        }
    }

    #[test]
    fn layers_time_handles_shrinking_batches() {
        let m = LatencyModel::new();
        let works = vec![BERT_LAYER_US; 4];
        let shrink = m.layers_time(&works, &[8.0, 6.0, 4.0, 2.0], GpuKind::V100);
        let full = m.layers_time(&works, &[8.0; 4], GpuKind::V100);
        let min = m.layers_time(&works, &[2.0; 4], GpuKind::V100);
        assert!(shrink < full);
        assert!(shrink > min);
    }
}

/// Overheads of *acting* on exit decisions during batched execution.
///
/// Checking a ramp on a live batch is not just the ramp's FLOPs: the
/// decision requires a device-to-host synchronization (the classic
/// `.item()` stall of early-exit implementations) and, when samples
/// leave, the surviving rows must be gathered into a dense batch. Naive
/// EE serving (DeeBERT-style) pays this at *every* ramp; E3's split
/// execution defers it to split boundaries, where one gather re-forms
/// the batch anyway. This asymmetry — not the ramp FLOPs — is the main
/// reason batched naive EE underperforms stock models at large batch
/// sizes (paper fig. 7) while E3 does not.
///
/// Calibrated so DeeBERT's fig. 7 goodput shape reproduces: ~0.3 ms sync
/// per checked ramp plus ~60 µs per live sample of gather cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExitOverheads {
    /// Fixed device-host synchronization cost per acted-on check, µs.
    pub sync_us: f64,
    /// Per-live-sample gather/compaction cost, µs.
    pub per_sample_us: f64,
}

impl Default for ExitOverheads {
    fn default() -> Self {
        ExitOverheads {
            sync_us: 300.0,
            per_sample_us: 120.0,
        }
    }
}

impl ExitOverheads {
    /// No overheads (for ablations).
    pub fn none() -> Self {
        ExitOverheads {
            sync_us: 0.0,
            per_sample_us: 0.0,
        }
    }

    /// Cost of one exit-check + batch-reform on a live batch of `batch`.
    pub fn reform_time(&self, batch: f64) -> SimDuration {
        if batch <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros_f64(self.sync_us + self.per_sample_us * batch)
    }
}

#[cfg(test)]
mod exit_overhead_tests {
    use super::*;

    #[test]
    fn reform_scales_with_batch() {
        let ov = ExitOverheads::default();
        let t1 = ov.reform_time(1.0);
        let t8 = ov.reform_time(8.0);
        assert!(t8 > t1);
        assert_eq!(ov.reform_time(0.0), SimDuration::ZERO);
        assert_eq!(ExitOverheads::none().reform_time(8.0), SimDuration::ZERO);
    }

    #[test]
    fn sync_dominates_small_batches() {
        let ov = ExitOverheads::default();
        let t = ov.reform_time(1.0).as_micros_f64();
        assert!((t - 420.0).abs() < 1e-9);
    }
}
