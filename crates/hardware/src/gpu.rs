//! GPU device kinds and their calibrated performance/cost parameters.

use std::fmt;

/// The GPU models used in the paper's evaluation (§5, "Experimental Setup"),
/// plus an escape hatch for custom devices.
///
/// Performance parameters follow the analytic latency model of
/// [`crate::latency::LatencyModel`]:
///
/// * `base_latency_factor` — latency multiple relative to a V100 for a
///   batch that fits under the saturation point. Small batches are
///   launch/memory-latency bound, so slow GPUs are *less* slow at batch 1
///   than their peak-FLOPS ratio suggests. This is what makes cheap GPUs
///   attractive for the small-batch splits of an EE-DNN (paper §5.2).
/// * `saturation_batch` — the batch size at which the device's cores are
///   fully occupied; below it, latency is flat in batch size.
/// * `cost_per_sec` — dollar cost. Solved from the paper's constraint that
///   16×V100 and 6×V100+8×P100+15×K80 both cost $0.013/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuKind {
    /// NVIDIA A6000 — the most capable device in the testbed (used for the
    /// T5/CALM LLM experiments, §5.1.3).
    A6000,
    /// NVIDIA V100 — the workhorse of the homogeneous experiments.
    V100,
    /// NVIDIA P100 — mid-tier device in the heterogeneous cluster.
    P100,
    /// NVIDIA K80 — the cheapest, slowest device.
    K80,
}

impl GpuKind {
    /// All kinds, ordered from most to least capable.
    pub const ALL: [GpuKind; 4] = [GpuKind::A6000, GpuKind::V100, GpuKind::P100, GpuKind::K80];

    /// Latency multiple relative to a V100 for sub-saturation batches.
    pub fn base_latency_factor(self) -> f64 {
        match self {
            GpuKind::A6000 => 0.85,
            GpuKind::V100 => 1.0,
            GpuKind::P100 => 1.25,
            GpuKind::K80 => 1.60,
        }
    }

    /// Batch size at which the device saturates; latency is flat below
    /// this and grows linearly above it.
    pub(crate) fn saturation_batch(self) -> f64 {
        match self {
            GpuKind::A6000 => 6.0,
            GpuKind::V100 => 4.0,
            GpuKind::P100 => 2.0,
            GpuKind::K80 => 1.0,
        }
    }

    /// Dollar cost per second of one device.
    ///
    /// Calibrated so the paper's two equal-cost clusters (§5.2) both come
    /// to $0.013/s: 16 × V100 = 6 × V100 + 8 × P100 + 15 × K80.
    pub fn cost_per_sec(self) -> f64 {
        match self {
            GpuKind::A6000 => 1.100e-3,
            GpuKind::V100 => 8.125e-4,
            GpuKind::P100 => 6.500e-4,
            GpuKind::K80 => 1.950e-4,
        }
    }

    /// Device memory in GiB; bounds the maximum batch a split can hold.
    pub(crate) fn memory_gib(self) -> f64 {
        match self {
            GpuKind::A6000 => 48.0,
            GpuKind::V100 => 16.0,
            GpuKind::P100 => 12.0,
            GpuKind::K80 => 12.0,
        }
    }

    /// Per-kernel launch overhead in microseconds. Roughly constant across
    /// devices; slightly higher on older parts.
    pub(crate) fn launch_overhead_us(self) -> f64 {
        match self {
            GpuKind::A6000 => 8.0,
            GpuKind::V100 => 10.0,
            GpuKind::P100 => 12.0,
            GpuKind::K80 => 15.0,
        }
    }
}

impl fmt::Display for GpuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GpuKind::A6000 => "A6000",
            GpuKind::V100 => "V100",
            GpuKind::P100 => "P100",
            GpuKind::K80 => "K80",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_calibration_matches_paper_clusters() {
        // §5.2: 16 V100 and (6 V100 + 8 P100 + 15 K80) both cost $0.013/s.
        let homo = 16.0 * GpuKind::V100.cost_per_sec();
        let hetero = 6.0 * GpuKind::V100.cost_per_sec()
            + 8.0 * GpuKind::P100.cost_per_sec()
            + 15.0 * GpuKind::K80.cost_per_sec();
        assert!((homo - 0.013).abs() < 1e-9, "homo={homo}");
        assert!((hetero - 0.013).abs() < 1e-9, "hetero={hetero}");
    }

    /// Peak throughput at saturation, in V100 batch-1 units.
    fn peak(g: GpuKind) -> f64 {
        g.saturation_batch() / g.base_latency_factor()
    }

    #[test]
    fn capability_ordering() {
        // Peak throughput ordering must match reality: A6000 > V100 > P100 > K80.
        let peaks: Vec<f64> = GpuKind::ALL.iter().map(|&g| peak(g)).collect();
        for w in peaks.windows(2) {
            assert!(
                w[0] > w[1],
                "peak throughput must strictly decrease: {peaks:?}"
            );
        }
    }

    #[test]
    fn small_batch_gap_is_compressed() {
        // At batch 1 the K80 is less than 2x slower than a V100 even though
        // its peak throughput is ~6x lower — small batches are latency
        // bound. This property drives the paper's heterogeneity wins.
        let k80 = GpuKind::K80;
        assert!(k80.base_latency_factor() < 2.0);
        assert!(peak(k80) < 0.2 * peak(GpuKind::V100));
    }

    #[test]
    fn cheaper_gpus_cost_less() {
        let costs: Vec<f64> = GpuKind::ALL.iter().map(|g| g.cost_per_sec()).collect();
        for w in costs.windows(2) {
            assert!(w[0] > w[1], "cost must decrease with capability: {costs:?}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(GpuKind::V100.to_string(), "V100");
        assert_eq!(GpuKind::K80.to_string(), "K80");
    }
}
