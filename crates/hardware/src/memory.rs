//! Device-memory feasibility.
//!
//! A split's replicas must hold the split's weights plus double-buffered
//! activations for the batches in flight. The paper's optimizer includes
//! "safety checks to ensure that the predicted values never exceed the
//! maximum possible batch sizes that can be supported by the resources"
//! (§3.1); this module supplies that bound for the simulator's devices.
//!
//! The KV cache of an autoregressive deployment is budgeted by the
//! caller: a continuous-batching run admits against the token budget its
//! deployment is given, not one derived here.

use crate::gpu::GpuKind;

/// Bytes per parameter (fp16 weights).
const BYTES_PER_PARAM: f64 = 2.0;
/// Activation double-buffering factor (in-flight + next batch).
const ACTIVATION_BUFFERS: f64 = 2.0;
/// Fraction of device memory usable for the model (the rest goes to the
/// framework, workspace, and fragmentation).
const USABLE_FRACTION: f64 = 0.9;

/// Memory footprint summary for one split on one device kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryFootprint {
    /// Weight bytes resident for the split.
    pub weights: f64,
    /// Activation bytes per sample at the split's widest layer.
    pub activation_per_sample: f64,
}

impl MemoryFootprint {
    /// Builds a footprint from per-layer parameter counts and the widest
    /// activation size (bytes per sample) in the split.
    pub fn new(total_params: f64, widest_activation_bytes: f64) -> Self {
        MemoryFootprint {
            weights: total_params * BYTES_PER_PARAM,
            activation_per_sample: widest_activation_bytes,
        }
    }

    /// Total bytes needed to run batch `b`.
    pub fn bytes_for_batch(&self, b: f64) -> f64 {
        self.weights + ACTIVATION_BUFFERS * self.activation_per_sample * b.max(0.0)
    }

    /// The largest batch that fits on `gpu`, or 0 if even the weights do
    /// not fit.
    pub fn max_batch(&self, gpu: GpuKind) -> usize {
        let budget = gpu.memory_gib() * 1024.0 * 1024.0 * 1024.0 * USABLE_FRACTION;
        if self.weights >= budget {
            return 0;
        }
        let per_sample = ACTIVATION_BUFFERS * self.activation_per_sample;
        if per_sample <= 0.0 {
            return usize::MAX;
        }
        ((budget - self.weights) / per_sample).floor() as usize
    }

    /// True if batch `b` fits on `gpu`.
    pub fn fits(&self, b: f64, gpu: GpuKind) -> bool {
        let budget = gpu.memory_gib() * 1024.0 * 1024.0 * 1024.0 * USABLE_FRACTION;
        self.bytes_for_batch(b) <= budget
    }
}

/// Rough parameter count from calibrated compute cost: transformer-class
/// layers do ~2 FLOPs per parameter per token, and the workspace's work
/// unit is µs at batch 1 on a V100 (~14 TFLOP/s effective), over a
/// 128-token sequence. The constant is deliberately conservative.
pub fn params_from_work_us(work_us: f64) -> f64 {
    // work_us µs -> FLOPs at 14e12 FLOP/s, over 128 tokens, 2 FLOPs/param.
    work_us * 1e-6 * 14e12 / (128.0 * 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_base_fits_everywhere() {
        // ~110M params, 393 KiB activations/sample.
        let fp = MemoryFootprint::new(110e6, 393_216.0);
        for gpu in GpuKind::ALL {
            assert!(fp.max_batch(gpu) >= 64, "{gpu}: {}", fp.max_batch(gpu));
        }
    }

    #[test]
    fn llama_8b_limits_batch_on_small_gpus() {
        // 8B params at fp16 = 16 GB of weights: does not fit a 12 GiB
        // P100/K80 at all; fits an A6000 with room for large batches.
        let fp = MemoryFootprint::new(8e9, 2048.0 * 4096.0 * 2.0);
        assert_eq!(fp.max_batch(GpuKind::P100), 0);
        assert_eq!(fp.max_batch(GpuKind::K80), 0);
        assert!(fp.max_batch(GpuKind::A6000) >= 32);
        // A split of 1/4 of the model fits a V100.
        let quarter = MemoryFootprint::new(2e9, 2048.0 * 4096.0 * 2.0);
        assert!(quarter.max_batch(GpuKind::V100) >= 8);
    }

    #[test]
    fn fits_is_consistent_with_max_batch() {
        let fp = MemoryFootprint::new(1e9, 1e6);
        for gpu in GpuKind::ALL {
            let mb = fp.max_batch(gpu);
            if mb > 0 && mb < 1_000_000 {
                assert!(fp.fits(mb as f64, gpu));
                assert!(!fp.fits(mb as f64 + 1.0, gpu));
            }
        }
    }

    #[test]
    fn params_estimate_magnitude() {
        // A BERT-BASE layer (~767 µs) should come out near 9M params
        // (BERT-BASE has ~85M across 12 encoder layers).
        let p = params_from_work_us(767.0);
        assert!((2e6..5e7).contains(&p), "p={p}");
    }
}
