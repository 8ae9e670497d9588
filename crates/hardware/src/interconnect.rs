//! Interconnect and activation-transfer model.
//!
//! E3's model-parallel splits ship activation tensors from the GPU hosting
//! one split to the GPU hosting the next. The paper's testbed connects
//! GPUs on the same machine over shared PCIe and machines over 10 Gbps
//! Ethernet; E3's DP formulation charges each split boundary a transfer
//! term `Tx(s, s+1)` and pipelining hides it when possible (§3.2.2).

use e3_simcore::SimDuration;

/// Kind of link between two GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Same device — no transfer needed.
    Local,
    /// Shared PCIe within one machine.
    Pcie,
    /// 10 Gbps Ethernet between machines (the paper's testbed fabric).
    Ethernet10G,
    /// NVLink, mentioned by the paper as a would-only-help upgrade.
    NvLink,
}

impl LinkKind {
    /// One-way base latency of the link.
    pub(crate) fn base_latency(self) -> SimDuration {
        match self {
            LinkKind::Local => SimDuration::ZERO,
            LinkKind::NvLink => SimDuration::from_micros(2),
            LinkKind::Pcie => SimDuration::from_micros(5),
            LinkKind::Ethernet10G => SimDuration::from_micros(50),
        }
    }

    /// Usable bandwidth in bytes per second.
    pub(crate) fn bandwidth_bytes_per_sec(self) -> f64 {
        match self {
            LinkKind::Local => f64::INFINITY,
            LinkKind::NvLink => 25.0e9,
            LinkKind::Pcie => 12.0e9,
            // 10 Gbps line rate with ~10% framing/TCP overhead.
            LinkKind::Ethernet10G => 1.125e9,
        }
    }

    /// Time to move `bytes` across this link.
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        if matches!(self, LinkKind::Local) {
            return SimDuration::ZERO;
        }
        let serialize = bytes as f64 / self.bandwidth_bytes_per_sec();
        self.base_latency() + SimDuration::from_secs_f64(serialize)
    }
}

/// Computes activation-transfer times between split boundaries.
///
/// The model charges the boundary the cost of moving the *surviving* batch
/// (samples that already exited carry nothing downstream).
#[derive(Debug, Clone, Copy)]
pub struct TransferModel {
    /// Link used between consecutive splits. The optimizer conservatively
    /// assumes the inter-machine fabric unless placement proves otherwise.
    pub link: LinkKind,
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel {
            link: LinkKind::Ethernet10G,
        }
    }
}

impl TransferModel {
    /// Creates a transfer model over the given link kind.
    pub fn new(link: LinkKind) -> Self {
        TransferModel { link }
    }

    /// Time to ship `batch` samples of `bytes_per_sample` activation each.
    /// `batch` may be fractional (expected values from the profiler).
    pub fn batch_transfer_time(&self, bytes_per_sample: u64, batch: f64) -> SimDuration {
        assert!(batch >= 0.0, "negative batch");
        if batch == 0.0 {
            return SimDuration::ZERO;
        }
        let bytes = (bytes_per_sample as f64 * batch).ceil() as u64;
        self.link.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_transfer_is_free() {
        assert_eq!(LinkKind::Local.transfer_time(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn ethernet_3mb_batch_is_milliseconds() {
        // BERT-BASE activations: 8 samples x 128 tokens x 768 hidden x 4 B
        // ≈ 3 MiB; at ~1.1 GB/s that is ~2.8 ms — the magnitude E3's
        // pipelining must hide.
        let bytes = 8 * 128 * 768 * 4u64;
        let t = LinkKind::Ethernet10G.transfer_time(bytes);
        let ms = t.as_millis_f64();
        assert!((2.0..4.0).contains(&ms), "t={ms}ms");
    }

    #[test]
    fn link_speed_ordering() {
        let bytes = 1_000_000;
        let nv = LinkKind::NvLink.transfer_time(bytes);
        let pcie = LinkKind::Pcie.transfer_time(bytes);
        let eth = LinkKind::Ethernet10G.transfer_time(bytes);
        assert!(nv < pcie && pcie < eth);
    }

    #[test]
    fn batch_transfer_scales_with_batch() {
        let tm = TransferModel::default();
        let t4 = tm.batch_transfer_time(400_000, 4.0);
        let t8 = tm.batch_transfer_time(400_000, 8.0);
        assert!(t8 > t4);
        assert_eq!(tm.batch_transfer_time(400_000, 0.0), SimDuration::ZERO);
    }

    #[test]
    fn fractional_batch_supported() {
        let tm = TransferModel::new(LinkKind::Pcie);
        let t = tm.batch_transfer_time(1_000_000, 2.5);
        assert!(t > tm.batch_transfer_time(1_000_000, 2.0));
        assert!(t < tm.batch_transfer_time(1_000_000, 3.0));
    }
}
