//! # e3-hardware
//!
//! Analytic hardware performance model replacing the paper's physical
//! 46-GPU/26-machine testbed.
//!
//! E3's results hinge on two hardware phenomena, both captured here:
//!
//! 1. **Batching efficiency.** GPU kernel latency grows *sub-linearly* with
//!    batch size until the device saturates, then linearly. Below the
//!    saturation batch, cores idle — a batch of 1 costs nearly as much as a
//!    batch of 4 on a V100. This is exactly why early exits (which shrink
//!    batches mid-model) waste resources, and why E3's constant-batch
//!    splits win. See [`latency::LatencyModel`].
//! 2. **Communication overheads.** Model-parallel splits ship activations
//!    between GPUs over PCIe (intra-machine) or 10 GbE (inter-machine).
//!    See [`interconnect`].
//!
//! GPU speed, saturation, and dollar-cost parameters are calibrated to the
//! paper's reported numbers (see `DESIGN.md`, "Calibration anchors"): e.g.
//! the homogeneous 16×V100 cluster and the heterogeneous
//! 6×V100 + 8×P100 + 15×K80 cluster both cost $0.013/s, matching §5.2.

pub mod cluster;
pub mod domains;
pub mod gpu;
pub mod interconnect;
pub mod latency;
pub mod memory;

pub use cluster::{ClusterSpec, GpuInstance, MachineSpec};
pub use domains::{DomainTopology, FaultDomain, FaultDomainKind};
pub use gpu::GpuKind;
pub use interconnect::{LinkKind, TransferModel};
pub use latency::{ExitOverheads, LatencyModel};
pub use memory::MemoryFootprint;
