//! Correctness tooling for the E3 stack: a typed invariant checker over
//! the kernel event stream, and a scenario matrix that stress-composes
//! every grown subsystem under it.
//!
//! The serving kernels narrate everything they do as a typed
//! [`e3_runtime::kernel::KernelEvent`] stream. That stream is a
//! correctness surface: conservation laws (every arrived sample is
//! dropped or completed, every generated token index is sequential), KV
//! admission-control bounds, preemption/rebuild pairing, guarded-epoch
//! protocol order, and fault/recovery bookkeeping are all *visible* in
//! the stream, independent of the aggregate counters the reports carry.
//!
//! - [`InvariantChecker`] is a composable
//!   [`e3_runtime::kernel::RunObserver`] that validates those laws
//!   online — tee it next to an [`e3_runtime::kernel::EventLog`] (via
//!   [`e3_runtime::kernel::TeeObserver`]) or replay a recorded log —
//!   and reports structured [`Violation`]s instead of panicking.
//! - [`ScenarioMatrix`] composes {arrival pattern} × {hardness drift} ×
//!   {fault plan} × {tenancy skew} × {guarded on/off} × {exit policy}
//!   into deterministic seeded runs through the multi-tenant system and
//!   the continuous-batching kernel, checks every cell's streams, and
//!   shrinks any failure to a minimal repro cell.

pub mod fuzz;
pub mod invariant;
pub mod matrix;

pub use fuzz::{decode_fault_plan, RECORD_BYTES};
pub use invariant::{CheckerConfig, InvariantChecker, InvariantClass, StreamScope, Violation};
pub use matrix::{
    ArrivalPattern, CellOutcome, ExitPolicyMode, FaultSeverity, HardnessDrift, MatrixOutcome,
    ScenarioCell, ScenarioMatrix, TenancySkew,
};
