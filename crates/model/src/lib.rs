//! # e3-model
//!
//! Early-exit DNN (EE-DNN) abstraction and the synthetic inference
//! semantics that stand in for real PyTorch models.
//!
//! ## What E3 needs from a model
//!
//! The paper is explicit (§3) that E3 treats the EE-DNN as a black box: it
//! only needs (a) the layer structure with per-layer execution costs,
//! (b) the ramp positions with their checking costs, and (c) the ability to
//! observe the batch size at every ramp. Optionally (§3.4) it may disable
//! ramps through the `exit-wrapper` API. This crate provides exactly that
//! interface:
//!
//! * [`EeModel`] — a layer/ramp graph with calibrated per-layer costs
//!   (microseconds at batch 1 on a reference V100) and activation sizes.
//! * [`ExitPolicy`] — the exit-decision families from the literature the
//!   paper evaluates: entropy (DeeBERT), softmax confidence (FastBERT,
//!   CALM), patience counters (PABEE), ensemble voting, and learned ramps.
//! * [`inference`] — the synthetic semantics: each request carries a latent
//!   *hardness* in `[0,1]`; confidence/entropy trajectories over depth are
//!   derived from it, which yields per-sample exit layers, per-ramp batch
//!   shrinkage, and an accuracy model calibrated to the paper's fig. 2
//!   (≈43% average compute saving at <2% accuracy loss for entropy 0.4).
//! * [`RampController`] — the exit-wrapper (§3.4): disable ramps, with the
//!   independent/dependent ramp-style distinction the paper draws.
//! * [`BatchProfile`] — the batch-shrinkage profile exchanged between the
//!   profiler, the optimizer, and the runtime.
//! * [`zoo`] — calibrated model definitions for every model in the paper's
//!   evaluation and their EE variants.

pub mod builder;
pub mod inference;
pub mod model;
pub mod policy;
pub mod profile;
pub mod wrapper;
pub mod zoo;

pub use builder::EeModelBuilder;
pub use inference::{ExitSampler, InferenceOutcome, InferenceSim};
pub use model::{AutoRegSpec, EeModel, LayerSpec, ModelError, RampSpec, Task};
pub use policy::{ExitPolicy, SampleExitState};
pub use profile::BatchProfile;
pub use wrapper::{RampController, RampStyle};
