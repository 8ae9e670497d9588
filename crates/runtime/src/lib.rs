//! # e3-runtime
//!
//! The serving runtime (§3.3, §4), as a deterministic discrete-event
//! simulation built around one policy-pluggable serving **kernel**.
//!
//! One [`engine::ServingSim`] executes a request stream against an
//! execution strategy:
//!
//! * **Vanilla** — the stock model, data-parallel over all GPUs, static
//!   batches (the paper's BERT-BASE / ResNet50 / T5 baselines);
//! * **NaiveEe** — the EE model with batching but *without* E3: batches
//!   shrink as samples exit, late layers run underutilized, and every
//!   ramp is checked (the DeeBERT / B-ResNet50 / PABEE-with-batching
//!   baselines);
//! * **Plan** — an E3 [`e3_optimizer::SplitPlan`]: split replicas with
//!   private queues, batch *fusion* at stage boundaries restoring the
//!   constant batch size, pipelined transfers, SLO-slack drops, and
//!   straggler detection.
//!
//! All three run through the same event loop; what differs is the stage
//! layout and the policies plugged into the kernel's seams.
//!
//! Module map:
//!
//! * [`sample`] — per-request materialized outcomes (exit layer,
//!   correctness) drawn once at ingest from the synthetic semantics;
//! * [`batch`] — dynamic batcher (open loop) and fusion buffers;
//! * [`executor`] — per-replica batch execution-time computation, honoring
//!   per-layer surviving batch sizes and ramp costs;
//! * [`kernel`] — the unified event loop plus its seams:
//!   [`kernel::AdmissionPolicy`] (admit/drop at dispatch),
//!   [`kernel::BatchingPolicy`] (dynamic batching and fusion buffers),
//!   [`kernel::StragglerPolicy`] (exclusion), the
//!   [`kernel::RunObserver`] hook receiving typed [`kernel::KernelEvent`]s,
//!   the shared [`kernel::RunAccumulator`], and the one fault model both
//!   runtime loops read ([`kernel::faults`]);
//! * [`engine`] — the [`engine::ServingSim`] facade: validates the stage
//!   layout, materializes requests, assembles the policies from
//!   [`engine::ServingConfig`], and drives the kernel through one
//!   [`engine::ServingSim::run`] (or its two halves,
//!   [`engine::ServingSim::materialize_backlog`] and
//!   [`engine::ServingSim::run_backlog_observed`]);
//! * [`serial`] — the "model parallelism OFF" barrier mode, on the same
//!   clock and accumulator;
//! * [`report`] — run metrics: goodput, latency quartiles, utilization,
//!   drops, accuracy, per-window exit observations;
//! * [`strategy`] — strategy construction, including the data-parallel
//!   pseudo-plans for the baselines;
//! * [`autoreg`] — per-token exit journeys for the T5/CALM and Llama
//!   experiments (figs. 10–12), the input of the kernel's
//!   continuous-batching driver ([`kernel::run_continuous`]): per-token
//!   scheduling where finished or early-exited sequences leave the batch
//!   immediately, queued requests join mid-flight, and per-replica
//!   KV-cache budgets drive admission and preemption.

pub mod autoreg;
pub mod batch;
pub mod engine;
pub mod executor;
pub mod kernel;
pub mod report;
pub mod sample;
pub mod serial;
pub mod strategy;

pub use engine::{ServingConfig, ServingSim, TransferRetryConfig};
pub use kernel::{
    run_continuous, AdmissionPolicy, BatchingPolicy, ContinuousConfig, ContinuousOutcome,
    ExclusionReason, FaultEvent, FaultPlan, JoinPolicy, KernelEvent, KvPlan, OffsetObserver,
    PreemptMode, RunObserver, SequenceSpec, StragglerPolicy, TagObserver, TaggedEventLog,
    TokenJourney, FUSION_MAX_WAIT,
};
pub use report::{RobustnessStats, RunReport, ShedBreakdown};
pub use strategy::Strategy;
