//! # e3-runtime
//!
//! The serving runtime (§3.3, §4), as a deterministic discrete-event
//! simulation built around one serving **kernel**: one event loop.
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
//! layout and the policies the deployment derives from its
//! configuration. A plan solved without pipelining (model parallelism
//! OFF) runs through the same loop too, under batch serving's phase
//! barrier: one stage of the shared GPU set runs at a time.
//!
//! Module map:
//!
//! * [`sample`] — per-request materialized outcomes (exit layer,
//!   correctness) drawn once at ingest from the synthetic semantics;
//! * [`batch`] — dynamic batcher (open loop) and fusion buffers;
//! * `executor` — per-replica batch execution-time computation, honoring
//!   per-layer surviving batch sizes and ramp costs;
//! * [`kernel`] — the one event loop, which owns the queue, the fault
//!   schedule ([`kernel::faults`]), the shared [`kernel::RunAccumulator`]
//!   and each replica's lifecycle, and its two disciplines: batch
//!   serving, which calls the paper's admission, fusion-batching and
//!   straggler policies directly, and token serving
//!   ([`kernel::run_continuous`]); the [`kernel::RunObserver`] hook
//!   receives typed [`kernel::KernelEvent`]s from both;
//! * [`engine`] — the [`engine::ServingSim`] facade: validates the stage
//!   layout, materializes requests, derives the policies from
//!   [`engine::ServingConfig`], and serves through one
//!   [`engine::ServingSim::run`] (or its two halves,
//!   [`engine::ServingSim::materialize_backlog`] and
//!   [`engine::ServingSim::run_backlog_observed`]);
//! * [`report`] — run metrics: goodput, latency quartiles, utilization,
//!   drops, accuracy, per-window exit observations;
//! * [`strategy`] — strategy construction, including the data-parallel
//!   pseudo-plans for the baselines;
//! * [`autoreg`] — per-token exit journeys for the T5/CALM and Llama
//!   experiments (figs. 10–12), the input of the kernel's token serving
//!   ([`kernel::run_continuous`]): per-token
//!   scheduling where finished or early-exited sequences leave the batch
//!   immediately, queued requests join mid-flight, and per-replica
//!   KV-cache budgets drive admission and preemption.

pub mod autoreg;
pub mod batch;
pub mod engine;
pub(crate) mod executor;
pub mod kernel;
pub mod report;
pub mod sample;
pub mod strategy;

pub use engine::{ServingConfig, ServingSim};
pub use kernel::{
    run_continuous, ContinuousConfig, ContinuousOutcome, ExclusionReason, FaultEvent, FaultPlan,
    JoinPolicy, KernelEvent, KvPlan, OffsetObserver, PreemptMode, RunObserver, SequenceSpec,
    TagObserver, TaggedEventLog, TokenJourney, FUSION_MAX_WAIT,
};
pub use report::{RobustnessStats, RunReport, ShedBreakdown};
pub use strategy::Strategy;
