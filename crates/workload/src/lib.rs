//! # e3-workload
//!
//! Workload synthesis: who arrives when, and how hard each input is.
//!
//! The paper drives E3 with (a) closed-loop clients over GLUE / ImageNet /
//! WMT / SAMSum / BoolQ inputs, (b) uniform open-loop arrivals matching
//! their production service's ~9,000 req/s (scaled; modelled here as
//! Poisson arrivals), and (c) the bursty
//! ArchiveTeam Twitter trace scaled to 1,000 req/s (§5.7). None of those
//! datasets' raw requests matter to E3 — only two per-request properties
//! do: the **arrival time** and the **hardness** (which determines exit
//! depth), plus the **output length** for autoregressive tasks. This crate
//! synthesizes request streams with exactly those properties:
//!
//! * [`DatasetModel`] — per-dataset hardness mixtures (Beta components for
//!   easy and hard sub-populations) with the paper's easy:hard knob
//!   (80/20, 50/50, 20/80 in fig. 16), accuracy ceilings, and output-length
//!   distributions.
//! * [`ArrivalProcess`] — closed-loop, Poisson, and bursty-trace
//!   arrivals.
//! * [`trace`] — a Markov-modulated bursty generator reproducing the
//!   Twitter trace's salient statistics (extreme bursts, long idle gaps).
//! * [`WorkloadGenerator`] — combines the two into a deterministic request
//!   stream, with time-phased dataset switching for the adaptability study.

pub mod arrival;
pub mod dataset;
pub mod generator;
pub mod request;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use dataset::{DatasetModel, LengthDist};
pub use generator::{Phase, WorkloadGenerator};
pub use request::Request;
pub use trace::BurstyTraceConfig;
