//! # e3-simcore
//!
//! Deterministic discrete-event simulation substrate used by every other
//! crate in the E3 reproduction.
//!
//! The paper evaluates E3 on a 46-GPU physical cluster; this workspace
//! replaces the physical testbed with a simulator. Everything that makes the
//! simulation trustworthy lives here:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so
//!   there is no floating-point drift in event ordering.
//! * [`EventQueue`] — a stable priority queue of timestamped events with
//!   deterministic FIFO tie-breaking: a binary min-heap of compact
//!   `(at, seq, slot)` keys over an arena of payloads, with O(1) peeks.
//!   A test-only reference queue, one heap of whole events, is kept as
//!   the executable specification; a differential test replays random
//!   operation sequences on both and demands identical pops.
//! * [`SeedSplitter`] — reproducible per-component RNG derivation from one
//!   experiment seed.
//! * [`metrics`] — histograms with exact quantiles, counters, time series,
//!   and busy-time utilization tracking.
//! * [`stats`] / [`linalg`] — the numeric toolbox (summary statistics,
//!   least squares) that the ARIMA profiler builds on.
//!
//! The simulation is single-threaded on purpose: determinism is a feature.
//! Every experiment in the paper-reproduction benches is reproducible
//! bit-for-bit from its seed.

pub mod calendar;
pub mod event;
pub mod linalg;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::EventQueue;
pub use event::ScheduledEvent;
pub use rng::SeedSplitter;
pub use time::{SimDuration, SimTime};
