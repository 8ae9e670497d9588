//! # e3
//!
//! The E3 system: practical, per-input compute adaptation for DNN
//! inference serving (SOSP 2024).
//!
//! Early-exit DNNs let easy inputs leave a model from intermediate
//! layers, saving compute — but exits shrink batches mid-model, starving
//! GPUs and destroying the throughput that batching provides. E3 fixes
//! this by **splitting** the model into contiguous blocks at the points
//! where batches shrink, **replicating** the early blocks, and
//! **re-fusing** survivor batches at block boundaries, so every layer
//! executes at a constant, GPU-saturating batch size.
//!
//! This crate is the top of the workspace: it wires the online batch
//! profiler (`e3-profiler`), the DP split optimizer (`e3-optimizer`), and
//! the serving runtime (`e3-runtime`) into the closed control loop of the
//! paper's fig. 4, and offers a one-shot experiment harness,
//! [`harness::Experiment`].
//!
//! ## Quickstart
//!
//! ```
//! use e3::harness::{Experiment, ModelFamily, SystemKind};
//! use e3_hardware::ClusterSpec;
//! use e3_runtime::kernel::NullObserver;
//! use e3_workload::DatasetModel;
//!
//! // Serve an easy-skewed NLP workload on 16 V100s at batch 8.
//! let exp = Experiment::new(
//!     ModelFamily::nlp(),
//!     ClusterSpec::paper_homogeneous_v100(),
//!     DatasetModel::sst2(),
//! )
//! .with_seed(42);
//! let e3 = exp.run(SystemKind::E3, 8, &mut NullObserver);
//! let bert = exp.run(SystemKind::Vanilla, 8, &mut NullObserver);
//! assert!(e3.goodput() > bert.goodput());
//! ```

pub mod config;
pub mod deploy;
pub mod harness;
pub mod policy;
pub mod reconfig;
pub mod report;
pub mod system;

pub use config::E3Config;
pub use deploy::DeploymentBuilder;
pub use policy::OnlineThresholdTuner;
pub use reconfig::{ReconfigDecision, ReconfigReport};
pub use report::{E3Report, WindowReport};
pub use system::E3System;
