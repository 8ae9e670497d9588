//! # e3-optimizer
//!
//! E3's split optimizer (§3.2, fig. 6).
//!
//! Given an EE-DNN, a forecast batch-shrinkage profile, and a pool of
//! (possibly heterogeneous) GPUs, the optimizer decides:
//!
//! * **where to cut** the model into contiguous splits;
//! * **how many replicas** of each split to run, and on which GPU kind;
//! * **what batch size** each split runs with (constant across the
//!   pipeline — that is the whole point of E3);
//!
//! so that goodput is maximized subject to SLO, throughput-baseline, and
//! cost constraints.
//!
//! Three formulations from the paper are implemented:
//!
//! 1. **Serial** (eq. 1 / §3.2): splits execute sequentially on the same
//!    resources; the objective is the *sum* of per-stage times. This is
//!    the "model parallelism OFF" ablation of fig. 26.
//! 2. **Pipelined model parallel** (§3.2.1–§3.2.2): each split owns its
//!    replicas; communication overlaps compute; the objective is the
//!    *max* of per-stage effective times (the pipeline bottleneck).
//! 3. **Heterogeneity-aware** (§3.2.3, fig. 6): each split additionally
//!    chooses a GPU configuration, under the paper's constraint that all
//!    replicas of one split use the same GPU kind.
//!
//! One search solves every pipelined formulation, homogeneous or not:
//! bounded split-boundary enumeration plus an optimal bottleneck
//! allocation of per-kind GPU counts — an equivalent-optimum
//! restructuring of fig. 6's recursion that avoids materializing the
//! 4-dimensional GPU-count state space (see `DESIGN.md`). It reads
//! per-kind stage tables, excludes stages that overflow their GPU's
//! memory, and skips assignments an exact lower bound rules out (see
//! [`hetero`]). The serial formulation sums stage times over the same
//! boundary sets.
//!
//! One public function answers each planning question:
//!
//! * the best plan for a cluster: [`plan_for_cluster`], or
//!   [`optimize_heterogeneous_with_stats`] for a per-kind GPU pool and
//!   the search's pruning counts;
//! * the fewest GPUs, or the cheapest pool, reaching a goodput target
//!   (§5.3): [`min_gpus_for_goodput`] and [`min_cost_for_goodput`];
//! * whether a plan meets its SLO, cost and goodput bounds:
//!   [`plan_feasible`];
//! * the design-choice ablations: [`run_ablations`].
//!
//! The choice of formulation lives in one place, in [`auto`]: the
//! cluster planner and [`ValueOracle`] both plan through it.

pub mod ablation;
pub mod auto;
pub mod autoreg_split;
pub mod config;
pub mod hetero;
pub mod marginal;
pub mod plan;
pub mod stage;

pub use ablation::{run_ablations, AblationResult};
pub use auto::{
    min_gpus_for_goodput, optimize_heterogeneous_with_stats, plan_feasible, plan_for_cluster,
};
pub use config::OptimizerConfig;
pub use hetero::{min_cost_for_goodput, SearchStats};
pub use marginal::{SubsetValue, ValueOracle};
pub use plan::{Split, SplitPlan};
pub use stage::StageCost;
