//! # e3-optimizer
//!
//! E3's dynamic-programming split optimizer (§3.2, fig. 6).
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
//! The homogeneous formulations are solved by exact DP over
//! `(prefix length, GPUs used)`. The heterogeneous formulation is solved
//! exactly too, but by bounded split-boundary enumeration plus an optimal
//! bottleneck allocation of per-kind GPU counts (search over the finite
//! set of candidate bottleneck values) — an equivalent-optimum
//! restructuring of fig. 6's recursion that avoids materializing the
//! 4-dimensional GPU-count state space (see `DESIGN.md`). The search
//! reads per-kind stage tables and skips assignments an exact lower
//! bound rules out (see [`hetero`]).
//!
//! One public function answers each planning question:
//!
//! * the best plan for a cluster: [`plan_for_cluster`], or
//!   [`plan_for_cluster_cached`] to warm-start across re-plans;
//! * the fewest GPUs, or the cheapest pool, reaching a goodput target
//!   (§5.3): [`min_gpus_for_goodput`] and [`min_cost_for_goodput`];
//! * whether a plan meets its SLO, cost and goodput bounds:
//!   [`plan_feasible`];
//! * the design-choice ablations: [`run_ablations`].
//!
//! [`optimize_homogeneous_cached`] and
//! [`optimize_heterogeneous_with_stats`] expose the two solvers directly,
//! for timing them and for the search's pruning counts. The choice
//! between them lives in one place, in [`auto`]: a single GPU kind runs
//! the DP, several run the heterogeneous search. The cluster planner and
//! [`ValueOracle`] both plan through it.

pub mod ablation;
pub mod auto;
pub mod autoreg_split;
pub mod cache;
pub mod config;
pub mod dp;
pub mod edge;
pub mod hetero;
pub mod marginal;
pub mod plan;
pub mod stage;

pub use ablation::{run_ablations, AblationResult};
pub use auto::{min_gpus_for_goodput, plan_feasible, plan_for_cluster, plan_for_cluster_cached};
pub use cache::{CacheStats, PlanCache};
pub use config::OptimizerConfig;
pub use dp::optimize_homogeneous_cached;
pub use edge::{EdgeSplitPlanner, EdgeSplitTables, LinkEstimate, SplitCandidate};
pub use hetero::{min_cost_for_goodput, optimize_heterogeneous_with_stats, SearchStats};
pub use marginal::{SubsetValue, ValueOracle};
pub use plan::{Split, SplitPlan};
pub use stage::StageCost;
