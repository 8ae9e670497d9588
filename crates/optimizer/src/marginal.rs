//! Incremental marginal-value queries over cluster subsets.
//!
//! The tenancy layer's water-filling allocator repeatedly asks "what
//! would tenant *t*'s best plan be worth on its current GPU grant plus
//! one more device of kind *k*?" — the same DP optimization, over nearly
//! the same subsets, many times per allocation round. [`ValueOracle`]
//! wraps the split optimizer as a value function over per-kind GPU
//! counts and memoizes every subset it has ever solved, so the greedy
//! outer loop pays for each distinct subset exactly once. Each solve
//! goes through the crate's one solver dispatch, and every subset reads
//! one set of per-kind stage tables, kept for the oracle's lifetime.

use std::collections::BTreeMap;
use std::collections::HashMap;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::auto::{plan_feasible, solve};
use crate::config::OptimizerConfig;
use crate::hetero::StageTables;

/// The optimizer's verdict on one GPU-count subset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsetValue {
    /// Best-plan goodput on the subset (input samples/s).
    pub goodput: f64,
    /// Whether that plan satisfies the configured SLO budget.
    pub feasible: bool,
    /// Dollar cost per second of the GPUs the plan occupies.
    pub cost_per_sec: f64,
}

/// A memoizing value function: per-kind GPU counts → best-plan value for
/// one (model, profile, batch, config) context.
///
/// The cache key is the count vector itself, so queries are *incremental*
/// in the water-filling sense: evaluating `counts + 1×k` after `counts`
/// costs one new solve, and re-evaluating either is a map lookup.
pub struct ValueOracle<'a> {
    model: &'a EeModel,
    ctrl: &'a RampController,
    profile: &'a BatchProfile,
    b0: f64,
    tm: &'a TransferModel,
    lm: &'a LatencyModel,
    cfg: &'a OptimizerConfig,
    cache: HashMap<Vec<(GpuKind, usize)>, SubsetValue>,
    /// Stage costs for the split search: they depend on the planning
    /// context, not on the subset, so each kind's table is filled once,
    /// by the first subset that holds the kind.
    tables: StageTables,
}

impl<'a> ValueOracle<'a> {
    /// Creates an oracle for one tenant's planning context.
    #[allow(clippy::too_many_arguments)] // the planning inputs of fig. 6
    pub fn new(
        model: &'a EeModel,
        ctrl: &'a RampController,
        profile: &'a BatchProfile,
        b0: f64,
        tm: &'a TransferModel,
        lm: &'a LatencyModel,
        cfg: &'a OptimizerConfig,
    ) -> Self {
        ValueOracle {
            model,
            ctrl,
            profile,
            b0,
            tm,
            lm,
            cfg,
            cache: HashMap::new(),
            tables: StageTables::new(model, profile, b0, tm, cfg.enforce_memory),
        }
    }

    /// Best-plan value on the subset described by `counts`. Zero-count
    /// entries are ignored; an all-zero subset is worth nothing.
    pub fn value(&mut self, counts: &BTreeMap<GpuKind, usize>) -> SubsetValue {
        let key: Vec<(GpuKind, usize)> = counts
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&k, &n)| (k, n))
            .collect();
        if key.is_empty() {
            return SubsetValue {
                goodput: 0.0,
                feasible: false,
                cost_per_sec: 0.0,
            };
        }
        if let Some(v) = self.cache.get(&key) {
            return *v;
        }
        let (plan, _) = solve(
            self.model,
            self.ctrl,
            self.profile,
            &key,
            self.b0,
            self.tm,
            self.lm,
            self.cfg,
            &mut self.tables,
        );
        let v = SubsetValue {
            goodput: plan.goodput,
            feasible: plan_feasible(&plan, self.cfg),
            cost_per_sec: plan.cost_per_sec(),
        };
        self.cache.insert(key, v);
        v
    }

    /// The goodput gained by adding one GPU of `kind` to `counts`.
    /// Never negative: a device the optimizer cannot use is worth zero,
    /// not a penalty.
    pub fn marginal_gain(&mut self, counts: &BTreeMap<GpuKind, usize>, kind: GpuKind) -> f64 {
        let base = self.value(counts).goodput;
        let mut grown = counts.clone();
        *grown.entry(kind).or_insert(0) += 1;
        (self.value(&grown).goodput - base).max(0.0)
    }

    /// Distinct subsets solved so far (cache size) — exposed so callers
    /// and tests can verify the incremental-query claim.
    pub fn subsets_solved(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::plan_for_cluster;
    use e3_hardware::ClusterSpec;
    use e3_model::{zoo, RampStyle};

    fn profile() -> BatchProfile {
        let mut surv = vec![1.0];
        for k in 1..=12 {
            surv.push((1.0 - 0.07 * k as f64).max(0.1));
        }
        BatchProfile::new(surv)
    }

    #[test]
    fn value_matches_direct_optimization_and_caches() {
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = profile();
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        let mut oracle = ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);

        let counts = BTreeMap::from([(GpuKind::V100, 6)]);
        let six = ClusterSpec::homogeneous(GpuKind::V100, 6, 4);
        let direct = plan_for_cluster(&m, &ctrl, &p, &six, 8.0, &tm, &lm, &cfg);
        let v = oracle.value(&counts);
        assert_eq!(v.goodput, direct.goodput);
        assert_eq!(v.cost_per_sec, direct.cost_per_sec());
        assert_eq!(oracle.subsets_solved(), 1);
        // Re-query hits the cache; marginal query adds exactly one solve.
        let _ = oracle.value(&counts);
        assert_eq!(oracle.subsets_solved(), 1);
        let gain = oracle.marginal_gain(&counts, GpuKind::V100);
        assert_eq!(oracle.subsets_solved(), 2);
        assert!(gain > 0.0, "an extra V100 must help: {gain}");

        // A mixed-kind subset takes the heterogeneous side of the same
        // dispatch as the cluster planner, so both report the same plan.
        let cluster = ClusterSpec::paper_heterogeneous();
        let direct = plan_for_cluster(&m, &ctrl, &p, &cluster, 8.0, &tm, &lm, &cfg);
        let v = oracle.value(&cluster.gpu_counts());
        assert_eq!(v.goodput.to_bits(), direct.goodput.to_bits());
        assert_eq!(v.cost_per_sec.to_bits(), direct.cost_per_sec().to_bits());
        assert_eq!(oracle.subsets_solved(), 3);
    }

    #[test]
    fn stronger_kinds_have_larger_marginal_gains() {
        // From the same base grant, one extra V100 buys more goodput
        // than one extra K80 — the ordering the water-filling loop's
        // gain-per-cost comparisons rely on.
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = profile();
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        let mut oracle = ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);
        let base = BTreeMap::from([(GpuKind::V100, 4)]);
        let strong = oracle.marginal_gain(&base, GpuKind::V100);
        let weak = oracle.marginal_gain(&base, GpuKind::K80);
        assert!(
            strong > weak,
            "V100 gain ({strong}) should exceed K80 gain ({weak})"
        );
    }

    #[test]
    fn empty_subset_is_worthless_and_zero_counts_are_ignored() {
        let m = zoo::deebert();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = profile();
        let (tm, lm, cfg) = (
            TransferModel::default(),
            LatencyModel::new(),
            OptimizerConfig::default(),
        );
        let mut oracle = ValueOracle::new(&m, &ctrl, &p, 8.0, &tm, &lm, &cfg);
        let empty = oracle.value(&BTreeMap::new());
        assert_eq!(empty.goodput, 0.0);
        assert!(!empty.feasible);
        // {V100: 2, K80: 0} and {V100: 2} are the same subset.
        let a = oracle.value(&BTreeMap::from([(GpuKind::V100, 2), (GpuKind::K80, 0)]));
        let b = oracle.value(&BTreeMap::from([(GpuKind::V100, 2)]));
        assert_eq!(a, b);
        assert_eq!(oracle.subsets_solved(), 1);
    }
}
