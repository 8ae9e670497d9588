//! Warm-started incremental re-planning for the homogeneous DP.
//!
//! The control loop re-runs the split optimizer every scheduling window,
//! and the tenancy allocator's water-filling loop asks for plans over
//! the same stage tables at dozens of GPU budgets. Those solves share
//! almost all of their work: the DP state `best[k][j][g]` depends only
//! on the per-range stage-latency table `t1`, the boundary-transfer
//! vector `tx`, and the split bound — never on the *total* GPU budget.
//! A column `g` of the table is therefore valid for every future query
//! with the same inputs, no matter how many GPUs that query asks about.
//!
//! [`PlanCache`] exploits this two ways:
//!
//! * **Warm reconstruction** — a re-plan whose `(t1, tx, max_splits)`
//!   match a cached solve and whose GPU budget is within the columns
//!   already filled skips the DP entirely and just walks the parent
//!   pointers (this is the every-window steady state of the control
//!   loop, and the shrunken-cluster re-plan after a fault).
//! * **Column extension** — a larger budget appends only the missing
//!   columns `g = m_cached+1 ..= m`; the existing entries are reused
//!   untouched (the water-filling allocator's grow-by-one queries).
//!
//! Invalidation is by construction: the stage tables *are* the key, so
//! a drifted profile, a changed batch size, or a different GPU kind
//! produces different `t1` bits and misses. Entries are compared by
//! exact float equality — a hit is bit-for-bit the same planning
//! problem, which is what keeps warm plans identical to cold ones.
//!
//! Within a solve, the DP's inner argmin over the last stage's replica
//! count is found by binary search instead of a linear scan (see
//! `DpTables::extend_to`): the candidate bottleneck
//! `max(prefix(g − m'), H/m')` is the max of a non-decreasing and a
//! strictly decreasing function of `m'`, so the scan's first argmin
//! always sits at their crossing. This drops a solve from
//! O(k·l²·m²) to O(k·l²·m·log m) — the difference between hours and
//! seconds at a 10 000-GPU horizon — without changing a single table
//! entry.

/// How many distinct planning problems a [`PlanCache`] retains.
///
/// Each entry holds the full DP tables — O(`max_splits · l · m`) — so
/// the cap bounds memory at roughly 40 MB for a 10k-GPU, 12-layer
/// problem. The control loop alternates between at most two profiles
/// (forecast and safe-mode) and the fallback path adds an unconstrained
/// variant, so a small cap captures the reuse.
const CACHE_CAP: usize = 4;

const INF: f64 = f64::INFINITY;

/// Counters for the cache's observable behaviour (benchmarks, tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered by reconstruction alone (no DP work at all).
    pub hits: u64,
    /// Queries that extended an existing entry to a larger GPU budget.
    pub extensions: u64,
    /// Queries that solved a new planning problem from scratch.
    pub misses: u64,
}

/// The memoized DP state for one planning problem: the exact inputs it
/// was solved under (the cache key) plus the layered tables, extendable
/// column-by-column in the GPU budget.
pub(crate) struct DpTables {
    /// Per-range one-replica stage times; `t1[s][j]` covers layers
    /// `s..j`, `INF` marks a memory-infeasible range.
    t1: Vec<Vec<f64>>,
    /// Surviving-batch transfer entering the boundary at layer `s + 1`.
    tx: Vec<f64>,
    /// Split bound the tables were built under.
    max_splits: usize,
    /// Columns filled so far: `best[k][j][g]` is valid for `g <= m`.
    m: usize,
    /// `best[k][j][g]` — best pipeline bottleneck for layers `0..j`
    /// using at most `k` stages and at most `g` GPUs.
    best: Vec<Vec<Vec<f64>>>,
    /// Parent pointers `(s, m')`: the last stage spans `s..j` on `m'`
    /// replicas. `u32` halves the footprint; layer and GPU counts fit
    /// easily.
    par: Vec<Vec<Vec<(u32, u32)>>>,
}

impl DpTables {
    /// Empty tables (only the `g = 0` column) for `l` layers.
    fn new(t1: Vec<Vec<f64>>, tx: Vec<f64>, max_splits: usize) -> Self {
        let l = t1.len() - 1;
        let mut best = vec![vec![Vec::new(); l + 1]; max_splits + 1];
        let mut par = vec![vec![Vec::new(); l + 1]; max_splits + 1];
        for k in 0..=max_splits {
            for j in 0..=l {
                best[k][j].push(if j == 0 { 0.0 } else { INF });
                par[k][j].push((0, 0));
            }
        }
        DpTables {
            t1,
            tx,
            max_splits,
            m: 0,
            best,
            par,
        }
    }

    /// Appends columns `self.m + 1 ..= m`, leaving existing entries
    /// untouched. Column `g` only reads columns `< g` (prefix lookups)
    /// and earlier stage counts of column `g` itself (the carry), so
    /// filling per-column in `k`-then-`j` order reproduces exactly the
    /// tables a from-scratch solve would build.
    fn extend_to(&mut self, m: usize) {
        let l = self.t1.len() - 1;
        for g in self.m + 1..=m {
            for j in 1..=l {
                self.best[0][j].push(INF);
                self.par[0][j].push((0, 0));
            }
            for k in 0..=self.max_splits {
                self.best[k][0].push(0.0);
                self.par[k][0].push((0, 0));
            }
            for k in 1..=self.max_splits {
                for j in 1..=l {
                    // Carry over plans with fewer stages. An infeasible
                    // carry leaves the virgin (INF, (0,0)) state, which
                    // is also what copying it would produce.
                    let mut bb = self.best[k - 1][j][g];
                    let mut bp = self.par[k - 1][j][g];
                    for s in 0..j {
                        let t = self.t1[s][j];
                        if !t.is_finite() {
                            continue; // memory-infeasible range
                        }
                        // A non-first stage's prefix needs >= 1 GPU.
                        let hi = if s == 0 { g } else { g - 1 };
                        if hi == 0 {
                            continue;
                        }
                        // The candidate for m' replicas is
                        // max(prefix(g - m'), H/m') with
                        // H = max(link, stage time): prefix is
                        // non-decreasing in m' (budgets only shrink) and
                        // H/m' strictly decreases, so the linear scan's
                        // first argmin is at their crossing — either the
                        // smallest m' where prefix >= H/m', or the one
                        // before it. Binary-search the crossing, then
                        // evaluate just those two with the exact
                        // linear-scan expression and tie-break order.
                        let h = if s == 0 { t } else { self.tx[s - 1].max(t) };
                        let (mut lo, mut hi2) = (1usize, hi + 1);
                        while lo < hi2 {
                            let mid = lo + (hi2 - lo) / 2;
                            if self.best[k - 1][s][g - mid] >= h / mid as f64 {
                                hi2 = mid;
                            } else {
                                lo = mid + 1;
                            }
                        }
                        for mp in [lo - 1, lo] {
                            if mp < 1 || mp > hi {
                                continue;
                            }
                            let prefix = self.best[k - 1][s][g - mp];
                            if !prefix.is_finite() {
                                continue;
                            }
                            let link = if s == 0 {
                                0.0
                            } else {
                                self.tx[s - 1] / mp as f64
                            };
                            let stage = t / mp as f64;
                            let cand = prefix.max(link).max(stage);
                            if cand < bb {
                                bb = cand;
                                bp = (s as u32, mp as u32);
                            }
                        }
                    }
                    self.best[k][j].push(bb);
                    self.par[k][j].push(bp);
                }
            }
        }
        self.m = self.m.max(m);
    }

    /// True if any stage count covers the whole model within budget `m`.
    pub(crate) fn feasible(&self, m: usize) -> bool {
        let l = self.t1.len() - 1;
        (1..=self.max_splits).any(|k| self.best[k][l][m].is_finite())
    }

    /// Reconstructs the best stage chain `(s, j, m')` for GPU budget
    /// `m`, charging `stage_overhead_frac` per extra stage when picking
    /// the stage count (the realization-jitter penalty).
    pub(crate) fn reconstruct(
        &self,
        m: usize,
        stage_overhead_frac: f64,
    ) -> Vec<(usize, usize, usize)> {
        let l = self.t1.len() - 1;
        let mut k_star = 1;
        let mut best_pen = INF;
        for k in 1..=self.max_splits {
            let pen = self.best[k][l][m] * (1.0 + stage_overhead_frac * (k as f64 - 1.0));
            if pen < best_pen {
                best_pen = pen;
                k_star = k;
            }
        }
        // Carried states copied their parent pointers, so par[k][j][g]
        // is always consistent with best[k][j][g]; best is monotone in
        // k, so stepping k down by one per stage keeps every prefix
        // lookup valid.
        let mut stages_rev: Vec<(usize, usize, usize)> = Vec::new();
        let mut k = k_star;
        let mut j = l;
        let mut g = m;
        while j > 0 {
            let (s, mp) = self.par[k][j][g];
            let (s, mp) = (s as usize, mp as usize);
            assert!(mp >= 1, "reconstruction hit an unset state");
            stages_rev.push((s, j, mp));
            j = s;
            g -= mp;
            if k > 1 {
                k -= 1;
            }
        }
        stages_rev.reverse();
        stages_rev
    }
}

/// A small LRU of solved DP tables, keyed by the exact planning inputs.
///
/// See the module docs for the warm-start model. A `PlanCache` is cheap
/// to construct; passing a fresh one to
/// [`crate::dp::optimize_homogeneous_cached`] is exactly a cold solve.
#[derive(Default)]
pub struct PlanCache {
    /// LRU order: most recently used last.
    entries: Vec<DpTables>,
    /// Observable hit/extension/miss counts.
    pub stats: CacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies tables for the planning problem `(t1, tx, max_splits)`,
    /// filled through column `m` — reusing, extending, or solving as
    /// needed — and moves them to the LRU tail, where [`Self::current`]
    /// reads them. The key comparison is exact float equality: a hit is
    /// the bit-identical problem, so warm answers equal cold ones.
    pub(crate) fn prepare(&mut self, t1: &[Vec<f64>], tx: &[f64], max_splits: usize, m: usize) {
        let found = self.entries.iter().position(|e| {
            e.max_splits == max_splits && e.t1.as_slice() == t1 && e.tx.as_slice() == tx
        });
        let idx = match found {
            Some(i) => {
                if self.entries[i].m >= m {
                    self.stats.hits += 1;
                } else {
                    self.entries[i].extend_to(m);
                    self.stats.extensions += 1;
                }
                i
            }
            None => {
                let mut fresh = DpTables::new(t1.to_vec(), tx.to_vec(), max_splits);
                fresh.extend_to(m);
                self.stats.misses += 1;
                if self.entries.len() == CACHE_CAP {
                    self.entries.remove(0);
                }
                self.entries.push(fresh);
                self.entries.len() - 1
            }
        };
        // Move to the LRU tail.
        let entry = self.entries.remove(idx);
        self.entries.push(entry);
    }

    /// The tables readied by the last [`Self::prepare`] call.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty (no `prepare` has run).
    pub(crate) fn current(&self) -> &DpTables {
        self.entries.last().expect("prepare() before current()")
    }

    /// Drops every entry (tests / forced invalidation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of retained planning problems.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use crate::dp::optimize_homogeneous_cached;
    use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, TransferModel};
    use e3_model::{zoo, BatchProfile, EeModel, RampController, RampStyle};

    fn setup() -> (EeModel, RampController, LatencyModel, TransferModel) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new(), TransferModel::default())
    }

    fn shrinking() -> BatchProfile {
        BatchProfile::new(vec![
            1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
        ])
    }

    /// A drifted variant of [`shrinking`]: what the estimator forecasts
    /// after a workload regime change.
    fn drifted() -> BatchProfile {
        BatchProfile::new(vec![
            1.0, 0.99, 0.95, 0.88, 0.8, 0.71, 0.62, 0.54, 0.47, 0.41, 0.36, 0.32, 0.32,
        ])
    }

    #[test]
    fn warm_plans_equal_cold_across_reuse_shrink_extend_and_invalidation() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let mut cache = PlanCache::new();
        // A control-loop-shaped query sequence: steady-state repeats, a
        // fault-shrunken cluster (ClusterSpec::without), a scale-out, a
        // drift-invalidated forecast, then back to the original regime.
        let shrunk = ClusterSpec::homogeneous(GpuKind::V100, 16, 4)
            .without(GpuKind::V100, 1)
            .num_gpus();
        assert_eq!(shrunk, 15);
        let queries: &[(&BatchProfile, usize)] = &[
            (&shrinking(), 16),
            (&shrinking(), 16),     // steady state: pure reconstruction
            (&shrinking(), shrunk), // fault shrink: reconstruction
            (&shrinking(), 24),     // scale-out: column extension
            (&drifted(), 16),       // drift: key change, fresh solve
            (&shrinking(), 16),     // back: still cached
        ];
        for &(profile, gpus) in queries {
            let warm = optimize_homogeneous_cached(
                &m,
                &c,
                profile,
                GpuKind::V100,
                gpus,
                8.0,
                &tm,
                &lm,
                &cfg,
                &mut cache,
            );
            let cold = optimize_homogeneous_cached(
                &m,
                &c,
                profile,
                GpuKind::V100,
                gpus,
                8.0,
                &tm,
                &lm,
                &cfg,
                &mut PlanCache::new(),
            );
            assert_eq!(warm, cold, "gpus={gpus}");
        }
        assert_eq!(
            cache.stats,
            CacheStats {
                hits: 3,
                extensions: 1,
                misses: 2,
            },
            "stats={:?}",
            cache.stats
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn batch_and_gpu_kind_changes_invalidate() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let p = shrinking();
        let mut cache = PlanCache::new();
        let _ = optimize_homogeneous_cached(
            &m,
            &c,
            &p,
            GpuKind::V100,
            8,
            8.0,
            &tm,
            &lm,
            &cfg,
            &mut cache,
        );
        let _ = optimize_homogeneous_cached(
            &m,
            &c,
            &p,
            GpuKind::V100,
            8,
            16.0,
            &tm,
            &lm,
            &cfg,
            &mut cache,
        );
        let _ = optimize_homogeneous_cached(
            &m,
            &c,
            &p,
            GpuKind::A6000,
            8,
            8.0,
            &tm,
            &lm,
            &cfg,
            &mut cache,
        );
        assert_eq!(cache.stats.misses, 3, "{:?}", cache.stats);
        assert_eq!(cache.stats.hits, 0);
    }

    #[test]
    fn lru_evicts_beyond_cap_and_clear_resets() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let p = shrinking();
        let mut cache = PlanCache::new();
        // Distinct batch sizes are distinct planning problems.
        for b in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            let _ = optimize_homogeneous_cached(
                &m,
                &c,
                &p,
                GpuKind::V100,
                4,
                b,
                &tm,
                &lm,
                &cfg,
                &mut cache,
            );
        }
        assert_eq!(cache.len(), CACHE_CAP);
        // The oldest problems were evicted; re-asking solves again.
        let _ = optimize_homogeneous_cached(
            &m,
            &c,
            &p,
            GpuKind::V100,
            4,
            1.0,
            &tm,
            &lm,
            &cfg,
            &mut cache,
        );
        assert_eq!(cache.stats.misses, 7);
        // The most recent survives as a hit.
        let _ = optimize_homogeneous_cached(
            &m,
            &c,
            &p,
            GpuKind::V100,
            4,
            6.0,
            &tm,
            &lm,
            &cfg,
            &mut cache,
        );
        assert_eq!(cache.stats.hits, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn memory_fallback_caches_both_variants() {
        // At b0 = 3000 no K80 range fits, so every solve needs the
        // unconstrained fallback; warm repeats should hit both entries
        // (constrained probe + unconstrained answer) without re-solving.
        let (_, _, lm, tm) = setup();
        let m = zoo::llama31_8b();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let p = BatchProfile::no_exits(m.num_layers());
        let cfg = OptimizerConfig::default();
        let mut cache = PlanCache::new();
        let first = optimize_homogeneous_cached(
            &m,
            &ctrl,
            &p,
            GpuKind::K80,
            4,
            3000.0,
            &tm,
            &lm,
            &cfg,
            &mut cache,
        );
        assert_eq!(cache.stats.misses, 2, "{:?}", cache.stats);
        let second = optimize_homogeneous_cached(
            &m,
            &ctrl,
            &p,
            GpuKind::K80,
            4,
            3000.0,
            &tm,
            &lm,
            &cfg,
            &mut cache,
        );
        assert_eq!(first, second);
        assert_eq!(cache.stats.misses, 2, "{:?}", cache.stats);
        assert_eq!(cache.stats.hits, 2, "{:?}", cache.stats);
    }
}
