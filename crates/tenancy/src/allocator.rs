//! Joint GPU allocation across tenants.
//!
//! An allocator turns (cluster, per-tenant demands, per-tenant plan
//! oracles) into disjoint per-kind GPU shares — the input to
//! [`e3_hardware::ClusterSpec::partition`]. Three policies:
//!
//! * [`StaticEven`] — the strawman: split every kind evenly, ignore
//!   demand. What a cluster operator does without a joint optimizer.
//! * [`DemandProportional`] — apportion each kind by weighted offered
//!   load. Demand-aware but value-blind: it cannot tell that a K80 buys
//!   tenant A more goodput than tenant B.
//! * [`MarginalGoodput`] — the headline policy: greedy water-filling
//!   that grants the next GPU to whichever tenant's DP-optimizer plan
//!   gains the most goodput per dollar from it, with per-tenant demand
//!   caps (a GPU that only adds capacity past what the tenant can
//!   consume is worthless) and an SLO-floor pre-pass so every tenant
//!   first gets enough GPUs for a latency-feasible plan.
//!
//! All three are deterministic: iteration orders are fixed (tenant
//! index, then [`GpuKind::ALL`] capability order) and ties break toward
//! the lower tenant index and the more capable kind.

use std::collections::BTreeMap;

use e3_hardware::{ClusterSpec, GpuKind};
use e3_optimizer::ValueOracle;
use e3_simcore::SimDuration;

/// What an allocator knows about one tenant, beyond its plan oracle.
#[derive(Debug, Clone, Copy)]
pub struct TenantDemand {
    /// Offered load in samples/s.
    pub demand_rate: f64,
    /// Priority weight (goodput gains are valued `weight`×).
    pub weight: f64,
    /// The tenant's latency SLO (informational; the oracle's feasibility
    /// verdict already accounts for it).
    pub slo: SimDuration,
}

/// Per-tenant, per-kind GPU grants. `shares[t][kind]` GPUs of `kind` go
/// to tenant `t`; kinds absent from the map are not granted.
pub type Shares = Vec<BTreeMap<GpuKind, usize>>;

/// A joint GPU allocation policy.
pub trait ClusterAllocator {
    /// Policy name, as printed in benchmark tables.
    fn name(&self) -> &'static str;

    /// Computes disjoint shares for `demands.len()` tenants over
    /// `cluster`. `oracles[t]` answers marginal plan-value queries for
    /// tenant `t` (built against that tenant's model, measured profile,
    /// and SLO). Implementations must grant every tenant at least one
    /// GPU and must not oversubscribe any kind; they may leave GPUs
    /// unallocated.
    fn allocate(
        &self,
        cluster: &ClusterSpec,
        demands: &[TenantDemand],
        oracles: &mut [ValueOracle<'_>],
    ) -> Shares;
}

/// Even static split, demand- and value-blind.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticEven;

impl ClusterAllocator for StaticEven {
    fn name(&self) -> &'static str {
        "StaticEven"
    }

    fn allocate(
        &self,
        cluster: &ClusterSpec,
        demands: &[TenantDemand],
        _oracles: &mut [ValueOracle<'_>],
    ) -> Shares {
        cluster
            .partition_even(demands.len())
            .iter()
            .map(|c| c.gpu_counts())
            .collect()
    }
}

/// Apportions each GPU kind proportionally to `weight × demand_rate`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemandProportional;

impl ClusterAllocator for DemandProportional {
    fn name(&self) -> &'static str {
        "DemandProportional"
    }

    fn allocate(
        &self,
        cluster: &ClusterSpec,
        demands: &[TenantDemand],
        _oracles: &mut [ValueOracle<'_>],
    ) -> Shares {
        let scores: Vec<f64> = demands.iter().map(|d| d.weight * d.demand_rate).collect();
        apportion(cluster, &scores)
    }
}

/// Greedy water-filling on demand-capped marginal goodput per dollar.
#[derive(Debug, Clone, Copy)]
pub struct MarginalGoodput {
    /// Demand headroom: a tenant's plan value is capped at
    /// `headroom × demand_rate`, leaving slack for the gap between the
    /// analytic plan model and realized serving goodput.
    pub headroom: f64,
    /// Gains at or below this are treated as zero (demand satisfied).
    pub epsilon: f64,
}

impl Default for MarginalGoodput {
    fn default() -> Self {
        MarginalGoodput {
            headroom: 1.2,
            epsilon: 1e-9,
        }
    }
}

impl MarginalGoodput {
    /// Demand-capped subset value for tenant `t` holding `share`.
    fn capped_value(
        &self,
        oracle: &mut ValueOracle<'_>,
        share: &BTreeMap<GpuKind, usize>,
        demand: &TenantDemand,
    ) -> f64 {
        oracle
            .value(share)
            .goodput
            .min(self.headroom * demand.demand_rate)
    }
}

impl ClusterAllocator for MarginalGoodput {
    fn name(&self) -> &'static str {
        "MarginalGoodput"
    }

    fn allocate(
        &self,
        cluster: &ClusterSpec,
        demands: &[TenantDemand],
        oracles: &mut [ValueOracle<'_>],
    ) -> Shares {
        let n = demands.len();
        assert_eq!(n, oracles.len(), "one oracle per tenant");
        assert!(
            n > 0 && n <= cluster.num_gpus(),
            "need 1..=num_gpus tenants"
        );
        let mut pool = cluster.gpu_counts();
        let mut shares: Shares = vec![BTreeMap::new(); n];

        // Phase 1 — SLO floor. In tenant order, grant each tenant its
        // best-gain kind until its plan is latency-feasible, bounded by
        // its even share of the cluster so one hard tenant cannot starve
        // the floor pass for the rest. Every tenant gets at least one
        // GPU here, which partition() requires anyway.
        let fair = cluster.num_gpus().div_ceil(n);
        for t in 0..n {
            while shares[t].values().sum::<usize>() < fair {
                let have = shares[t].values().sum::<usize>();
                if have > 0 && oracles[t].value(&shares[t]).feasible {
                    break;
                }
                let Some(kind) = best_kind_for(&mut oracles[t], &shares[t], &pool) else {
                    break;
                };
                grant(&mut shares[t], &mut pool, kind);
            }
        }

        // Phase 2 — water-filling. Repeatedly hand the next GPU to the
        // (tenant, kind) pair with the highest weighted, demand-capped
        // goodput gain per dollar. Stops when every tenant's demand is
        // met (all gains ≈ 0) — surplus GPUs stay unallocated rather
        // than burning cost on capacity nobody can consume. A tenant
        // already at its cap gains exactly zero from any kind, which never
        // beats a non-negative `epsilon`, so its grown subsets go unsolved.
        while pool.values().any(|&c| c > 0) {
            let mut best: Option<(f64, usize, GpuKind)> = None;
            for t in 0..n {
                let base = self.capped_value(&mut oracles[t], &shares[t], &demands[t]);
                if self.epsilon >= 0.0 && base == self.headroom * demands[t].demand_rate {
                    continue;
                }
                for &kind in GpuKind::ALL.iter() {
                    if pool.get(&kind).copied().unwrap_or(0) == 0 {
                        continue;
                    }
                    let mut grown = shares[t].clone();
                    *grown.entry(kind).or_insert(0) += 1;
                    let gain =
                        (self.capped_value(&mut oracles[t], &grown, &demands[t]) - base).max(0.0);
                    let score = demands[t].weight * gain / kind.cost_per_sec();
                    if score > self.epsilon && best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, t, kind));
                    }
                }
            }
            let Some((_, t, kind)) = best else { break };
            grant(&mut shares[t], &mut pool, kind);
        }
        shares
    }
}

/// Moves one GPU of `kind` from `pool` into `share`.
fn grant(share: &mut BTreeMap<GpuKind, usize>, pool: &mut BTreeMap<GpuKind, usize>, kind: GpuKind) {
    let left = pool.get_mut(&kind).expect("kind in pool");
    assert!(*left > 0, "granting from an empty pool");
    *left -= 1;
    *share.entry(kind).or_insert(0) += 1;
}

/// The in-pool kind with the highest uncapped marginal gain for a tenant
/// holding `share`; ties break toward the more capable kind.
fn best_kind_for(
    oracle: &mut ValueOracle<'_>,
    share: &BTreeMap<GpuKind, usize>,
    pool: &BTreeMap<GpuKind, usize>,
) -> Option<GpuKind> {
    let mut best: Option<(f64, GpuKind)> = None;
    for &kind in GpuKind::ALL.iter() {
        if pool.get(&kind).copied().unwrap_or(0) == 0 {
            continue;
        }
        let gain = oracle.marginal_gain(share, kind);
        if best.is_none_or(|(g, _)| gain > g) {
            best = Some((gain, kind));
        }
    }
    best.map(|(_, k)| k)
}

/// Largest-remainder apportionment of every kind by `scores`, followed
/// by a backfill pass so no tenant ends up with zero GPUs.
fn apportion(cluster: &ClusterSpec, scores: &[f64]) -> Shares {
    let n = scores.len();
    assert!(
        n > 0 && n <= cluster.num_gpus(),
        "need 1..=num_gpus tenants"
    );
    assert!(
        scores.iter().all(|s| s.is_finite() && *s >= 0.0),
        "scores must be finite and non-negative"
    );
    let total: f64 = scores.iter().sum();
    let mut shares: Shares = vec![BTreeMap::new(); n];
    for (&kind, &count) in &cluster.gpu_counts() {
        // Floor of each tenant's exact quota, then hand out the
        // remainder by descending fractional part (ties: lower index).
        let quotas: Vec<f64> = scores
            .iter()
            .map(|s| {
                if total == 0.0 {
                    count as f64 / n as f64
                } else {
                    count as f64 * s / total
                }
            })
            .collect();
        let mut granted: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut rest: Vec<usize> = (0..n).collect();
        rest.sort_by(|&a, &b| {
            let fa = quotas[a] - quotas[a].floor();
            let fb = quotas[b] - quotas[b].floor();
            fb.partial_cmp(&fa).expect("finite quotas").then(a.cmp(&b))
        });
        let mut leftover = count - granted.iter().sum::<usize>();
        for &t in rest.iter().cycle() {
            if leftover == 0 {
                break;
            }
            granted[t] += 1;
            leftover -= 1;
        }
        for (t, &g) in granted.iter().enumerate() {
            if g > 0 {
                shares[t].insert(kind, g);
            }
        }
    }
    // Backfill: give each empty tenant one GPU from the richest tenant's
    // most plentiful kind.
    while let Some(poor) = (0..n).find(|&t| shares[t].values().sum::<usize>() == 0) {
        let rich = (0..n)
            .max_by_key(|&t| shares[t].values().sum::<usize>())
            .expect("nonempty");
        let (&kind, _) = shares[rich]
            .iter()
            .max_by_key(|(_, &c)| c)
            .expect("richest tenant holds GPUs");
        let c = shares[rich].get_mut(&kind).expect("kind present");
        *c -= 1;
        if *c == 0 {
            shares[rich].remove(&kind);
        }
        *shares[poor].entry(kind).or_insert(0) += 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_hardware::{LatencyModel, TransferModel};
    use e3_model::{zoo, BatchProfile, RampController, RampStyle};
    use e3_optimizer::OptimizerConfig;

    fn demand(rate: f64) -> TenantDemand {
        TenantDemand {
            demand_rate: rate,
            weight: 1.0,
            slo: SimDuration::from_millis(100),
        }
    }

    struct OracleParts {
        model: e3_model::EeModel,
        ctrl: RampController,
        profile: BatchProfile,
        tm: TransferModel,
        lm: LatencyModel,
        cfg: OptimizerConfig,
    }

    fn parts() -> OracleParts {
        let model = zoo::deebert();
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let mut surv = vec![1.0];
        for k in 1..=12 {
            surv.push((1.0 - 0.07 * k as f64).max(0.1));
        }
        OracleParts {
            model,
            ctrl,
            profile: BatchProfile::new(surv),
            tm: TransferModel::default(),
            lm: LatencyModel::new(),
            cfg: OptimizerConfig::default(),
        }
    }

    fn oracles(parts: &[OracleParts]) -> Vec<ValueOracle<'_>> {
        parts
            .iter()
            .map(|p| ValueOracle::new(&p.model, &p.ctrl, &p.profile, 8.0, &p.tm, &p.lm, &p.cfg))
            .collect()
    }

    fn total(shares: &Shares) -> usize {
        shares.iter().map(|s| s.values().sum::<usize>()).sum()
    }

    fn assert_valid(shares: &Shares, cluster: &ClusterSpec) {
        // partition() enforces disjointness/oversubscription; it panics
        // on an invalid share set.
        let parts = cluster.partition(shares);
        assert_eq!(parts.len(), shares.len());
    }

    #[test]
    fn static_even_covers_the_cluster() {
        let cluster = ClusterSpec::paper_heterogeneous();
        let ps = [parts(), parts(), parts()];
        let mut os = oracles(&ps);
        let shares = StaticEven.allocate(
            &cluster,
            &[demand(1000.0), demand(1000.0), demand(1000.0)],
            &mut os,
        );
        assert_valid(&shares, &cluster);
        assert_eq!(
            total(&shares),
            cluster.num_gpus(),
            "even split uses all GPUs"
        );
    }

    #[test]
    fn demand_proportional_tracks_skew() {
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let ps = [parts(), parts()];
        let mut os = oracles(&ps);
        let shares =
            DemandProportional.allocate(&cluster, &[demand(3000.0), demand(1000.0)], &mut os);
        assert_valid(&shares, &cluster);
        let a: usize = shares[0].values().sum();
        let b: usize = shares[1].values().sum();
        assert_eq!(a + b, 16);
        assert_eq!(a, 12, "3:1 demand split of 16 V100s");
        assert_eq!(b, 4);
    }

    #[test]
    fn demand_proportional_backfills_zero_demand_tenants() {
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let ps = [parts(), parts()];
        let mut os = oracles(&ps);
        let shares = DemandProportional.allocate(&cluster, &[demand(1000.0), demand(0.0)], &mut os);
        assert_valid(&shares, &cluster);
        assert!(
            shares[1].values().sum::<usize>() >= 1,
            "idle tenant still holds one GPU"
        );
    }

    #[test]
    fn marginal_goodput_follows_demand_skew() {
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let ps = [parts(), parts()];
        let mut os = oracles(&ps);
        let shares = MarginalGoodput::default().allocate(
            &cluster,
            &[demand(8000.0), demand(500.0)],
            &mut os,
        );
        assert_valid(&shares, &cluster);
        let heavy: usize = shares[0].values().sum();
        let light: usize = shares[1].values().sum();
        assert!(heavy >= 1 && light >= 1, "both tenants hold GPUs");
        assert!(
            heavy > light,
            "heavy tenant ({heavy}) should out-rank light ({light})"
        );
    }

    #[test]
    fn marginal_goodput_stops_at_satisfied_demand() {
        // Tiny demands: once both caps bind, surplus GPUs stay unused.
        let cluster = ClusterSpec::paper_homogeneous_v100();
        let ps = [parts(), parts()];
        let mut os = oracles(&ps);
        let shares =
            MarginalGoodput::default().allocate(&cluster, &[demand(100.0), demand(100.0)], &mut os);
        assert_valid(&shares, &cluster);
        assert!(
            total(&shares) < cluster.num_gpus(),
            "surplus GPUs left idle: {shares:?}"
        );
    }

    /// `MarginalGoodput::allocate` as it was before phase 2 skipped
    /// capped tenants: every tenant's grown subsets are valued each round.
    fn allocate_without_skip(
        policy: &MarginalGoodput,
        cluster: &ClusterSpec,
        demands: &[TenantDemand],
        oracles: &mut [ValueOracle<'_>],
    ) -> Shares {
        let n = demands.len();
        let mut pool = cluster.gpu_counts();
        let mut shares: Shares = vec![BTreeMap::new(); n];
        let fair = cluster.num_gpus().div_ceil(n);
        for t in 0..n {
            while shares[t].values().sum::<usize>() < fair {
                let have = shares[t].values().sum::<usize>();
                if have > 0 && oracles[t].value(&shares[t]).feasible {
                    break;
                }
                let Some(kind) = best_kind_for(&mut oracles[t], &shares[t], &pool) else {
                    break;
                };
                grant(&mut shares[t], &mut pool, kind);
            }
        }
        while pool.values().any(|&c| c > 0) {
            let mut best: Option<(f64, usize, GpuKind)> = None;
            for t in 0..n {
                let base = policy.capped_value(&mut oracles[t], &shares[t], &demands[t]);
                for &kind in GpuKind::ALL.iter() {
                    if pool.get(&kind).copied().unwrap_or(0) == 0 {
                        continue;
                    }
                    let mut grown = shares[t].clone();
                    *grown.entry(kind).or_insert(0) += 1;
                    let gain =
                        (policy.capped_value(&mut oracles[t], &grown, &demands[t]) - base).max(0.0);
                    let score = demands[t].weight * gain / kind.cost_per_sec();
                    if score > policy.epsilon && best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, t, kind));
                    }
                }
            }
            let Some((_, t, kind)) = best else { break };
            grant(&mut shares[t], &mut pool, kind);
        }
        shares
    }

    /// The policy's and the unskipped loop's shares, and the subsets each
    /// had its oracles solve.
    fn with_and_without_skip(demands: &[TenantDemand]) -> [(Shares, usize); 2] {
        let cluster = ClusterSpec::paper_heterogeneous();
        let ps: Vec<OracleParts> = demands.iter().map(|_| parts()).collect();
        let solved = |os: &[ValueOracle<'_>]| os.iter().map(ValueOracle::subsets_solved).sum();
        let mut os = oracles(&ps);
        let skipped = MarginalGoodput::default().allocate(&cluster, demands, &mut os);
        let skipped = (skipped, solved(&os));
        let mut os = oracles(&ps);
        let full = allocate_without_skip(&MarginalGoodput::default(), &cluster, demands, &mut os);
        [skipped, (full, solved(&os))]
    }

    #[test]
    fn capped_tenants_are_skipped_without_moving_shares() {
        let [(skipped, fewer), (full, all)] =
            with_and_without_skip(&[demand(6000.0), demand(2000.0), demand(1000.0)]);
        assert_eq!(skipped, full);
        assert!(fewer < all, "skipping solved {fewer} of {all} subsets");

        // Every tenant meets its demand on one GPU: nothing is granted
        // past the floor either way.
        let [(skipped, _), (full, _)] =
            with_and_without_skip(&[demand(50.0), demand(50.0), demand(50.0)]);
        assert_eq!(skipped, full);
        assert_eq!(total(&skipped), 3, "{skipped:?}");
    }

    #[test]
    fn marginal_goodput_is_deterministic() {
        let cluster = ClusterSpec::paper_heterogeneous();
        let run = || {
            let ps = [parts(), parts(), parts()];
            let mut os = oracles(&ps);
            MarginalGoodput::default().allocate(
                &cluster,
                &[demand(6000.0), demand(2000.0), demand(1000.0)],
                &mut os,
            )
        };
        assert_eq!(run(), run());
    }
}
