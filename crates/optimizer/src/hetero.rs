//! Heterogeneity-aware split optimization (§3.2.3, fig. 6).
//!
//! The paper's final formulation lets every split choose a GPU
//! configuration, constrained so a split's replicas share one kind. A
//! literal DP over the 4-dimensional GPU-count vector is exact but
//! needlessly large; because the number of useful splits is tiny (the
//! paper's deployments cut once or twice), we solve the same optimum by:
//!
//! 1. enumerating split-boundary sets with at most `max_splits` stages;
//! 2. enumerating each stage's GPU kind (|kinds|^stages combinations);
//! 3. allocating replica counts within each kind by *waterfilling* —
//!    repeatedly granting a GPU to the stage with the largest current
//!    per-replica effective time, which is optimal for minimizing the
//!    maximum (the pipeline bottleneck).
//!
//! For 3 kinds at `max_splits = 4` on a 12-layer model that is 232
//! boundary sets and 14,952 kind assignments, yet only 234 distinct
//! (layer range, kind) stage costs. Three things keep the walk cheap:
//!
//! * **Stage tables** (`StageTables`). Each kind's one-replica times
//!   `t1[a][b]` come from `fill_t1` (without the memory check: this
//!   search has never enforced memory), and `tx[a]` holds the
//!   surviving-batch transfer entering a stage that starts at layer `a`.
//!   A cold solve builds them once; [`crate::ValueOracle`] builds them
//!   once per planning context and shares them across every subset it
//!   solves.
//! * **Allocation-free enumeration.** Boundary sets are generated in one
//!   buffer and scratch buffers are reused across sets and assignments.
//!   A kind holding one stage gives it all of its GPUs, which is what
//!   waterfilling would do; multi-stage groups waterfill in place.
//! * **Branch and bound over stage kinds.** When `n_k` stages share kind
//!   `k`, each holds at most `avail_k − n_k + 1` replicas, so the maximum
//!   over stages of `max(t1, tx) / cap`, times the stage penalty, bounds
//!   the penalized bottleneck from below. A whole boundary set is skipped
//!   when its bound, with every stage on its best kind and every GPU of
//!   that kind, exceeds the incumbent by more than the tie tolerance.
//!   Otherwise kinds are assigned depth first, from the last stage down
//!   to stage 0, and every node applies the same bound to the stages
//!   assigned so far, counting only those stages per kind. Assigning
//!   more stages only shrinks caps and adds terms, so a node's bound
//!   never exceeds that of any leaf below it; a node that cannot win
//!   cuts its subtree, and a node that oversubscribes a kind cuts a
//!   subtree with no feasible leaf.
//!
//! Plans are bit-identical to the plain enumeration. The tables hold the
//! values it recomputed on every visit. Boundary sets are visited in the
//! same order, and the walk reaches leaves in the order of the plain
//! enumeration's odometer (stage 0's kind turns fastest), so first-found
//! tie-breaks hold; waterfilling keeps `max_by`'s last-maximum tie-break
//! and the same cost summation order. IEEE rounding is monotone, so a
//! bound as computed never exceeds the bottleneck as computed. Nothing is
//! evaluated inside a cut subtree, so the incumbent cannot change there,
//! and every leaf the cut skips is one that an assignment-by-assignment
//! bound would also have skipped against the same incumbent. The
//! search's trajectory is unchanged and so are its [`SearchStats`]: a
//! cut adds the subtree's leaves that fit the GPU counts to `pruned`.
//! The plain enumeration and the assignment-by-assignment odometer
//! survive as `#[cfg(test)]` references that a property test compares
//! plans and statistics against.
//!
//! The same machinery answers the cost question of §5.3: given a target
//! goodput, each stage needs `ceil(t_eff / λ*)` replicas where
//! `λ* = b0 / goodput`, and we take the cheapest feasible assignment.
//! Its walk cuts a subtree whose assigned stages already oversubscribe a
//! kind or cost at least the incumbent: every further stage adds need
//! and at least one replica's price, far above the rounding of either
//! sum. At a leaf the same test is the plain enumeration's.

use std::collections::BTreeMap;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};

use crate::cache::PlanCache;
use crate::config::OptimizerConfig;
use crate::dp::{build_plan_hetero, fill_t1, optimize_homogeneous_cached};
use crate::plan::SplitPlan;
use crate::stage::boundary_transfer_surviving;

/// One assigned stage: (start layer, end layer, replicas, GPU kind).
type StageAssignment = (usize, usize, usize, GpuKind);

/// Tolerance within which two penalized bottlenecks tie (and are
/// compared by cost), and by which a plan may exceed the cost cap.
const TIE: f64 = 1e-12;

/// How much of the kind-assignment space one heterogeneous solve walked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Kind assignments in the search space: `|kinds|^stages`, summed
    /// over every boundary set.
    pub assignments: u64,
    /// Of those, the ones the lower bound ruled out before waterfilling.
    pub pruned: u64,
}

/// The one-replica stage costs of one planning context (model, ramps,
/// profile, batch): everything the split search reads.
pub(crate) struct StageTables {
    /// `tx[a]`: the surviving-batch transfer entering a stage that starts
    /// at layer `a`; zero for `a = 0`, which nothing transfers into.
    tx: Vec<f64>,
    /// Per kind, `t1[a][b]` from [`fill_t1`] without the memory check.
    t1: Vec<(GpuKind, Vec<Vec<f64>>)>,
}

impl StageTables {
    /// Tables with the transfer vector filled and no kinds yet.
    pub(crate) fn new(
        model: &EeModel,
        profile: &BatchProfile,
        b0: f64,
        tm: &TransferModel,
    ) -> Self {
        let tx = (0..model.num_layers())
            .map(|a| {
                if a == 0 {
                    0.0
                } else {
                    boundary_transfer_surviving(model, profile, a, b0, tm).as_secs_f64()
                }
            })
            .collect();
        StageTables { tx, t1: Vec::new() }
    }

    /// Fills the table of each kind in `kinds` that has none yet.
    fn add_kinds(
        &mut self,
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        b0: f64,
        lm: &LatencyModel,
        kinds: &[(GpuKind, usize)],
    ) {
        for &(kind, _) in kinds {
            if !self.t1.iter().any(|(k, _)| *k == kind) {
                let t1 = fill_t1(model, ctrl, profile, kind, b0, lm, false);
                self.t1.push((kind, t1));
            }
        }
    }

    fn t1(&self, kind: GpuKind) -> &[Vec<f64>] {
        self.t1
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t1)| t1.as_slice())
            .expect("a table for every searched kind")
    }
}

/// Calls `f` on every boundary set: sorted interior cut positions in
/// `1..l`, with at most `max_stages - 1` cuts, in lexicographic
/// pre-order from the empty set (1 stage). One buffer holds every set.
fn for_each_boundary_set(l: usize, max_stages: usize, mut f: impl FnMut(&[usize])) {
    let max_cuts = max_stages.saturating_sub(1);
    let mut cuts = Vec::with_capacity(max_cuts);
    loop {
        f(&cuts);
        // Extend by the next position; else bump the last cut, dropping
        // the ones that have run out of layers.
        let next = cuts.last().map_or(1, |&c| c + 1);
        if cuts.len() < max_cuts && next < l {
            cuts.push(next);
            continue;
        }
        loop {
            match cuts.pop() {
                Some(c) if c + 1 < l => {
                    cuts.push(c + 1);
                    break;
                }
                Some(_) => {}
                None => return,
            }
        }
    }
}

/// The layer range `(start, end)` of stage `i` under the cuts `cuts`.
fn stage_range(cuts: &[usize], l: usize, i: usize) -> (usize, usize) {
    let start = if i == 0 { 0 } else { cuts[i - 1] };
    (start, cuts.get(i).copied().unwrap_or(l))
}

/// Waterfills `extra` GPUs across stages whose counts `m` start at one,
/// minimizing the maximum of `work[i] / m[i]`.
fn waterfill(work: &[f64], m: &mut [usize], mut extra: usize) {
    while extra > 0 {
        let (i, _) = work
            .iter()
            .enumerate()
            .map(|(i, w)| (i, w / m[i] as f64))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty");
        m[i] += 1;
        extra -= 1;
    }
}

/// Walks the kind assignments of `assign.len()` stages depth first, in
/// the order of an odometer whose slot 0 turns fastest: the last stage's
/// kind is chosen first and stage 0's last. Each node gets a copy of its
/// parent's state (`root` at the top); `node(assign, i, state)` runs once
/// slots `i..` hold kinds and says whether to descend into slot `i - 1`.
/// At a leaf (`i == 0`) its answer is ignored.
fn walk<S: Copy>(
    assign: &mut [usize],
    nk: usize,
    root: S,
    node: &mut impl FnMut(&[usize], usize, &mut S) -> bool,
) {
    fn descend<S: Copy>(
        assign: &mut [usize],
        i: usize,
        nk: usize,
        parent: S,
        node: &mut impl FnMut(&[usize], usize, &mut S) -> bool,
    ) {
        for k in 0..nk {
            assign[i] = k;
            let mut state = parent;
            if node(assign, i, &mut state) && i > 0 {
                descend(assign, i - 1, nk, state, node);
            }
        }
    }
    if let Some(last) = assign.len().checked_sub(1) {
        descend(assign, last, nk, root, node);
    }
}

/// Kind assignments of `free` further stages that keep every kind within
/// its GPUs, when `on_kind[k]` stages already sit on kind `k`.
fn completions(kinds: &[(GpuKind, usize)], on_kind: &[usize], free: usize) -> u64 {
    let Some((&(_, avail), rest)) = kinds.split_first() else {
        return u64::from(free == 0);
    };
    let room = avail - on_kind[0];
    let mut ways = 0;
    // `choose` is C(free, c): which of the free stages take this kind.
    let mut choose = 1u64;
    for c in 0..=free.min(room) {
        ways += choose * completions(rest, &on_kind[1..], free - c);
        choose = choose * (free - c) as u64 / (c + 1) as u64;
    }
    ways
}

/// The pool's kinds with at least one GPU, in `GpuKind` order.
fn available(counts: &BTreeMap<GpuKind, usize>) -> Vec<(GpuKind, usize)> {
    counts
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(k, n)| (*k, *n))
        .collect()
}

/// Maximizes goodput on a heterogeneous pool: `counts` gives the number
/// of available GPUs per kind. Returns the bottleneck-optimal plan (ties
/// broken by lower cost), and how many kind assignments the search space
/// held and how many of them the lower bound pruned.
///
/// With `cfg.pipelining == false`, heterogeneous placement offers no
/// advantage (all splits run serially on the same devices), so the best
/// single-kind serial plan is returned instead.
#[allow(clippy::too_many_arguments)]
pub fn optimize_heterogeneous_with_stats(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    counts: &BTreeMap<GpuKind, usize>,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> (SplitPlan, SearchStats) {
    let mut tables = StageTables::new(model, profile, b0, tm);
    optimize_tabled(
        model,
        ctrl,
        profile,
        &available(counts),
        b0,
        tm,
        lm,
        cfg,
        &mut tables,
    )
}

/// [`optimize_heterogeneous_with_stats`] over the nonzero per-kind
/// counts `kinds`, reading (and extending) `tables`, which must have
/// been built for the same model, ramps, profile, batch and transfers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn optimize_tabled(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    kinds: &[(GpuKind, usize)],
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
    tables: &mut StageTables,
) -> (SplitPlan, SearchStats) {
    assert!(b0 > 0.0, "batch must be positive");
    assert!(!kinds.is_empty(), "no GPUs available");

    if !cfg.pipelining {
        // Serial mode cannot exploit heterogeneity; take the best
        // homogeneous serial plan over the available kinds.
        let mut cache = PlanCache::new();
        let plan = kinds
            .iter()
            .map(|&(k, n)| {
                optimize_homogeneous_cached(model, ctrl, profile, k, n, b0, tm, lm, cfg, &mut cache)
            })
            .max_by(|a, b| a.goodput.partial_cmp(&b.goodput).expect("finite"))
            .expect("nonempty kinds");
        return (plan, SearchStats::default());
    }

    tables.add_kinds(model, ctrl, profile, b0, lm, kinds);
    let (stages, stats) = bottleneck_search(kinds, tables, model.num_layers(), cfg);
    let plan = build_plan_hetero(model, ctrl, profile, b0, tm, lm, cfg, &stages, true);
    (plan, stats)
}

/// Whether a plan whose penalized bottleneck is at least `bound · pen`
/// cannot displace the incumbent `best` (penalized bottleneck, cost).
/// Anything more than the tie tolerance above the incumbent fails the
/// acceptance test; the bound must clear twice the tolerance, a safety
/// margin on top of the exact argument in the module docs.
fn cannot_win(best: Option<(f64, f64)>, bound: f64, pen: f64) -> bool {
    pen > 0.0 && best.is_some_and(|(bb, _)| bound * pen - bb > 2.0 * TIE)
}

/// The most kinds one pool holds.
const KINDS: usize = GpuKind::ALL.len();

/// The bound's view of a node of the walk: per kind, how many assigned
/// stages sit on it, the largest `max(t1, tx)` among them, and that over
/// the kind's replica cap.
///
/// A stage sharing kind `k` with `n − 1` others holds at most
/// `avail_k − n + 1` replicas, and all of them share that cap. Division
/// by one cap is monotone, so the largest term is exactly the maximum
/// over assigned stages of `max(t1, tx) / cap`. More stages only shrink
/// caps and add terms, so no leaf below a node bounds lower than it.
#[derive(Clone, Copy, Default)]
struct Placed {
    on_kind: [usize; KINDS],
    top: [f64; KINDS],
    term: [f64; KINDS],
}

impl Placed {
    /// Places a stage whose `max(t1, tx)` is `x` on kind `k` with `avail`
    /// GPUs. Returns the bound over the placed stages, or `None` if the
    /// kind has no GPU left for it.
    fn place(&mut self, k: usize, avail: usize, x: f64) -> Option<f64> {
        self.on_kind[k] += 1;
        if self.on_kind[k] > avail {
            return None;
        }
        self.top[k] = self.top[k].max(x);
        self.term[k] = self.top[k] / (avail - self.on_kind[k] + 1) as f64;
        Some(self.term.iter().copied().fold(0.0, f64::max))
    }
}

/// Buffers the bottleneck search reuses across boundary sets and
/// assignments, for `nk` kinds.
struct Scratch {
    nk: usize,
    /// `w[i * nk + k]`: stage i's one-replica time on kind k.
    w: Vec<f64>,
    /// `tx[i]`: the transfer entering stage i.
    tx: Vec<f64>,
    /// `m[i]`: stage i's replica count.
    m: Vec<usize>,
    /// One kind's stage times and replica counts while it waterfills.
    group_w: Vec<f64>,
    group_m: Vec<usize>,
}

impl Scratch {
    fn new(nk: usize, max_stages: usize) -> Self {
        Scratch {
            nk,
            w: vec![0.0; max_stages * nk],
            tx: vec![0.0; max_stages],
            m: vec![0; max_stages],
            group_w: Vec::with_capacity(max_stages),
            group_m: Vec::with_capacity(max_stages),
        }
    }

    /// Loads the stage costs of the boundary set `cuts`; returns its
    /// bound: every stage on its best kind, with all of that kind's GPUs.
    fn load(
        &mut self,
        cuts: &[usize],
        l: usize,
        kinds: &[(GpuKind, usize)],
        t1: &[&[Vec<f64>]],
        tx: &[f64],
    ) -> f64 {
        let nk = self.nk;
        let mut set_bound = 0.0f64;
        for i in 0..=cuts.len() {
            let (a, b) = stage_range(cuts, l, i);
            self.tx[i] = tx[a];
            let mut stage_bound = f64::INFINITY;
            for (k, &(_, avail)) in kinds.iter().enumerate() {
                self.w[i * nk + k] = t1[k][a][b];
                stage_bound = stage_bound.min(t1[k][a][b].max(tx[a]) / avail as f64);
            }
            set_bound = set_bound.max(stage_bound);
        }
        set_bound
    }

    /// Stage `i`'s `max(t1, tx)` on kind `k`.
    fn demand(&self, i: usize, k: usize) -> f64 {
        self.w[i * self.nk + k].max(self.tx[i])
    }

    /// Allocates replicas within each kind, `on_kind[k]` stages sharing
    /// kind `k`, and returns the plan's (bottleneck, cost), summed kind by
    /// kind in stage order. A kind holding one stage gives it all of its
    /// GPUs, as waterfilling would.
    fn allocate(
        &mut self,
        kinds: &[(GpuKind, usize)],
        assign: &[usize],
        on_kind: &[usize],
    ) -> (f64, f64) {
        let nk = self.nk;
        let mut bottleneck = 0.0f64;
        let mut cost = 0.0;
        for (k, &(kind, avail)) in kinds.iter().enumerate() {
            let n = on_kind[k];
            let members = || (0..assign.len()).filter(move |&i| assign[i] == k);
            match n {
                0 => continue,
                1 => self.m[members().next().expect("one stage")] = avail,
                _ => {
                    self.group_w.clear();
                    self.group_w
                        .extend(members().map(|i| self.w[i * nk + k].max(self.tx[i])));
                    self.group_m.clear();
                    self.group_m.resize(n, 1);
                    waterfill(&self.group_w, &mut self.group_m, avail - n);
                    for (i, &gm) in members().zip(&self.group_m) {
                        self.m[i] = gm;
                    }
                }
            }
            for i in members() {
                let m = self.m[i];
                bottleneck = bottleneck
                    .max(self.w[i * nk + k] / m as f64)
                    .max(self.tx[i] / m as f64);
                cost += m as f64 * kind.cost_per_sec();
            }
        }
        (bottleneck, cost)
    }
}

/// Searches boundary sets × kind assignments for the least penalized
/// bottleneck, ties broken by lower cost, then by first found.
fn bottleneck_search(
    kinds: &[(GpuKind, usize)],
    tables: &StageTables,
    l: usize,
    cfg: &OptimizerConfig,
) -> (Vec<StageAssignment>, SearchStats) {
    let nk = kinds.len();
    assert!(nk <= KINDS, "kinds are distinct");
    let t1: Vec<&[Vec<f64>]> = kinds.iter().map(|&(k, _)| tables.t1(k)).collect();
    let max_stages = cfg.max_splits.max(1);
    let mut sc = Scratch::new(nk, max_stages);
    let mut assign = vec![0usize; max_stages];
    let mut stats = SearchStats::default();
    // The incumbent's (penalized bottleneck, cost) and stages.
    let mut best: Option<(f64, f64)> = None;
    let mut best_stages = Vec::new();

    for_each_boundary_set(l, max_stages, |cuts| {
        let s = cuts.len() + 1;
        // Same realization penalty per extra stage as the homogeneous DP
        // (see OptimizerConfig::stage_overhead_frac).
        let pen = 1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0);
        let space = (nk as u64).pow(s as u32);
        stats.assignments += space;
        if cannot_win(best, sc.load(cuts, l, kinds, &t1, &tables.tx), pen) {
            stats.pruned += space;
            return;
        }
        walk(
            &mut assign[..s],
            nk,
            Placed::default(),
            &mut |assign, i, placed| {
                let k = assign[i];
                // An oversubscribed subtree holds no leaf the counts admit.
                let Some(bound) = placed.place(k, kinds[k].1, sc.demand(i, k)) else {
                    return false;
                };
                if cannot_win(best, bound, pen) {
                    stats.pruned += completions(kinds, &placed.on_kind, i);
                    return false;
                }
                if i > 0 {
                    return true;
                }
                let (bottleneck, cost) = sc.allocate(kinds, assign, &placed.on_kind);
                let within_cap = cfg.max_cost_per_sec.is_none_or(|cap| cost <= cap + TIE);
                let penalized = bottleneck * pen;
                let better = match best {
                    None => true,
                    Some((bb, bc)) => {
                        penalized < bb - TIE || ((penalized - bb).abs() <= TIE && cost < bc)
                    }
                };
                if within_cap && better {
                    best = Some((penalized, cost));
                    best_stages.clear();
                    best_stages.extend(assign.iter().enumerate().map(|(i, &k)| {
                        let (a, b) = stage_range(cuts, l, i);
                        (a, b, sc.m[i], kinds[k].0)
                    }));
                }
                true
            },
        );
    });

    assert!(best.is_some(), "at least the single-stage plan is feasible");
    (best_stages, stats)
}

/// Minimizes dollar cost subject to a goodput target on a heterogeneous
/// pool (fig. 15). Returns `None` when the target is unreachable even
/// using every GPU.
#[allow(clippy::too_many_arguments)]
pub fn min_cost_for_goodput(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    counts: &BTreeMap<GpuKind, usize>,
    b0: f64,
    target_goodput: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    cfg: &OptimizerConfig,
) -> Option<SplitPlan> {
    assert!(target_goodput > 0.0, "target must be positive");
    let kinds = available(counts);
    if kinds.is_empty() {
        return None;
    }
    let mut tables = StageTables::new(model, profile, b0, tm);
    tables.add_kinds(model, ctrl, profile, b0, lm, &kinds);
    let lambda = b0 / target_goodput; // required bottleneck in seconds
    let stages = cost_search(&kinds, &tables, model.num_layers(), lambda, cfg)?;
    Some(build_plan_hetero(
        model, ctrl, profile, b0, tm, lm, cfg, &stages, true,
    ))
}

/// Searches boundary sets × kind assignments for the cheapest plan whose
/// every stage meets the bottleneck `lambda`, ties broken by first found.
fn cost_search(
    kinds: &[(GpuKind, usize)],
    tables: &StageTables,
    l: usize,
    lambda: f64,
    cfg: &OptimizerConfig,
) -> Option<Vec<StageAssignment>> {
    let nk = kinds.len();
    let t1: Vec<&[Vec<f64>]> = kinds.iter().map(|&(k, _)| tables.t1(k)).collect();
    let max_stages = cfg.max_splits.max(1);
    // `need[i * nk + k]`: replicas stage i needs on kind k to meet the
    // bottleneck for both compute and the incoming (replica-amortized)
    // transfer. It does not depend on the other stages' kinds.
    let mut need = vec![0usize; max_stages * nk];
    let mut assign = vec![0usize; max_stages];
    let mut used = vec![0usize; nk];
    let mut best: Option<f64> = None;
    let mut best_stages = Vec::new();

    for_each_boundary_set(l, max_stages, |cuts| {
        let s = cuts.len() + 1;
        for i in 0..s {
            let (a, b) = stage_range(cuts, l, i);
            for k in 0..nk {
                let t = t1[k][a][b].max(tables.tx[a]);
                need[i * nk + k] = (t / lambda).ceil().max(1.0) as usize;
            }
        }
        walk(&mut assign[..s], nk, (), &mut |assign, i, ()| {
            // The slots `i..` in stage order; at a leaf this is the whole
            // plan's feasibility and cost. Further stages only add need
            // and at least one replica's price, so a subtree whose slots
            // already oversubscribe a kind or reach the incumbent's cost
            // holds nothing the leaf test would accept.
            used.fill(0);
            let mut cost = 0.0;
            for (j, &k) in assign.iter().enumerate().skip(i) {
                let n = need[j * nk + k];
                used[k] += n;
                if used[k] > kinds[k].1 {
                    return false;
                }
                cost += n as f64 * kinds[k].0.cost_per_sec();
            }
            if !best.is_none_or(|bc| cost < bc) {
                return false;
            }
            if i == 0 {
                best = Some(cost);
                best_stages.clear();
                best_stages.extend((0..s).map(|i| {
                    let (a, b) = stage_range(cuts, l, i);
                    (a, b, need[i * nk + assign[i]], kinds[assign[i]].0)
                }));
            }
            true
        });
    });

    best.map(|_| best_stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::stage_cost;
    use e3_model::{zoo, RampStyle};
    use proptest::prelude::*;

    /// The boundary sets as owned vectors, in the order the search visits
    /// them: the generator it used before it walked them in place.
    fn boundary_sets(l: usize, max_stages: usize) -> Vec<Vec<usize>> {
        fn rec(
            l: usize,
            start: usize,
            left: usize,
            current: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if left == 0 {
                return;
            }
            for b in start..l {
                current.push(b);
                out.push(current.clone());
                rec(l, b + 1, left - 1, current, out);
                current.pop();
            }
        }
        let mut out = vec![vec![]];
        let mut current = Vec::new();
        rec(l, 1, max_stages.saturating_sub(1), &mut current, &mut out);
        out
    }

    /// Advances an odometer over `base^len`; returns `false` on wrap-around.
    fn next_assignment(assign: &mut [usize], base: usize) -> bool {
        for slot in assign.iter_mut() {
            *slot += 1;
            if *slot < base {
                return true;
            }
            *slot = 0;
        }
        false
    }

    fn half_by_six() -> BatchProfile {
        let mut surv = vec![1.0];
        for k in 1..=12 {
            let s = if k <= 6 {
                1.0 - 0.5 * (k as f64 / 6.0)
            } else {
                0.5 - 0.1 * ((k - 6) as f64 / 6.0)
            };
            surv.push(s);
        }
        BatchProfile::new(surv)
    }

    fn paper_hetero_counts() -> BTreeMap<GpuKind, usize> {
        let mut c = BTreeMap::new();
        c.insert(GpuKind::V100, 6);
        c.insert(GpuKind::P100, 8);
        c.insert(GpuKind::K80, 15);
        c
    }

    fn setup() -> (
        e3_model::EeModel,
        RampController,
        LatencyModel,
        TransferModel,
    ) {
        let m = zoo::deebert();
        let c = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        (m, c, LatencyModel::new(), TransferModel::default())
    }

    #[test]
    fn boundary_sets_counts() {
        // 4 layers, up to 3 stages: {} + C(3,1) + C(3,2) = 1 + 3 + 3.
        let sets = boundary_sets(4, 3);
        assert_eq!(sets.len(), 7);
        assert!(sets.contains(&vec![]));
        assert!(sets.contains(&vec![1, 3]));
        for s in &sets {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&b| (1..4).contains(&b)));
        }
    }

    #[test]
    fn boundary_sets_are_walked_in_generator_order() {
        for l in 0..8 {
            for max_stages in 0..6 {
                let mut walked = Vec::new();
                for_each_boundary_set(l, max_stages, |cuts| walked.push(cuts.to_vec()));
                assert_eq!(
                    walked,
                    boundary_sets(l, max_stages),
                    "l {l} stages {max_stages}"
                );
            }
        }
    }

    #[test]
    fn walk_visits_leaves_in_odometer_order() {
        for (len, base) in [(1, 3), (3, 2), (4, 3), (2, 1)] {
            let mut walked = Vec::new();
            walk(&mut vec![0; len], base, (), &mut |assign, i, ()| {
                if i == 0 {
                    walked.push(assign.to_vec());
                }
                true
            });
            let mut odometer = vec![vec![0; len]];
            let mut assign = vec![0; len];
            while next_assignment(&mut assign, base) {
                odometer.push(assign.clone());
            }
            assert_eq!(walked, odometer, "len {len} base {base}");
        }
    }

    #[test]
    fn completions_count_the_leaves_within_each_kind() {
        let kinds = [(GpuKind::V100, 2), (GpuKind::P100, 1), (GpuKind::K80, 3)];
        for free in 0..5 {
            for on_kind in [[0, 0, 0], [1, 0, 2], [2, 1, 3], [0, 1, 0]] {
                let mut brute = 0;
                let mut assign = vec![0; free];
                loop {
                    let mut n = on_kind;
                    assign.iter().for_each(|&k| n[k] += 1);
                    brute += u64::from(n.iter().zip(&kinds).all(|(n, (_, a))| n <= a));
                    if !next_assignment(&mut assign, kinds.len()) {
                        break;
                    }
                }
                assert_eq!(
                    completions(&kinds, &on_kind, free),
                    brute,
                    "{free} {on_kind:?}"
                );
            }
        }
    }

    #[test]
    fn waterfill_minimizes_max() {
        // max(4/3, 2/2) = 1.33 beats max(4/4, 2/1) = 2.0.
        let mut m = [1, 1];
        waterfill(&[4.0, 2.0], &mut m, 3);
        assert_eq!(m.iter().sum::<usize>(), 5);
        assert_eq!(m, [3, 2]);
    }

    #[test]
    fn waterfill_ties_go_to_the_last_stage() {
        // `Iterator::max_by` keeps the last of equal maxima.
        let mut m = [1, 1];
        waterfill(&[2.0, 2.0], &mut m, 1);
        assert_eq!(m, [1, 2]);
        for (work, extra) in [(&[3.0, 1.0, 3.0][..], 3), (&[0.0, 0.0, 0.0][..], 4)] {
            let mut m = vec![1; work.len()];
            waterfill(work, &mut m, extra);
            assert_eq!(m, reference_waterfill(work, extra));
        }
    }

    #[test]
    fn hetero_plan_is_valid_and_productive() {
        let (m, c, lm, tm) = setup();
        let plan = optimize_heterogeneous_with_stats(
            &m,
            &c,
            &half_by_six(),
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        )
        .0;
        plan.assert_valid(12);
        assert!(plan.goodput > 0.0);
        assert!(plan.gpus_used() >= 6, "{plan}");
    }

    #[test]
    fn hetero_beats_or_matches_v100_subset() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let profile = half_by_six();
        let hetero = optimize_heterogeneous_with_stats(
            &m,
            &c,
            &profile,
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &cfg,
        )
        .0;
        let v100_only = optimize_homogeneous_cached(
            &m,
            &c,
            &profile,
            GpuKind::V100,
            6,
            8.0,
            &tm,
            &lm,
            &cfg,
            &mut PlanCache::new(),
        );
        assert!(
            hetero.goodput >= v100_only.goodput - 1e-6,
            "hetero {} < v100-only {}",
            hetero.goodput,
            v100_only.goodput
        );
    }

    #[test]
    fn single_kind_pool_matches_homogeneous_objective() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let mut counts = BTreeMap::new();
        counts.insert(GpuKind::V100, 16);
        let hetero =
            optimize_heterogeneous_with_stats(&m, &c, &half_by_six(), &counts, 8.0, &tm, &lm, &cfg)
                .0;
        let homo = optimize_homogeneous_cached(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &cfg,
            &mut PlanCache::new(),
        );
        assert!(
            (hetero.goodput - homo.goodput).abs() / homo.goodput < 0.05,
            "hetero {} homo {}",
            hetero.goodput,
            homo.goodput
        );
    }

    #[test]
    fn min_cost_meets_target_cheaper_than_full_pool() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let counts = paper_hetero_counts();
        let full =
            optimize_heterogeneous_with_stats(&m, &c, &half_by_six(), &counts, 8.0, &tm, &lm, &cfg)
                .0;
        let target = full.goodput * 0.5;
        let cheap =
            min_cost_for_goodput(&m, &c, &half_by_six(), &counts, 8.0, target, &tm, &lm, &cfg)
                .expect("target reachable");
        assert!(cheap.goodput >= target * 0.99, "{}", cheap.goodput);
        assert!(
            cheap.cost_per_sec() < full.cost_per_sec(),
            "cheap {} full {}",
            cheap.cost_per_sec(),
            full.cost_per_sec()
        );
    }

    #[test]
    fn min_cost_unreachable_returns_none() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig::default();
        let mut counts = BTreeMap::new();
        counts.insert(GpuKind::K80, 1);
        let plan =
            min_cost_for_goodput(&m, &c, &half_by_six(), &counts, 8.0, 1.0e9, &tm, &lm, &cfg);
        assert!(plan.is_none());
    }

    #[test]
    fn serial_mode_falls_back_to_best_kind() {
        let (m, c, lm, tm) = setup();
        let cfg = OptimizerConfig {
            pipelining: false,
            ..Default::default()
        };
        let plan = optimize_heterogeneous_with_stats(
            &m,
            &c,
            &half_by_six(),
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &cfg,
        )
        .0;
        let kinds: std::collections::BTreeSet<_> = plan.splits.iter().map(|s| s.gpu).collect();
        assert_eq!(kinds.len(), 1);
        assert!(!plan.pipelined);
    }

    #[test]
    fn bound_prunes_most_of_the_paper_search() {
        // 232 boundary sets of DeeBERT's 12 layers at max_splits 4, with
        // 3 + 11·9 + 55·27 + 165·81 = 14,952 kind assignments among them.
        // The walk's counts are the odometer's, pinned exactly.
        let (m, c, lm, tm) = setup();
        let (plan, stats) = optimize_heterogeneous_with_stats(
            &m,
            &c,
            &half_by_six(),
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        assert_eq!(stats.assignments, 14_952);
        assert_eq!(stats.pruned, 14_586);
        let [walked, odometer] = walk_and_odometer(
            &m,
            &c,
            &half_by_six(),
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        assert_eq!(walked, odometer);
        let reference = reference_optimize_heterogeneous(
            &m,
            &c,
            &half_by_six(),
            &paper_hetero_counts(),
            8.0,
            &tm,
            &lm,
            &OptimizerConfig::default(),
        );
        assert_eq!(plan, reference);
    }

    /// The plain enumeration the solver replaced, kept verbatim as an
    /// executable specification: stage costs recomputed for every
    /// boundary set, every kind assignment waterfilled, nothing pruned.
    #[allow(clippy::too_many_arguments)]
    fn reference_optimize_heterogeneous(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        counts: &BTreeMap<GpuKind, usize>,
        b0: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> SplitPlan {
        assert!(b0 > 0.0, "batch must be positive");
        let kinds: Vec<(GpuKind, usize)> = counts
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(k, n)| (*k, *n))
            .collect();
        assert!(!kinds.is_empty(), "no GPUs available");

        if !cfg.pipelining {
            return kinds
                .iter()
                .map(|&(k, n)| {
                    optimize_homogeneous_cached(
                        model,
                        ctrl,
                        profile,
                        k,
                        n,
                        b0,
                        tm,
                        lm,
                        cfg,
                        &mut PlanCache::new(),
                    )
                })
                .max_by(|a, b| a.goodput.partial_cmp(&b.goodput).expect("finite"))
                .expect("nonempty kinds");
        }

        let l = model.num_layers();
        // (bottleneck, cost, stages)
        let mut best: Option<(f64, f64, Vec<StageAssignment>)> = None;

        for cuts in boundary_sets(l, cfg.max_splits.max(1)) {
            let stages = stages_of(l, &cuts);
            let s = stages.len();
            let t1: Vec<Vec<f64>> = stages
                .iter()
                .map(|&(a, b)| {
                    kinds
                        .iter()
                        .map(|&(k, _)| {
                            stage_cost(model, ctrl, profile, a..b, b0, k, 1, lm)
                                .effective_time
                                .as_secs_f64()
                        })
                        .collect()
                })
                .collect();
            let tx_in: Vec<f64> = stages
                .iter()
                .enumerate()
                .map(|(i, &(a, _))| {
                    if i == 0 {
                        0.0
                    } else {
                        boundary_transfer_surviving(model, profile, a, b0, tm).as_secs_f64()
                    }
                })
                .collect();

            let mut assign = vec![0usize; s];
            loop {
                let mut feasible = true;
                let mut bottleneck = 0.0f64;
                let mut cost = 0.0;
                let mut stage_m = vec![0usize; s];
                for (ki, &(kind, avail)) in kinds.iter().enumerate() {
                    let group: Vec<usize> = (0..s).filter(|&i| assign[i] == ki).collect();
                    if group.is_empty() {
                        continue;
                    }
                    if group.len() > avail {
                        feasible = false;
                        break;
                    }
                    let work: Vec<f64> = group.iter().map(|&i| t1[i][ki].max(tx_in[i])).collect();
                    let ms = reference_waterfill(&work, avail - group.len());
                    for (gi, &i) in group.iter().enumerate() {
                        stage_m[i] = ms[gi];
                        bottleneck = bottleneck
                            .max(t1[i][ki] / ms[gi] as f64)
                            .max(tx_in[i] / ms[gi] as f64);
                        cost += ms[gi] as f64 * kind.cost_per_sec();
                    }
                }
                if feasible {
                    if let Some(cap) = cfg.max_cost_per_sec {
                        if cost > cap + 1e-12 {
                            feasible = false;
                        }
                    }
                }
                if feasible {
                    let penalized = bottleneck * (1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0));
                    let better = match &best {
                        None => true,
                        Some((bb, bc, _)) => {
                            penalized < bb - 1e-12
                                || ((penalized - bb).abs() <= 1e-12 && cost < *bc)
                        }
                    };
                    if better {
                        let built: Vec<StageAssignment> = stages
                            .iter()
                            .enumerate()
                            .map(|(i, &(a, b))| (a, b, stage_m[i], kinds[assign[i]].0))
                            .collect();
                        best = Some((penalized, cost, built));
                    }
                }
                if !next_assignment(&mut assign, kinds.len()) {
                    break;
                }
            }
        }

        let (_, _, stages) = best.expect("at least the single-stage plan is feasible");
        build_plan_hetero(model, ctrl, profile, b0, tm, lm, cfg, &stages, true)
    }

    /// The odometer walk the branch and bound replaced, kept as the
    /// reference for its plans and [`SearchStats`]: every assignment the
    /// GPU counts admit is bounded one at a time, and the survivors are
    /// waterfilled.
    fn odometer_bottleneck_search(
        kinds: &[(GpuKind, usize)],
        tables: &StageTables,
        l: usize,
        cfg: &OptimizerConfig,
    ) -> (Vec<StageAssignment>, SearchStats) {
        let nk = kinds.len();
        let t1: Vec<&[Vec<f64>]> = kinds.iter().map(|&(k, _)| tables.t1(k)).collect();
        let max_stages = cfg.max_splits.max(1);
        let mut sc = Scratch::new(nk, max_stages);
        let mut stats = SearchStats::default();
        let mut best: Option<(f64, f64)> = None;
        let mut best_stages = Vec::new();

        for cuts in boundary_sets(l, max_stages) {
            let s = cuts.len() + 1;
            let pen = 1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0);
            let space = (nk as u64).pow(s as u32);
            stats.assignments += space;
            if cannot_win(best, sc.load(&cuts, l, kinds, &t1, &tables.tx), pen) {
                stats.pruned += space;
                continue;
            }
            let mut assign = vec![0usize; s];
            let mut on_kind = vec![0; nk];
            loop {
                on_kind.fill(0);
                for &k in &assign {
                    on_kind[k] += 1;
                }
                let fits = kinds.iter().zip(&on_kind).all(|(&(_, a), &n)| n <= a);
                if fits {
                    let bound = assign
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| {
                            let cap = kinds[k].1 - on_kind[k] + 1;
                            sc.demand(i, k) / cap as f64
                        })
                        .fold(0.0, f64::max);
                    if cannot_win(best, bound, pen) {
                        stats.pruned += 1;
                    } else {
                        let (bottleneck, cost) = sc.allocate(kinds, &assign, &on_kind);
                        let within_cap = cfg.max_cost_per_sec.is_none_or(|cap| cost <= cap + TIE);
                        let penalized = bottleneck * pen;
                        let better = match best {
                            None => true,
                            Some((bb, bc)) => {
                                penalized < bb - TIE || ((penalized - bb).abs() <= TIE && cost < bc)
                            }
                        };
                        if within_cap && better {
                            best = Some((penalized, cost));
                            best_stages.clear();
                            best_stages.extend(assign.iter().enumerate().map(|(i, &k)| {
                                let (a, b) = stage_range(&cuts, l, i);
                                (a, b, sc.m[i], kinds[k].0)
                            }));
                        }
                    }
                }
                if !next_assignment(&mut assign, nk) {
                    break;
                }
            }
        }
        (best_stages, stats)
    }

    /// The walk's and the odometer's (stages, stats) on one pool.
    #[allow(clippy::too_many_arguments)]
    fn walk_and_odometer(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        counts: &BTreeMap<GpuKind, usize>,
        b0: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> [(Vec<StageAssignment>, SearchStats); 2] {
        let kinds = available(counts);
        let mut tables = StageTables::new(model, profile, b0, tm);
        tables.add_kinds(model, ctrl, profile, b0, lm, &kinds);
        let l = model.num_layers();
        [
            bottleneck_search(&kinds, &tables, l, cfg),
            odometer_bottleneck_search(&kinds, &tables, l, cfg),
        ]
    }

    /// The plain enumeration behind [`min_cost_for_goodput`], kept verbatim.
    #[allow(clippy::too_many_arguments)]
    fn reference_min_cost_plan(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        counts: &BTreeMap<GpuKind, usize>,
        b0: f64,
        target_goodput: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> Option<SplitPlan> {
        let kinds: Vec<(GpuKind, usize)> = counts
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(k, n)| (*k, *n))
            .collect();
        if kinds.is_empty() {
            return None;
        }
        let l = model.num_layers();
        let lambda = b0 / target_goodput;
        let mut best: Option<(f64, Vec<StageAssignment>)> = None;

        for cuts in boundary_sets(l, cfg.max_splits.max(1)) {
            let stages = stages_of(l, &cuts);
            let s = stages.len();
            let t1: Vec<Vec<f64>> = stages
                .iter()
                .map(|&(a, b)| {
                    kinds
                        .iter()
                        .map(|&(k, _)| {
                            stage_cost(model, ctrl, profile, a..b, b0, k, 1, lm)
                                .effective_time
                                .as_secs_f64()
                        })
                        .collect()
                })
                .collect();
            let tx_in: Vec<f64> = stages
                .iter()
                .enumerate()
                .map(|(i, &(a, _))| {
                    if i == 0 {
                        0.0
                    } else {
                        boundary_transfer_surviving(model, profile, a, b0, tm).as_secs_f64()
                    }
                })
                .collect();
            let mut assign = vec![0usize; s];
            loop {
                let mut feasible = true;
                let mut cost = 0.0;
                let mut per_kind_used = vec![0usize; kinds.len()];
                let mut stage_m = vec![0usize; s];
                for i in 0..s {
                    let ki = assign[i];
                    let need = (t1[i][ki].max(tx_in[i]) / lambda).ceil().max(1.0) as usize;
                    per_kind_used[ki] += need;
                    if per_kind_used[ki] > kinds[ki].1 {
                        feasible = false;
                        break;
                    }
                    stage_m[i] = need;
                    cost += need as f64 * kinds[ki].0.cost_per_sec();
                }
                if feasible {
                    let better = best.as_ref().is_none_or(|(bc, _)| cost < *bc);
                    if better {
                        let built: Vec<StageAssignment> = stages
                            .iter()
                            .enumerate()
                            .map(|(i, &(a, b))| (a, b, stage_m[i], kinds[assign[i]].0))
                            .collect();
                        best = Some((cost, built));
                    }
                }
                if !next_assignment(&mut assign, kinds.len()) {
                    break;
                }
            }
        }

        best.map(|(_, stages)| {
            build_plan_hetero(model, ctrl, profile, b0, tm, lm, cfg, &stages, true)
        })
    }

    fn stages_of(l: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
        let mut stages = Vec::with_capacity(cuts.len() + 1);
        let mut prev = 0;
        for &c in cuts {
            stages.push((prev, c));
            prev = c;
        }
        stages.push((prev, l));
        stages
    }

    fn reference_waterfill(work: &[f64], mut extra: usize) -> Vec<usize> {
        let mut m = vec![1usize; work.len()];
        while extra > 0 {
            let (i, _) = work
                .iter()
                .enumerate()
                .map(|(i, w)| (i, w / m[i] as f64))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("nonempty");
            m[i] += 1;
            extra -= 1;
        }
        m
    }

    /// A non-increasing survival profile for `l` layers from `u` in
    /// [0, 1) per layer. About a third of the layers lose nobody, so
    /// flat runs produce tied stage costs; rarely everyone exits, and
    /// the free stages past that point tie exactly.
    fn decoded_profile(u: &[f64], l: usize) -> BatchProfile {
        let mut surv = vec![1.0];
        for &x in &u[..l] {
            let last = surv[surv.len() - 1];
            surv.push(match x {
                x if x < 0.02 => 0.0,
                x if x < 0.3 => last,
                x => last * (0.5 + 0.5 * x),
            });
        }
        BatchProfile::new(surv)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn tabled_pruned_solvers_match_reference(
            model_idx in 0usize..3,
            u in proptest::collection::vec(0.0f64..1.0, 16),
            kind_idx in proptest::collection::btree_set(0usize..4, 1..4),
            gpus in proptest::collection::vec(1usize..17, 3),
            max_splits in 1usize..5,
            b0_idx in 0usize..4,
            overhead_idx in 0usize..2,
            cap_frac in 0.0f64..2.0,
            target_frac in 0.05f64..1.2,
        ) {
            let model = [zoo::deebert, zoo::distilbert_ee, zoo::branchy_resnet50][model_idx]();
            let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
            let (lm, tm) = (LatencyModel::new(), TransferModel::default());
            let profile = decoded_profile(&u, model.num_layers());
            let counts: BTreeMap<GpuKind, usize> = kind_idx
                .iter()
                .zip(&gpus)
                .map(|(&k, &n)| (GpuKind::ALL[k], n))
                .collect();
            let b0 = [1.0, 4.0, 8.0, 16.0][b0_idx];
            // Every plan occupies all GPUs of each kind it uses, so a cap
            // of at least the cheapest kind's full price keeps one plan
            // feasible. Half the cases run uncapped.
            let price = |(k, n): (&GpuKind, &usize)| *n as f64 * k.cost_per_sec();
            let cheapest = counts.iter().map(price).fold(f64::INFINITY, f64::min);
            let total: f64 = counts.iter().map(price).sum();
            let cfg = OptimizerConfig {
                max_splits,
                stage_overhead_frac: [0.0, 0.05][overhead_idx],
                max_cost_per_sec: (cap_frac >= 1.0)
                    .then_some(cheapest + (cap_frac - 1.0) * (total - cheapest)),
                ..Default::default()
            };

            let (fast, _) = optimize_heterogeneous_with_stats(
                &model, &ctrl, &profile, &counts, b0, &tm, &lm, &cfg,
            );
            let slow = reference_optimize_heterogeneous(
                &model, &ctrl, &profile, &counts, b0, &tm, &lm, &cfg,
            );
            prop_assert_eq!(&fast, &slow);
            let [walked, odometer] =
                walk_and_odometer(&model, &ctrl, &profile, &counts, b0, &tm, &lm, &cfg);
            prop_assert_eq!(walked, odometer);

            let target = slow.goodput * target_frac;
            prop_assert_eq!(
                min_cost_for_goodput(&model, &ctrl, &profile, &counts, b0, target, &tm, &lm, &cfg),
                reference_min_cost_plan(
                    &model, &ctrl, &profile, &counts, b0, target, &tm, &lm, &cfg
                )
            );
        }
    }

    /// The single-kind search against the homogeneous DP on one
    /// `(model, profile, kind, n, b0)` case: it answers the same
    /// question, so it must reach the DP's planned goodput (a tie may
    /// pick another plan of equal goodput).
    #[allow(clippy::too_many_arguments)]
    fn single_kind_plans(
        model: &EeModel,
        profile: &BatchProfile,
        kind: GpuKind,
        n: usize,
        b0: f64,
        cfg: &OptimizerConfig,
    ) -> (SplitPlan, SplitPlan) {
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let (lm, tm) = (LatencyModel::new(), TransferModel::default());
        let counts = BTreeMap::from([(kind, n)]);
        let (search, _) =
            optimize_heterogeneous_with_stats(model, &ctrl, profile, &counts, b0, &tm, &lm, cfg);
        let dp = optimize_homogeneous_cached(
            model,
            &ctrl,
            profile,
            kind,
            n,
            b0,
            &tm,
            &lm,
            cfg,
            &mut PlanCache::new(),
        );
        (search, dp)
    }

    #[test]
    fn transfer_bound_stage_gets_its_replicas() {
        // The transfer into stage 2 dominates its compute. Waterfilling on
        // compute alone starved that stage, so the search kept one stage
        // (29320/s) where the DP cuts at layer 8 with 22 + 7 replicas.
        let model = zoo::branchy_resnet50();
        let l = model.num_layers();
        let profile = BatchProfile::new((0..=l).map(|i| 0.85f64.powi(i as i32)).collect());
        let (search, dp) = single_kind_plans(
            &model,
            &profile,
            GpuKind::V100,
            29,
            8.0,
            &OptimizerConfig::default(),
        );
        let replicas: Vec<usize> = dp.splits.iter().map(|s| s.replicas).collect();
        assert_eq!(replicas, [22, 7], "{dp}");
        assert_eq!(dp.boundaries(), [8]);
        assert!((dp.goodput - 34877.0).abs() < 1.0, "{}", dp.goodput);
        assert_eq!(search, dp);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn single_kind_search_matches_the_dp(
            model_idx in 0usize..3,
            u in proptest::collection::vec(0.0f64..1.0, 16),
            kind_idx in 0usize..4,
            n in 1usize..30,
            b0_idx in 0usize..4,
            overhead_idx in 0usize..3,
            memory_idx in 0usize..2,
        ) {
            let model = [zoo::deebert, zoo::distilbert_ee, zoo::branchy_resnet50][model_idx]();
            let profile = decoded_profile(&u, model.num_layers());
            let cfg = OptimizerConfig {
                stage_overhead_frac: [0.0, 0.05, 0.1][overhead_idx],
                enforce_memory: memory_idx == 1,
                ..Default::default()
            };
            let b0 = [1.0, 4.0, 8.0, 32.0][b0_idx];
            let (search, dp) =
                single_kind_plans(&model, &profile, GpuKind::ALL[kind_idx], n, b0, &cfg);
            prop_assert!(
                (search.goodput - dp.goodput).abs() <= 1e-9 * dp.goodput,
                "search {} vs dp {}",
                search,
                dp
            );
        }
    }
}
