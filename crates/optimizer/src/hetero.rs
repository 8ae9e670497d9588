//! The split search (§3.2, §3.2.3, fig. 6): the one pipelined solver.
//!
//! The paper's final formulation lets every split choose a GPU
//! configuration, constrained so a split's replicas share one kind; a
//! single-kind pool is the case with one kind to choose. A literal DP
//! over the 4-dimensional GPU-count vector is exact but needlessly
//! large; because the number of useful splits is tiny (the paper's
//! deployments cut once or twice), we solve the same optimum by:
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
//!   `t1[a][b]` come from `fill_t1`, which reads `INF` for a range that
//!   overflows the device when `enforce_memory` is on, and `tx[a]` holds
//!   the surviving-batch transfer entering a stage that starts at layer
//!   `a`. `fill_t1` fills row `a` from one `StageWalk` that grows the
//!   stage a layer at a time, pricing and memory-checking every end
//!   layer as it goes, so a table costs O(L²) layer visits; it is the
//!   same walk that prices a lone range. A cold solve builds the tables
//!   once; [`crate::ValueOracle`] builds them once per planning context
//!   and shares them across every subset it solves.
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
//!   subtree with no feasible leaf. A node carries its bound as a
//!   running max: placing a stage changes only its kind's term, which
//!   only grows. A set whose stages cannot fit the GPU counts in any
//!   assignment (`F(s) = 0` below; on a small pool, most sets) is not
//!   walked at all.
//!
//! Memory is a first-class dimension: a stage that does not fit its kind
//! has an infinite bound, so no plan that overflows a GPU can displace
//! one that fits. When no plan fits at all, the solve repeats on
//! unmasked tables and returns the best-effort plan.
//!
//! Plans are bit-identical to the plain enumeration (which has no memory
//! rule; on pools where every stage fits, masking changes nothing). The
//! tables hold the values it recomputed on every visit, bit for bit: a
//! row walk's batch times are integer nanoseconds and its other sums run
//! in layer order. Boundary sets are visited in the same order, and the
//! walk reaches leaves in the order of the plain
//! enumeration's odometer (stage 0's kind turns fastest), so first-found
//! tie-breaks hold; waterfilling keeps `max_by`'s last-maximum tie-break
//! and the same cost summation order. IEEE rounding is monotone, so a
//! bound as computed never exceeds the bottleneck as computed. Nothing is
//! evaluated inside a cut subtree, so the incumbent cannot change there,
//! and every leaf the cut skips is one that an assignment-by-assignment
//! bound would also have skipped against the same incumbent. The
//! search's trajectory is unchanged and so are its [`SearchStats`]:
//! every leaf that fits the GPU counts is either evaluated or inside a
//! cut, so a walked set of `s` stages adds `F(s)` minus the leaves it
//! evaluated to `pruned`, where `F(s)`, the assignments of `s` stages
//! that fit the counts, is computed once per solve.
//! The plain enumeration, the assignment-by-assignment odometer, the
//! linear-scan homogeneous DP and an exhaustive oracle over replica
//! vectors survive as `#[cfg(test)]` references that property tests
//! compare plans and statistics against.
//!
//! The same machinery answers the cost question of §5.3: given a target
//! goodput, each stage needs `ceil(t_eff / λ*)` replicas where
//! `λ* = b0 / goodput`, and we take the cheapest feasible assignment.
//! Its walk cuts a subtree whose assigned stages already oversubscribe a
//! kind or cost at least the incumbent: every further stage adds need
//! and at least one replica's price, far above the rounding of either
//! sum. At a leaf the same test is the plain enumeration's. A stage that
//! does not fit its kind needs more replicas than any pool holds, so
//! under `enforce_memory` the cheapest plan always fits.

use std::collections::BTreeMap;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{BatchProfile, EeModel, RampController};
use e3_simcore::SimDuration;

use crate::config::OptimizerConfig;
use crate::plan::{Split, SplitPlan};
use crate::stage::{boundary_transfer_surviving, stage_cost, StageWalk};

/// One assigned stage: (start layer, end layer, replicas, GPU kind).
pub(crate) type StageAssignment = (usize, usize, usize, GpuKind);

/// Tolerance within which two penalized bottlenecks tie (and are
/// compared by cost), and by which a plan may exceed the cost cap.
const TIE: f64 = 1e-12;

/// How much of the kind-assignment space one solve walked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Kind assignments in the search space: `|kinds|^stages`, summed
    /// over every boundary set.
    pub assignments: u64,
    /// Of those, the ones the lower bound ruled out before waterfilling.
    pub pruned: u64,
}

/// The per-range one-replica stage table of one GPU kind: `t1[s][j]` is
/// the survival-weighted batch time of layers `s..j` on one replica,
/// `INF` where the range overflows device memory (when `check_memory`).
/// Row `s` comes from one `StageWalk` from layer `s`, which prices each
/// `j` as it grows, so a table costs O(L²) layer visits, not O(L³).
pub(crate) fn fill_t1(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    gpu: GpuKind,
    b0: f64,
    lm: &LatencyModel,
    check_memory: bool,
) -> Vec<Vec<f64>> {
    let l = model.num_layers();
    let mut t1 = vec![vec![f64::INFINITY; l + 1]; l + 1];
    for (s, row) in t1.iter_mut().enumerate().take(l) {
        let mut stage = StageWalk::new(model, ctrl, profile, s, b0, gpu, lm);
        for t in &mut row[s + 1..] {
            stage.extend();
            if !check_memory || stage.fits() {
                *t = stage.cost(1).effective_time.as_secs_f64();
            }
        }
    }
    t1
}

/// The one-replica stage costs of one planning context (model, ramps,
/// profile, batch, transfer model, memory rule): everything the split
/// search reads.
pub(crate) struct StageTables {
    /// `tx[a]`: the surviving-batch transfer entering a stage that starts
    /// at layer `a`; zero for `a = 0`, which nothing transfers into.
    tx: Vec<f64>,
    /// Whether ranges that overflow their device read `INF`.
    check_memory: bool,
    /// Per kind, `t1[a][b]` from [`fill_t1`].
    t1: Vec<(GpuKind, Vec<Vec<f64>>)>,
}

impl StageTables {
    /// Tables with the transfer vector filled and no kinds yet.
    pub(crate) fn new(
        model: &EeModel,
        profile: &BatchProfile,
        b0: f64,
        tm: &TransferModel,
        check_memory: bool,
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
        StageTables {
            tx,
            check_memory,
            t1: Vec::new(),
        }
    }

    /// Fills the table of each kind in `kinds` that has none yet.
    pub(crate) fn add_kinds(
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
                let t1 = fill_t1(model, ctrl, profile, kind, b0, lm, self.check_memory);
                self.t1.push((kind, t1));
            }
        }
    }

    pub(crate) fn t1(&self, kind: GpuKind) -> &[Vec<f64>] {
        self.t1
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t1)| t1.as_slice())
            .expect("a table for every searched kind")
    }

    /// The transfer entering a stage that starts at layer `a`.
    pub(crate) fn tx(&self, a: usize) -> f64 {
        self.tx[a]
    }
}

/// Assembles a [`SplitPlan`] from `(start, end, replicas, gpu)` stages:
/// pipelined stages overlap (the cycle is the slowest stage or link,
/// transfers amortized over the receiving stage's replicas), serial ones
/// run back to back (the cycle is their sum).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_plan(
    model: &EeModel,
    ctrl: &RampController,
    profile: &BatchProfile,
    b0: f64,
    tm: &TransferModel,
    lm: &LatencyModel,
    stages: &[StageAssignment],
    pipelined: bool,
) -> SplitPlan {
    let mut splits = Vec::with_capacity(stages.len());
    // Per-cycle effective transfer cost at each boundary (amortized over
    // the receiving stage's replicas when pipelined) and the raw one-batch
    // transfer time (what one request actually experiences on the wire).
    let mut transfers = Vec::new();
    let mut raw_transfers = Vec::new();
    for (idx, &(s, j, m, gpu)) in stages.iter().enumerate() {
        let sc = stage_cost(model, ctrl, profile, s..j, b0, gpu, m, lm);
        if idx > 0 {
            let raw = boundary_transfer_surviving(model, profile, s, b0, tm);
            raw_transfers.push(raw);
            let effective = if pipelined {
                raw.mul_f64(1.0 / m as f64)
            } else {
                raw
            };
            transfers.push(effective);
        }
        splits.push(Split {
            layers: s..j,
            gpu,
            replicas: m,
            batch: b0,
            batch_out: sc.batch_out,
            batch_time: sc.batch_time,
            effective_time: sc.effective_time,
        });
    }
    let cycle_time = if pipelined {
        splits
            .iter()
            .map(|s| s.effective_time)
            .chain(transfers.iter().copied())
            .fold(SimDuration::ZERO, SimDuration::max)
    } else {
        splits
            .iter()
            .map(|s| s.effective_time)
            .chain(transfers.iter().copied())
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    };
    // Worst-case end-to-end latency: the serial path of one batch through
    // every stage and link, plus up to one cycle of queueing per stage
    // boundary (refusion wait / in-flight batch). Batch formation is not
    // charged: closed-loop batches form at once.
    let serial_path = splits
        .iter()
        .map(|s| s.batch_time)
        .chain(raw_transfers.iter().copied())
        .fold(SimDuration::ZERO, |acc, d| acc + d);
    let worst_case_latency = serial_path + cycle_time.mul_f64(splits.len() as f64);
    // Goodput is b0 per cycle in both modes: effective times are already
    // survival-weighted and replica-shared, so the serial sum equals the
    // per-GPU batch time divided by the data-parallel width.
    let goodput = if cycle_time.is_zero() {
        0.0
    } else {
        b0 / cycle_time.as_secs_f64()
    };
    let plan = SplitPlan {
        splits,
        transfers,
        cycle_time,
        worst_case_latency,
        goodput,
        pipelined,
    };
    plan.assert_valid(model.num_layers());
    plan
}

/// Calls `f` on every boundary set: sorted interior cut positions in
/// `1..l`, with at most `max_stages - 1` cuts, in lexicographic
/// pre-order from the empty set (1 stage). One buffer holds every set.
pub(crate) fn for_each_boundary_set(l: usize, max_stages: usize, mut f: impl FnMut(&[usize])) {
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
pub(crate) fn stage_range(cuts: &[usize], l: usize, i: usize) -> (usize, usize) {
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

/// `F[s]` for `s` up to `max_stages`: the kind assignments of `s`
/// stages that keep every kind within its GPUs. Kinds are added one at a
/// time: `c` of `s` stages take the new kind in C(s, c) ways, within its
/// count.
fn feasible_assignments(kinds: &[(GpuKind, usize)], max_stages: usize) -> Vec<u64> {
    let mut choose = vec![vec![0u64; max_stages + 1]; max_stages + 1];
    for n in 0..=max_stages {
        choose[n][0] = 1;
        for c in 1..=n {
            choose[n][c] = choose[n - 1][c - 1] + choose[n - 1][c];
        }
    }
    let mut ways = vec![0u64; max_stages + 1];
    ways[0] = 1;
    for &(_, avail) in kinds {
        // Descending s, so ways[s - c] still counts the earlier kinds.
        for s in (0..=max_stages).rev() {
            ways[s] = (0..=s.min(avail)).map(|c| choose[s][c] * ways[s - c]).sum();
        }
    }
    ways
}

/// The pool's kinds with at least one GPU, in `GpuKind` order.
pub(crate) fn available(counts: &BTreeMap<GpuKind, usize>) -> Vec<(GpuKind, usize)> {
    counts
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(k, n)| (*k, *n))
        .collect()
}

/// The goodput-best pipelined plan on the nonzero per-kind counts
/// `kinds`: the least penalized bottleneck, ties broken by lower cost,
/// then by first found. Reads (and extends) `tables`, which must have
/// been built for the same model, profile, batch and transfers. When
/// `tables` mask memory and no plan fits, it repeats the search on
/// unmasked tables (best effort). Also returns how many kind assignments
/// the search space held and how many of them the lower bound pruned.
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
    assert_eq!(profile.num_layers(), model.num_layers(), "profile mismatch");

    let l = model.num_layers();
    tables.add_kinds(model, ctrl, profile, b0, lm, kinds);
    let (mut stages, mut stats) = bottleneck_search(kinds, tables, l, cfg);
    if stages.is_none() && tables.check_memory {
        let mut unmasked = StageTables::new(model, profile, b0, tm, false);
        unmasked.add_kinds(model, ctrl, profile, b0, lm, kinds);
        (stages, stats) = bottleneck_search(kinds, &unmasked, l, cfg);
    }
    let stages = stages.expect("at least the single-stage plan is feasible");
    let plan = build_plan(model, ctrl, profile, b0, tm, lm, &stages, true);
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
/// stages sit on it and the largest `max(t1, tx)` among them, and the
/// bound over every kind.
///
/// A stage sharing kind `k` with `n − 1` others holds at most
/// `avail_k − n + 1` replicas, and all of them share that cap. Division
/// by one cap is monotone, so kind `k`'s term is exactly the maximum
/// over its assigned stages of `max(t1, tx) / cap`, and the bound is the
/// largest term. More stages only shrink caps and add terms, so no leaf
/// below a node bounds lower than it.
#[derive(Clone, Copy, Default)]
struct Placed {
    on_kind: [usize; KINDS],
    top: [f64; KINDS],
    bound: f64,
}

impl Placed {
    /// Places a stage whose `max(t1, tx)` is `x` on kind `k` with `avail`
    /// GPUs. Returns the bound over the placed stages, or `None` if the
    /// kind has no GPU left for it. Only kind `k`'s term changes, and its
    /// top can only grow and its cap only shrink, so the new term is at
    /// least the old one and a running max over the parent's bound is
    /// exactly the max over every term.
    fn place(&mut self, k: usize, avail: usize, x: f64) -> Option<f64> {
        self.on_kind[k] += 1;
        if self.on_kind[k] > avail {
            return None;
        }
        self.top[k] = self.top[k].max(x);
        self.bound = self
            .bound
            .max(self.top[k] / (avail - self.on_kind[k] + 1) as f64);
        Some(self.bound)
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
/// bottleneck, ties broken by lower cost, then by first found. `None`
/// when no plan within the cost cap has a finite bottleneck, that is,
/// every such plan holds a stage that does not fit its kind.
fn bottleneck_search(
    kinds: &[(GpuKind, usize)],
    tables: &StageTables,
    l: usize,
    cfg: &OptimizerConfig,
) -> (Option<Vec<StageAssignment>>, SearchStats) {
    let nk = kinds.len();
    assert!(nk <= KINDS, "kinds are distinct");
    let t1: Vec<&[Vec<f64>]> = kinds.iter().map(|&(k, _)| tables.t1(k)).collect();
    let max_stages = cfg.max_splits.max(1);
    let mut sc = Scratch::new(nk, max_stages);
    let mut assign = vec![0usize; max_stages];
    let mut stats = SearchStats::default();
    let feasible = feasible_assignments(kinds, max_stages);
    // The incumbent's (penalized bottleneck, cost) and stages.
    let mut best: Option<(f64, f64)> = None;
    let mut best_stages = Vec::new();

    for_each_boundary_set(l, max_stages, |cuts| {
        let s = cuts.len() + 1;
        // The realization penalty per extra stage (see
        // OptimizerConfig::stage_overhead_frac).
        let pen = 1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0);
        let space = (nk as u64).pow(s as u32);
        stats.assignments += space;
        if cannot_win(best, sc.load(cuts, l, kinds, &t1, &tables.tx), pen) {
            stats.pruned += space;
            return;
        }
        // With more stages than GPUs no leaf fits the counts.
        if feasible[s] == 0 {
            return;
        }
        let mut evaluated = 0;
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
                    return false;
                }
                if i > 0 {
                    return true;
                }
                evaluated += 1;
                let (bottleneck, cost) = sc.allocate(kinds, assign, &placed.on_kind);
                let penalized = bottleneck * pen;
                let better = match best {
                    None => true,
                    Some((bb, bc)) => {
                        penalized < bb - TIE || ((penalized - bb).abs() <= TIE && cost < bc)
                    }
                };
                if better {
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
        // Every leaf the counts admit was either evaluated or sits in a
        // cut subtree.
        stats.pruned += feasible[s] - evaluated;
    });

    let found = best.is_some_and(|(bb, _)| bb.is_finite());
    (found.then_some(best_stages), stats)
}

/// Minimizes dollar cost subject to a goodput target on a heterogeneous
/// pool (fig. 15). Returns `None` when the target is unreachable even
/// using every GPU, counting under `enforce_memory` only plans that fit:
/// there is no best-effort fallback here, since `None` already says no
/// plan meets the target.
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
    let mut tables = StageTables::new(model, profile, b0, tm, cfg.enforce_memory);
    tables.add_kinds(model, ctrl, profile, b0, lm, &kinds);
    let lambda = b0 / target_goodput; // required bottleneck in seconds
    let stages = cost_search(&kinds, &tables, model.num_layers(), lambda, cfg)?;
    Some(build_plan(model, ctrl, profile, b0, tm, lm, &stages, true))
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
                // An overflowing stage's infinite time saturates its need.
                used[k] = used[k].saturating_add(n);
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
    use crate::auto::optimize_heterogeneous_with_stats;
    use crate::stage::stage_fits;
    use crate::stage::tests::{reference_stage_cost, reference_stage_fits};
    use e3_model::builder::EeModelBuilder;
    use e3_model::{zoo, RampStyle, Task};
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

    /// A profile shaped like the measured SST-2 shrinkage (fig. 3): half
    /// the batch gone shortly after mid-model, ~10% finishing the model.
    fn measured_sst2() -> BatchProfile {
        BatchProfile::new(vec![
            1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
        ])
    }

    /// The plan for the pool `counts`, every ramp enabled.
    fn plan_on(
        model: &EeModel,
        profile: &BatchProfile,
        counts: &[(GpuKind, usize)],
        b0: f64,
        cfg: &OptimizerConfig,
    ) -> SplitPlan {
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let (lm, tm) = (LatencyModel::new(), TransferModel::default());
        let counts = counts.iter().copied().collect();
        optimize_heterogeneous_with_stats(model, &ctrl, profile, &counts, b0, &tm, &lm, cfg).0
    }

    #[test]
    fn stock_model_yields_single_split() {
        let stock = zoo::bert_base();
        let profile = BatchProfile::no_exits(12);
        let plan = plan_on(
            &stock,
            &profile,
            &[(GpuKind::V100, 16)],
            8.0,
            &Default::default(),
        );
        assert_eq!(plan.num_splits(), 1, "{plan}");
        assert_eq!(plan.gpus_used(), 16);
        // fig. 7 anchor: ~6400 samples/s for BERT-BASE b=8 on 16 V100.
        assert!(
            (5800.0..7200.0).contains(&plan.goodput),
            "goodput={}",
            plan.goodput
        );
    }

    #[test]
    fn ee_profile_induces_multiple_splits() {
        let m = zoo::deebert();
        let v100 = [(GpuKind::V100, 16)];
        let plan = plan_on(&m, &measured_sst2(), &v100, 8.0, &Default::default());
        assert!(plan.num_splits() >= 2, "{plan}");
        // Early splits should hold at least as many replicas as late ones
        // (they process full batches; later stages see half the work).
        let first = &plan.splits[0];
        let last = plan.splits.last().expect("nonempty");
        assert!(first.replicas >= last.replicas, "{plan}");
    }

    #[test]
    fn e3_beats_stock_on_ee_profile() {
        let v100 = [(GpuKind::V100, 16)];
        let cfg = OptimizerConfig::default();
        let plan = plan_on(&zoo::deebert(), &measured_sst2(), &v100, 8.0, &cfg);
        let stock_plan = plan_on(
            &zoo::bert_base(),
            &BatchProfile::no_exits(12),
            &v100,
            8.0,
            &cfg,
        );
        assert!(
            plan.goodput > stock_plan.goodput,
            "E3 {} vs stock {}",
            plan.goodput,
            stock_plan.goodput
        );
    }

    #[test]
    fn single_gpu_single_split() {
        let m = zoo::deebert();
        let plan = plan_on(
            &m,
            &measured_sst2(),
            &[(GpuKind::V100, 1)],
            4.0,
            &Default::default(),
        );
        assert_eq!(plan.num_splits(), 1);
        assert_eq!(plan.gpus_used(), 1);
    }

    #[test]
    fn max_splits_respected() {
        let m = zoo::deebert();
        for k in 1..=3 {
            let cfg = OptimizerConfig {
                max_splits: k,
                ..Default::default()
            };
            let plan = plan_on(&m, &measured_sst2(), &[(GpuKind::V100, 16)], 8.0, &cfg);
            assert!(plan.num_splits() <= k, "k={k} {plan}");
        }
    }

    #[test]
    fn goodput_monotone_in_gpus() {
        let m = zoo::deebert();
        let mut prev = 0.0;
        for g in [2usize, 4, 8, 16] {
            let plan = plan_on(
                &m,
                &measured_sst2(),
                &[(GpuKind::V100, g)],
                8.0,
                &Default::default(),
            );
            assert!(
                plan.goodput >= prev,
                "goodput dropped at g={g}: {} < {prev}",
                plan.goodput
            );
            prev = plan.goodput;
        }
    }

    #[test]
    fn worst_case_latency_grows_with_batch() {
        let m = zoo::deebert();
        let wc = |b: f64| {
            plan_on(
                &m,
                &measured_sst2(),
                &[(GpuKind::V100, 16)],
                b,
                &Default::default(),
            )
            .worst_case_latency
        };
        assert!(wc(16.0) > wc(4.0));
    }

    /// Llama-3.1-8B with no exits, and the default config with memory
    /// enforced and without.
    fn llama() -> (EeModel, BatchProfile, OptimizerConfig, OptimizerConfig) {
        let m = zoo::llama31_8b();
        let profile = BatchProfile::no_exits(m.num_layers());
        let cfg = OptimizerConfig::default();
        let free = OptimizerConfig {
            enforce_memory: false,
            ..cfg
        };
        (m, profile, cfg, free)
    }

    #[test]
    fn memory_constraint_forces_extra_splits() {
        // Llama-class weights (~4.4 GB fp16) plus double-buffered 4 MiB
        // activations at b=1000 overflow a 12 GiB K80 as one stage, but
        // halves fit. With memory enforced the search must cut the model;
        // unconstrained it happily keeps one (infeasible) split.
        let (m, profile, cfg, free) = llama();
        let k80 = [(GpuKind::K80, 4)];
        let constrained = plan_on(&m, &profile, &k80, 1000.0, &cfg);
        let unconstrained = plan_on(&m, &profile, &k80, 1000.0, &free);
        assert!(
            constrained.memory_feasible(&m),
            "constrained plan must fit: {constrained}"
        );
        assert!(
            !unconstrained.memory_feasible(&m),
            "sanity: the unconstrained plan should overflow: {unconstrained}"
        );
        assert!(
            constrained.num_splits() > unconstrained.num_splits(),
            "memory should force cuts: {constrained} vs {unconstrained}"
        );
    }

    #[test]
    fn memory_infeasible_everywhere_falls_back() {
        // At b=3000 the double-buffered activations alone (~25 GB) exceed
        // the K80's, the P100's and the V100's budgets for every layer
        // range, so no feasible plan exists; the search must fall back to
        // the unconstrained plan rather than panic or return nothing, on
        // a single-kind pool and on a mixed one.
        let (m, profile, cfg, free) = llama();
        for pool in [
            &[(GpuKind::K80, 4)][..],
            &[(GpuKind::V100, 1), (GpuKind::P100, 2), (GpuKind::K80, 3)],
        ] {
            let fallback = plan_on(&m, &profile, pool, 3000.0, &cfg);
            assert!(!fallback.memory_feasible(&m), "{fallback}");
            assert_eq!(fallback, plan_on(&m, &profile, pool, 3000.0, &free));
        }
    }

    #[test]
    fn mixed_pool_plan_fits_memory() {
        // On one A6000 and one V100 at b=2000, running layers 0..11 on the
        // V100 and the rest on the A6000 would reach 253/s, but that
        // stage overflows the V100. The best plan that fits keeps the
        // whole model on the A6000.
        let (m, profile, cfg, free) = llama();
        let pool = [(GpuKind::A6000, 1), (GpuKind::V100, 1)];
        let plan = plan_on(&m, &profile, &pool, 2000.0, &cfg);
        assert!(plan.memory_feasible(&m), "{plan}");
        assert_eq!(plan.num_splits(), 1, "{plan}");
        assert_eq!(plan.splits[0].gpu, GpuKind::A6000);
        assert!((165.0..167.0).contains(&plan.goodput), "{plan}");
        let overflowing = plan_on(&m, &profile, &pool, 2000.0, &free);
        assert!(!overflowing.memory_feasible(&m), "{overflowing}");
        assert_eq!(overflowing.splits[0].layers, 0..11);
        assert_eq!(overflowing.splits[0].gpu, GpuKind::V100);
        assert!(
            (252.0..254.0).contains(&overflowing.goodput),
            "{overflowing}"
        );
    }

    #[test]
    fn min_cost_plans_fit_memory() {
        // Unmasked, the cheapest way to 50/s is the whole model on the
        // V100, which overflows it, and 200/s takes the overflowing
        // 0..6 stage on the V100. With memory enforced, 50/s costs the
        // A6000 and 200/s is out of reach.
        let (m, profile, cfg, free) = llama();
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let (lm, tm) = (LatencyModel::new(), TransferModel::default());
        let pool = BTreeMap::from([(GpuKind::A6000, 1), (GpuKind::V100, 1)]);
        let min_cost = |b0, target, cfg: &OptimizerConfig| {
            min_cost_for_goodput(&m, &ctrl, &profile, &pool, b0, target, &tm, &lm, cfg)
        };
        let cheap = min_cost(2000.0, 50.0, &free).expect("reachable unmasked");
        assert!(!cheap.memory_feasible(&m), "{cheap}");
        assert!(min_cost(2000.0, 200.0, &free).is_some());
        assert!(min_cost(2000.0, 200.0, &cfg).is_none());
        for b0 in [500.0, 1000.0, 2000.0, 3000.0] {
            for target in [25.0, 50.0, 100.0, 150.0, 200.0, 250.0, 400.0] {
                if let Some(plan) = min_cost(b0, target, &cfg) {
                    assert!(plan.memory_feasible(&m), "b0 {b0} target {target}: {plan}");
                    assert!(plan.goodput >= target * (1.0 - 1e-9), "{plan}");
                }
            }
        }
        let plan = min_cost(2000.0, 50.0, &cfg).expect("the A6000 reaches 166/s");
        assert_eq!(plan.splits[0].gpu, GpuKind::A6000);
    }

    #[test]
    fn ties_go_to_the_first_boundary_set() {
        // Five identical layers, no exits, on three V100s. Two layers fit
        // one V100 and three do not, so every plan that fits has three
        // stages of at most two layers, one replica each: cuts [1, 3],
        // [2, 3] and [2, 4]. Each plan's bottleneck is one two-layer
        // stage, so they tie exactly. On one kind every plan occupies
        // every GPU, so they cost the same too, and the search keeps the
        // first it found in boundary-set order.
        let model = EeModelBuilder::new("tied", Task::Classification { num_classes: 2 })
            .uniform_layers(5, 60_000.0, 10.0, 4096)
            .build()
            .expect("valid model");
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let profile = BatchProfile::no_exits(5);
        let (lm, tm) = (LatencyModel::new(), TransferModel::default());
        let cfg = OptimizerConfig::default();
        assert!(stage_fits(&model, 0..2, 8.0, GpuKind::V100));
        assert!(!stage_fits(&model, 0..3, 8.0, GpuKind::V100));
        let plan = plan_on(&model, &profile, &[(GpuKind::V100, 3)], 8.0, &cfg);
        assert_eq!(plan.boundaries(), [1, 3], "{plan}");
        let tied: Vec<SplitPlan> = [[1, 3], [2, 3], [2, 4]]
            .iter()
            .map(|cuts| {
                let stages: Vec<StageAssignment> = (0..3)
                    .map(|i| {
                        let (a, b) = stage_range(cuts, 5, i);
                        (a, b, 1, GpuKind::V100)
                    })
                    .collect();
                build_plan(&model, &ctrl, &profile, 8.0, &tm, &lm, &stages, true)
            })
            .collect();
        assert_eq!(plan, tied[0]);
        for other in &tied[1..] {
            assert_eq!(other.cycle_time, plan.cycle_time, "{other}");
            assert_eq!(other.cost_per_sec(), plan.cost_per_sec(), "{other}");
        }
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
        // F(s) against a brute-force count of every assignment of s
        // stages, on pools with fewer GPUs than stages and more.
        let max_stages = 6;
        for kinds in [
            &[
                (GpuKind::A6000, 1),
                (GpuKind::V100, 2),
                (GpuKind::P100, 1),
                (GpuKind::K80, 3),
            ][..],
            &[(GpuKind::V100, 1), (GpuKind::K80, 1)],
            &[(GpuKind::K80, 4)],
            &[(GpuKind::V100, 6), (GpuKind::P100, 8), (GpuKind::K80, 15)],
        ] {
            let feasible = feasible_assignments(kinds, max_stages);
            assert_eq!(feasible.len(), max_stages + 1);
            for (s, &count) in feasible.iter().enumerate() {
                let mut brute = 0;
                let mut assign = vec![0; s];
                loop {
                    let mut n = [0; KINDS];
                    assign.iter().for_each(|&k| n[k] += 1);
                    brute += u64::from(n.iter().zip(kinds).all(|(n, (_, a))| n <= a));
                    if !next_assignment(&mut assign, kinds.len()) {
                        break;
                    }
                }
                assert_eq!(count, brute, "{kinds:?} {s} stages");
            }
        }
    }

    /// [`fill_t1`] as it was before the row walk: every range priced on
    /// its own by the per-range references.
    fn reference_fill_t1(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        gpu: GpuKind,
        b0: f64,
        lm: &LatencyModel,
        check_memory: bool,
    ) -> Vec<Vec<f64>> {
        let l = model.num_layers();
        let mut t1 = vec![vec![f64::INFINITY; l + 1]; l + 1];
        for (s, row) in t1.iter_mut().enumerate().take(l) {
            for (j, t) in row.iter_mut().enumerate().skip(s + 1) {
                if check_memory && !reference_stage_fits(model, s..j, b0, gpu) {
                    continue;
                }
                let sc = reference_stage_cost(model, ctrl, profile, s..j, b0, gpu, 1, lm);
                *t = sc.effective_time.as_secs_f64();
            }
        }
        t1
    }

    #[test]
    fn row_filled_tables_match_the_per_range_reference() {
        let lm = LatencyModel::new();
        let cost_bits = |sc: crate::stage::StageCost| {
            [
                sc.batch_time.as_secs_f64(),
                sc.effective_time.as_secs_f64(),
                sc.batch_out,
            ]
            .map(f64::to_bits)
        };
        let bits =
            |t: &[Vec<f64>]| -> Vec<u64> { t.iter().flatten().map(|x| x.to_bits()).collect() };
        for model in [zoo::deebert(), zoo::llama31_8b(), zoo::calm_t5()] {
            let l = model.num_layers();
            let all = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
            let mut some = all.clone();
            some.keep_only(&[0, model.num_ramps() / 2]);
            let profiles = [
                BatchProfile::no_exits(l),
                BatchProfile::new((0..=l).map(|k| 0.85f64.powi(k as i32)).collect()),
                // Everyone has exited by mid-model, so the rows that start
                // past it have s_in = 0, and the ranges that reach it end
                // on an empty batch.
                BatchProfile::new(
                    (0..=l)
                        .map(|k| (1.0 - 2.0 * k as f64 / l as f64).max(0.0))
                        .collect(),
                ),
            ];
            for (ctrl, profile) in [&all, &some]
                .into_iter()
                .flat_map(|c| profiles.iter().map(move |p| (c, p)))
            {
                // At b=1000 Llama's long ranges overflow the smaller
                // kinds; at b=30000 CALM's ranges that hold an encoder
                // layer overflow them, while its decoder layers, whose
                // activations are 128x narrower, still fit.
                for (gpu, b0) in GpuKind::ALL
                    .into_iter()
                    .flat_map(|g| [1.0, 8.0, 1000.0, 30_000.0].map(|b| (g, b)))
                {
                    for check_memory in [false, true] {
                        let rows = fill_t1(&model, ctrl, profile, gpu, b0, &lm, check_memory);
                        let reference =
                            reference_fill_t1(&model, ctrl, profile, gpu, b0, &lm, check_memory);
                        assert_eq!(
                            bits(&rows),
                            bits(&reference),
                            "{} {gpu:?} b0 {b0} memory {check_memory}",
                            model.name()
                        );
                    }
                    // A lone range is priced by the same walk: every field
                    // of its cost, on more than one replica, and its fit.
                    for (a, b) in (0..l).flat_map(|a| (a + 1..=l).map(move |b| (a, b))) {
                        let sc = stage_cost(&model, ctrl, profile, a..b, b0, gpu, 3, &lm);
                        let reference =
                            reference_stage_cost(&model, ctrl, profile, a..b, b0, gpu, 3, &lm);
                        assert_eq!(cost_bits(sc), cost_bits(reference), "{a}..{b}");
                        assert_eq!(
                            stage_fits(&model, a..b, b0, gpu),
                            reference_stage_fits(&model, a..b, b0, gpu)
                        );
                    }
                }
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
        let v100 = BTreeMap::from([(GpuKind::V100, 6)]);
        let v100_only =
            optimize_heterogeneous_with_stats(&m, &c, &profile, &v100, 8.0, &tm, &lm, &cfg).0;
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
        let homo = reference_pipelined(
            &m,
            &c,
            &half_by_six(),
            GpuKind::V100,
            16,
            8.0,
            &tm,
            &lm,
            &cfg,
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
        assert!(cfg.pipelining, "the reference plans pipelines");

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
        build_plan(model, ctrl, profile, b0, tm, lm, &stages, true)
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
    ) -> (Option<Vec<StageAssignment>>, SearchStats) {
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
                        let penalized = bottleneck * pen;
                        let better = match best {
                            None => true,
                            Some((bb, bc)) => {
                                penalized < bb - TIE || ((penalized - bb).abs() <= TIE && cost < bc)
                            }
                        };
                        if better {
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
        let found = best.is_some_and(|(bb, _)| bb.is_finite());
        (found.then_some(best_stages), stats)
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
    ) -> [(Option<Vec<StageAssignment>>, SearchStats); 2] {
        let kinds = available(counts);
        let mut tables = StageTables::new(model, profile, b0, tm, cfg.enforce_memory);
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

        best.map(|(_, stages)| build_plan(model, ctrl, profile, b0, tm, lm, &stages, true))
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
            small_pool in 0usize..2,
            max_splits in 1usize..5,
            b0_idx in 0usize..4,
            overhead_idx in 0usize..2,
            target_frac in 0.05f64..1.2,
        ) {
            let model = [zoo::deebert, zoo::distilbert_ee, zoo::branchy_resnet50][model_idx]();
            let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
            let (lm, tm) = (LatencyModel::new(), TransferModel::default());
            let profile = decoded_profile(&u, model.num_layers());
            // Half the pools hold 1-16 GPUs of each kind; the other half
            // 1-3 GPUs in all, fewer than the deepest boundary sets'
            // stages, one of each kind but the first.
            let counts: BTreeMap<GpuKind, usize> = if small_pool == 1 {
                let total = 1 + gpus[0] % 3;
                let kinds = kind_idx.len().min(total);
                kind_idx
                    .iter()
                    .take(kinds)
                    .enumerate()
                    .map(|(i, &k)| (GpuKind::ALL[k], if i == 0 { total + 1 - kinds } else { 1 }))
                    .collect()
            } else {
                kind_idx
                    .iter()
                    .zip(&gpus)
                    .map(|(&k, &n)| (GpuKind::ALL[k], n))
                    .collect()
            };
            let b0 = [1.0, 4.0, 8.0, 16.0][b0_idx];
            let cfg = OptimizerConfig {
                max_splits,
                stage_overhead_frac: [0.0, 0.05][overhead_idx],
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

    /// The single-kind search against the linear-scan homogeneous DP on
    /// one `(model, profile, kind, n, b0)` case: it answers the same
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
        let dp = reference_pipelined(model, &ctrl, profile, kind, n, b0, &tm, &lm, cfg);
        (search, dp)
    }

    /// The homogeneous DP over `(stages, prefix length, GPUs used)` that
    /// planned single-kind pools before the search did, in its original
    /// O(k·l²·m²) linear-scan form: an independent executable
    /// specification of the single-kind optimum, memory mask and
    /// unmasked fallback included.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn reference_pipelined(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        gpu: GpuKind,
        num_gpus: usize,
        b0: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> SplitPlan {
        let l = model.num_layers();
        let m = num_gpus;
        let tx: Vec<f64> = (1..l)
            .map(|s| boundary_transfer_surviving(model, profile, s, b0, tm).as_secs_f64())
            .collect();
        const INF: f64 = f64::INFINITY;
        let max_splits = cfg.max_splits.max(1);
        type DpTables = (Vec<Vec<Vec<f64>>>, Vec<Vec<Vec<(usize, usize)>>>);
        let run_dp = |t1: &[Vec<f64>]| -> DpTables {
            let mut best = vec![vec![vec![INF; m + 1]; l + 1]; max_splits + 1];
            let mut par = vec![vec![vec![(0usize, 0usize); m + 1]; l + 1]; max_splits + 1];
            for k in 0..=max_splits {
                for g in 0..=m {
                    best[k][0][g] = 0.0;
                }
            }
            for k in 1..=max_splits {
                for j in 1..=l {
                    for g in 1..=m {
                        if best[k - 1][j][g] < best[k][j][g] {
                            best[k][j][g] = best[k - 1][j][g];
                            par[k][j][g] = par[k - 1][j][g];
                        }
                        for s in 0..j {
                            if !t1[s][j].is_finite() {
                                continue;
                            }
                            for mp in 1..=g {
                                let prefix_g = g - mp;
                                if s > 0 && prefix_g == 0 {
                                    continue;
                                }
                                let prefix = best[k - 1][s][prefix_g];
                                if !prefix.is_finite() {
                                    continue;
                                }
                                let link = if s == 0 { 0.0 } else { tx[s - 1] / mp as f64 };
                                let stage = t1[s][j] / mp as f64;
                                let cand = prefix.max(link).max(stage);
                                if cand < best[k][j][g] {
                                    best[k][j][g] = cand;
                                    par[k][j][g] = (s, mp);
                                }
                            }
                        }
                    }
                }
            }
            (best, par)
        };
        let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, cfg.enforce_memory);
        let (mut best, mut par) = run_dp(&t1);
        if cfg.enforce_memory && !(1..=max_splits).any(|k| best[k][l][m].is_finite()) {
            let t1 = fill_t1(model, ctrl, profile, gpu, b0, lm, false);
            (best, par) = run_dp(&t1);
        }
        let mut k_star = 1;
        let mut best_pen = f64::INFINITY;
        for k in 1..=max_splits {
            let pen = best[k][l][m] * (1.0 + cfg.stage_overhead_frac * (k as f64 - 1.0));
            if pen < best_pen {
                best_pen = pen;
                k_star = k;
            }
        }
        let mut stages_rev: Vec<(usize, usize, usize)> = Vec::new();
        let mut k = k_star;
        let mut j = l;
        let mut g = m;
        while j > 0 {
            let (s, mp) = par[k][j][g];
            assert!(mp >= 1, "reconstruction hit an unset state");
            stages_rev.push((s, j, mp));
            j = s;
            g -= mp;
            if k > 1 {
                k -= 1;
            }
        }
        stages_rev.reverse();
        let stages: Vec<StageAssignment> = stages_rev
            .iter()
            .map(|&(s, j, mp)| (s, j, mp, gpu))
            .collect();
        build_plan(model, ctrl, profile, b0, tm, lm, &stages, true)
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

    #[test]
    fn search_matches_the_dp_under_memory_pressure() {
        // Memory-infeasible ranges put INF holes in the tables, and at
        // b=3000 nothing fits and both fall back to unmasked tables.
        let (m, profile, cfg, _) = llama();
        for (gpus, b0) in [(4usize, 1000.0), (6, 1000.0), (4, 3000.0)] {
            let (search, dp) = single_kind_plans(&m, &profile, GpuKind::K80, gpus, b0, &cfg);
            assert_eq!(search, dp, "gpus={gpus} b0={b0}");
        }
    }

    /// A model of `work.len()` layers with the given per-layer work and
    /// activation sizes, and a ramp after every layer but the last.
    fn tiny_model(work: &[f64], bytes: &[u64]) -> EeModel {
        work.iter()
            .zip(bytes)
            .fold(
                EeModelBuilder::new("tiny", Task::Classification { num_classes: 2 }),
                |builder, (&w, &b)| builder.layer(w, 20.0, b),
            )
            .ramps_after_each_layer(60.0, 5.0)
            .build()
            .expect("valid model")
    }

    /// A plan's boundary set and the kind of each of its stages.
    type Layout = (Vec<usize>, Vec<GpuKind>);

    /// Every plan the formulation admits, by brute force: each boundary
    /// set, kind assignment and replica vector within the pool. Returns
    /// what the split search must find, under the memory rule (only plans
    /// that fit, unless none does): the least penalized bottleneck and
    /// the (cuts, kinds) of every plan within the tie tolerance of it.
    /// Also returns what the cost search must find, under the memory
    /// rule without the fallback: the least cost of a plan whose every
    /// stage and incoming transfer meet the bottleneck `lambda`, or
    /// `None` when no plan does.
    #[allow(clippy::too_many_arguments)]
    fn exhaustive_oracle(
        model: &EeModel,
        ctrl: &RampController,
        profile: &BatchProfile,
        kinds: &[(GpuKind, usize)],
        b0: f64,
        lambda: f64,
        tm: &TransferModel,
        lm: &LatencyModel,
        cfg: &OptimizerConfig,
    ) -> (f64, Vec<Layout>, Option<f64>) {
        let l = model.num_layers();
        let nk = kinds.len();
        let time = |a: usize, b: usize, k: usize| {
            stage_cost(model, ctrl, profile, a..b, b0, kinds[k].0, 1, lm)
                .effective_time
                .as_secs_f64()
        };
        let tx = |a: usize| {
            if a == 0 {
                0.0
            } else {
                boundary_transfer_surviving(model, profile, a, b0, tm).as_secs_f64()
            }
        };
        // (penalized bottleneck, fits, cuts, kinds) per boundary set and
        // kind assignment, at its best replica vector.
        let mut plans = Vec::new();
        let mut least_cost: Option<f64> = None;
        for cuts in boundary_sets(l, cfg.max_splits.max(1)) {
            let stages = stages_of(l, &cuts);
            let s = stages.len();
            let pen = 1.0 + cfg.stage_overhead_frac * (s as f64 - 1.0);
            let mut assign = vec![0usize; s];
            loop {
                let fits = stages
                    .iter()
                    .zip(&assign)
                    .all(|(&(a, b), &k)| stage_fits(model, a..b, b0, kinds[k].0));
                let demand: Vec<(f64, f64)> = stages
                    .iter()
                    .zip(&assign)
                    .map(|(&(a, b), &k)| (time(a, b, k), tx(a)))
                    .collect();
                let mut best = f64::INFINITY;
                let mut m = vec![1usize; s];
                'vectors: loop {
                    let mut used = vec![0usize; nk];
                    for (i, &k) in assign.iter().enumerate() {
                        used[k] += m[i];
                    }
                    if used.iter().zip(kinds).all(|(&u, &(_, avail))| u <= avail) {
                        let bottleneck = demand
                            .iter()
                            .zip(&m)
                            .map(|(&(t, x), &r)| (t / r as f64).max(x / r as f64))
                            .fold(0.0, f64::max);
                        best = best.min(bottleneck * pen);
                        if bottleneck <= lambda && (fits || !cfg.enforce_memory) {
                            let cost: f64 = assign
                                .iter()
                                .zip(&m)
                                .map(|(&k, &r)| r as f64 * kinds[k].0.cost_per_sec())
                                .sum();
                            least_cost = Some(least_cost.map_or(cost, |c| c.min(cost)));
                        }
                    }
                    // Next replica vector: an odometer with digits
                    // 1..=avail of each stage's kind.
                    for (i, r) in m.iter_mut().enumerate() {
                        if *r < kinds[assign[i]].1 {
                            *r += 1;
                            continue 'vectors;
                        }
                        *r = 1;
                    }
                    break;
                }
                if best < f64::INFINITY || fits {
                    let on: Vec<GpuKind> = assign.iter().map(|&k| kinds[k].0).collect();
                    plans.push((best, fits, cuts.clone(), on));
                }
                if !next_assignment(&mut assign, nk) {
                    break;
                }
            }
        }
        let masked = cfg.enforce_memory && plans.iter().any(|p| p.1 && p.0.is_finite());
        plans.retain(|p| p.0.is_finite() && (p.1 || !masked));
        let opt = plans.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let tied = plans
            .into_iter()
            .filter(|p| p.0 <= opt + TIE)
            .map(|p| (p.2, p.3))
            .collect();
        (opt, tied, least_cost)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn search_matches_the_exhaustive_oracle(
            l in 1usize..9,
            work in proptest::collection::vec(10_000.0f64..60_000.0, 8),
            log_bytes in proptest::collection::vec(10u32..27, 8),
            u in proptest::collection::vec(0.0f64..1.0, 8),
            kind_idx in proptest::collection::btree_set(0usize..4, 1..4),
            gpus in proptest::collection::vec(1usize..7, 3),
            max_splits in 1usize..5,
            b0_idx in 0usize..3,
            overhead_idx in 0usize..2,
            memory_idx in 0usize..2,
            target_frac in 0.05f64..1.2,
        ) {
            let bytes: Vec<u64> = log_bytes[..l].iter().map(|&e| 1u64 << e).collect();
            let model = tiny_model(&work[..l], &bytes);
            let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
            let (lm, tm) = (LatencyModel::new(), TransferModel::default());
            let profile = decoded_profile(&u, l);
            // At most six GPUs in all: 1-6 of one kind, 1-3 of each of
            // two, 1-2 of each of three.
            let per_kind = 6 / kind_idx.len();
            let counts: BTreeMap<GpuKind, usize> = kind_idx
                .iter()
                .zip(&gpus)
                .map(|(&k, &n)| (GpuKind::ALL[k], 1 + (n - 1) % per_kind))
                .collect();
            let b0 = [1.0, 4.0, 16.0][b0_idx];
            let cfg = OptimizerConfig {
                max_splits,
                stage_overhead_frac: [0.0, 0.05][overhead_idx],
                enforce_memory: memory_idx == 1,
                ..Default::default()
            };

            let (plan, _) =
                optimize_heterogeneous_with_stats(&model, &ctrl, &profile, &counts, b0, &tm, &lm, &cfg);
            let target = plan.goodput * target_frac;
            let lambda = b0 / target;
            let (opt, tied, least_cost) = exhaustive_oracle(
                &model, &ctrl, &profile, &available(&counts), b0, lambda, &tm, &lm, &cfg,
            );
            let pen = 1.0 + cfg.stage_overhead_frac * (plan.num_splits() as f64 - 1.0);
            let bottleneck = plan
                .splits
                .iter()
                .map(|s| {
                    let (a, b) = (s.layers.start, s.layers.end);
                    let t = stage_cost(&model, &ctrl, &profile, a..b, b0, s.gpu, 1, &lm)
                        .effective_time
                        .as_secs_f64();
                    let x = if a == 0 {
                        0.0
                    } else {
                        boundary_transfer_surviving(&model, &profile, a, b0, &tm).as_secs_f64()
                    };
                    (t / s.replicas as f64).max(x / s.replicas as f64)
                })
                .fold(0.0, f64::max);
            prop_assert!(bottleneck * pen == opt, "{} vs {} {:?}", plan, opt, tied);
            let kinds: Vec<GpuKind> = plan.splits.iter().map(|s| s.gpu).collect();
            if let [(cuts, on)] = &tied[..] {
                prop_assert_eq!(&plan.boundaries(), cuts);
                prop_assert_eq!(&kinds, on);
            }
            if cfg.enforce_memory && tied.iter().any(|(cuts, on)| {
                stages_of(l, cuts).iter().zip(on).all(|(&(a, b), &k)| stage_fits(&model, a..b, b0, k))
            }) {
                prop_assert!(plan.memory_feasible(&model), "{}", plan);
            }

            // The cost search finds a plan exactly when some replica
            // vector meets the target under the memory rule, at the least
            // such cost, and never returns a plan that overflows.
            let cheapest =
                min_cost_for_goodput(&model, &ctrl, &profile, &counts, b0, target, &tm, &lm, &cfg);
            prop_assert!(
                cheapest.is_some() == least_cost.is_some(),
                "{:?} vs {:?}",
                cheapest.as_ref().map(SplitPlan::to_string),
                least_cost
            );
            if let (Some(cheapest), Some(least_cost)) = (cheapest, least_cost) {
                prop_assert!(
                    (cheapest.cost_per_sec() - least_cost).abs() <= TIE,
                    "{} vs {}",
                    cheapest,
                    least_cost
                );
                if cfg.enforce_memory {
                    prop_assert!(cheapest.memory_feasible(&model), "{}", cheapest);
                }
            }
        }
    }
}
