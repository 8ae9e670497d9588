//! Continuous batching for autoregressive serving (§5.1.3, figs. 10–12).
//!
//! Generative models run their decoder once per output token, so batch
//! membership must be renegotiated *every iteration*: sequences that
//! finish (or exit early) leave the running batch immediately and queued
//! sequences join mid-flight from a FIFO pool that never waits.
//! [`run_continuous`] is token serving, one of the kernel's two
//! disciplines: it runs on the kernel's one event loop, which owns the
//! queue, the fault schedule, the accounting and each replica's
//! lifecycle. Token serving keeps only its decisions: who joins a pass
//! and what it costs, what a finished pass does, and where a crashed
//! replica's work goes (its sequences requeue; a stage-B replica's jobs
//! return to the fusion buffer). A lifted stall kicks the stage. Busy
//! time counts when a pass ends, and each slowdown factor scales the
//! pass in start order (see the kernel's module docs for how this
//! differs from batch serving).
//!
//! [`run_continuous`] also owns the KV-cache model, against the per-replica
//! token budget its [`KvPlan`] is given: every generated token pins one
//! more cache token on its sequence's replica, admission is refused when
//! a joiner's cache cannot fit, and overflow preempts the youngest
//! resident sequence — releasing its cache and re-queuing it with a
//! rebuild debt that is repaid by recomputation or a PCIe swap-in when
//! it rejoins. Both transitions are narrated through
//! [`KernelEvent::KvAdmitted`] / [`KernelEvent::KvPreempted`].
//!
//! Two join disciplines are supported so the window-batching baselines of
//! figs. 10–12 run through the same loop:
//!
//! * [`JoinPolicy::Continuous`] — vLLM/Orca-style: free slots refill at
//!   every iteration boundary;
//! * [`JoinPolicy::Window`] — the legacy discipline: a replica admits a
//!   window of sequences, serves it to completion (optionally padding
//!   finished members at full width, the vanilla-static baseline), and
//!   only then admits the next window.
//!
//! An optional decoder split at `boundary` models E3: tokens surviving
//! the boundary transfer to a second stage group where full batches are
//! re-fused before the deep layers and the lm-head run.
//!
//! # Step costs
//!
//! Membership changes at every token, so every step prices a new pass.
//! [`run_continuous`] therefore builds a `StepCosts` once per run: every
//! duration a pass can add, tabled by width `w` in `0..=b0`:
//!
//! * each stage's decoder layers: one [`ExecTable`] per stage, filled to
//!   `b0`. It is the stage price the planner and the batch executor read
//!   too: each layer, plus its exit ramp when the ramp controller pays
//!   for it, plus that ramp's batch re-formation unless exits are
//!   deferred;
//! * the terms only token serving has: the encoder prefix for `w` fresh
//!   joiners, the lm head, and the deferred boundary re-formation of the
//!   `w` members that cross;
//!
//! and, by debt `d` up to the longest sequence, the rebuild a preempted
//! sequence repays on rejoin (prefill, or the PCIe swap-in). A stage-A
//! step then makes one pass over its members: it counts joiners, repays
//! debts and buckets each member's executed depth into a histogram.
//! Walking the histogram through the stage's table gives each layer's
//! width (the members not yet exited) and adds one entry per layer; a
//! padded window adds one row at its padded width. Finishers are the top
//! bucket. A stage-B step buckets its fused batch the same way.
//! Every lookup indexes its table directly. A stage-A pass takes at most
//! `b0` members, window admission caps a padded window at `b0`, and the
//! fusion buffer caps a stage-B batch at `b0`, so no width exceeds `b0`.
//! A debt is cache a sequence had built, so none exceeds the longest
//! sequence.
//!
//! The tables are exact, not an approximation. Each entry is the same
//! [`SimDuration`] the layer-by-layer computation adds, and a
//! `SimDuration` is an integer count of nanoseconds, so regrouping the
//! sum gives the same integer. The replica's active slowdown factors
//! still scale the summed pass, in start order.

use std::collections::VecDeque;

use e3_hardware::{GpuKind, LatencyModel, LinkKind};
use e3_model::{EeModel, RampController};
use e3_optimizer::stage::ExecTable;
use e3_simcore::{SimDuration, SimTime};

use super::faults::FaultPlan;
use super::observer::{KernelEvent, RunObserver};
use super::{drive, Core, Discipline};
use crate::batch::{FusionBuffer, SamplePool};
use crate::report::RunReport;
use crate::sample::SimSample;

/// When queued sequences may join a replica's running batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPolicy {
    /// Join at any iteration boundary with a free slot (continuous
    /// batching).
    Continuous,
    /// Join only when the replica's previous window has fully drained.
    /// With `padded`, finished members keep burning compute at full
    /// window width until the longest member ends (vanilla static
    /// batching); without it, exits shrink the per-layer widths but the
    /// freed slots still cannot be refilled mid-window.
    Window {
        /// Charge every iteration at the full window width.
        padded: bool,
    },
}

/// How a preempted sequence's KV cache is rebuilt when it rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMode {
    /// Re-run the decoder prefix over the generated tokens (prefill).
    Recompute,
    /// Swap the cache out to host memory over PCIe and back in on rejoin.
    Swap,
}

/// Per-replica KV-cache budget. The capacity is the caller's constant:
/// each experiment that bounds the cache picks its own token budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvPlan {
    /// Cache tokens one replica may keep resident.
    pub capacity_tokens: usize,
    /// Cache bytes per token (swap-cost accounting).
    pub bytes_per_token: f64,
    /// Rebuild mechanism under preemption.
    pub mode: PreemptMode,
}

/// One output token's materialized journey through the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenJourney {
    /// Absolute layers this token executes (including any encoder
    /// prefix); the model's layer count when it never exits. A model
    /// holds at most `u16::MAX` layers.
    pub layers_executed: u16,
}

// One per generated token of every sequence: keep it at two bytes.
const _: () = assert!(std::mem::size_of::<TokenJourney>() == 2);

/// One request: an id, an arrival, and its materialized token journeys.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceSpec {
    /// Request id (reported in the event stream).
    pub id: u64,
    /// Arrival at the frontend.
    pub arrival: SimTime,
    /// Per-token journeys, drawn once at ingest.
    pub tokens: Vec<TokenJourney>,
}

/// Configuration of one continuous-batching run.
pub struct ContinuousConfig<'a> {
    /// The autoregressive model served.
    pub model: &'a EeModel,
    /// Ramp mask: which exit ramps pay their cost.
    pub ctrl: &'a RampController,
    /// Device kind (homogeneous across replicas).
    pub gpu: GpuKind,
    /// Latency model.
    pub lm: &'a LatencyModel,
    /// Join discipline.
    pub join: JoinPolicy,
    /// Target token-batch width per replica.
    pub b0: usize,
    /// Stage-A replicas (encoder + decoder layers up to the boundary).
    pub replicas_a: usize,
    /// Decoder split boundary (absolute layer index). `None` = single
    /// stage running the whole model.
    pub boundary: Option<usize>,
    /// Stage-B replicas (boundary..end plus the lm-head). Must be zero
    /// iff `boundary` is `None`.
    pub replicas_b: usize,
    /// E3-style deferred exits: per-ramp device-host syncs are skipped
    /// and one batch re-formation is paid at the boundary.
    pub deferred_exits: bool,
    /// Finite per-replica KV budget; `None` disables cache accounting.
    pub kv: Option<KvPlan>,
    /// SLO for goodput accounting.
    pub slo: SimDuration,
    /// Deterministic fault schedule.
    pub fault_plan: FaultPlan,
    /// Stage-B fusion wait before a partial batch dispatches; `None`
    /// derives it from one full-width stage-A pass.
    pub b_max_wait: Option<SimDuration>,
}

/// What one continuous run produced beyond the standard report.
#[derive(Debug, Clone)]
pub struct ContinuousOutcome {
    /// The standard run metrics (goodput, latency, tokens, preemptions).
    pub report: RunReport,
    /// Tokens that crossed the decoder split into stage B.
    pub boundary_crossings: u64,
    /// Sequences left unfinished when the event queue drained (only
    /// non-zero when faults permanently removed every usable replica).
    pub leftover: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SState {
    Queued,
    Running { home: usize },
    Blocked { home: Option<usize> },
    Done,
}

#[derive(Debug, Clone)]
struct SeqRt {
    next_token: usize,
    kv_tokens: usize,
    debt: usize,
    encoded: bool,
    state: SState,
}

struct Rep {
    resident: Vec<usize>,
    pass: Vec<usize>,
    bpass: Vec<SimSample>,
    pass_cost: SimDuration,
    kv_used: usize,
    carry: SimDuration,
}

/// Token serving's one event: stage B's fusion wait ran out.
#[derive(Debug, Clone)]
pub(crate) struct BFlush;

struct Tokens<'a> {
    cfg: &'a ContinuousConfig<'a>,
    specs: &'a [SequenceSpec],
    core: Core<'a, BFlush>,
    rt: Vec<SeqRt>,
    reps: Vec<Rep>,
    /// Queued sequence indices, oldest first; preempted and orphaned
    /// sequences go back at the front.
    pool: VecDeque<usize>,
    bbuf: FusionBuffer,
    /// Recycled buffers of the batches `bbuf` forms.
    sample_pool: SamplePool,
    crossings: u64,
    enc: usize,
    cut: usize,
    bwait: SimDuration,
    costs: StepCosts<'a>,
    /// Reused executed-depth histogram (see `try_start_a`).
    hist: Vec<usize>,
}

/// Every duration a pass adds, precomputed once per run (see the module
/// docs). Widths never exceed `b0` and debts never exceed the longest
/// sequence, so every lookup indexes its table directly.
struct StepCosts<'a> {
    cfg: &'a ContinuousConfig<'a>,
    /// `encoder[w]`: the encoder prefix for `w` fresh joiners.
    encoder: Vec<SimDuration>,
    /// Decoder layers `enc..cut`, tabled to `b0`.
    stage_a: ExecTable<'a>,
    /// Layers `cut..L` (no layers in a single-stage run), tabled to `b0`.
    stage_b: ExecTable<'a>,
    /// `head[w]`: the lm head at width `w`.
    head: Vec<SimDuration>,
    /// `reform[w]`: one batch re-formation at width `w`.
    reform: Vec<SimDuration>,
    /// `rebuild[d]`: repaying a rebuild debt of `d` cache tokens.
    rebuild: Vec<SimDuration>,
}

impl<'a> StepCosts<'a> {
    fn new(cfg: &'a ContinuousConfig<'a>, enc: usize, cut: usize, max_debt: usize) -> Self {
        let stage = |layers| {
            let mut table = ExecTable::new(
                cfg.model,
                cfg.ctrl,
                cfg.lm,
                cfg.gpu,
                layers,
                cfg.deferred_exits,
            );
            table.fill(cfg.b0);
            table
        };
        let mut costs = StepCosts {
            cfg,
            encoder: Vec::new(),
            stage_a: stage(enc..cut),
            stage_b: stage(cut..cfg.model.num_layers()),
            head: Vec::new(),
            reform: Vec::new(),
            rebuild: Vec::new(),
        };
        let widths = 0..=cfg.b0;
        costs.encoder = widths.clone().map(|w| costs.encoder_direct(w)).collect();
        costs.head = widths.clone().map(|w| costs.head_direct(w)).collect();
        costs.reform = widths.map(|w| cfg.lm.exit.reform_time(w as f64)).collect();
        costs.rebuild = (0..=max_debt).map(|d| costs.rebuild_direct(d)).collect();
        costs
    }

    /// Absolute layer `k` at width `w`, without its ramp.
    fn layer(&self, k: usize, w: usize) -> SimDuration {
        let (cfg, spec) = (self.cfg, self.cfg.model.layers()[k]);
        cfg.lm
            .layer_time(spec.work_us + spec.fixed_us, w as f64, cfg.gpu)
    }

    fn encoder_direct(&self, w: usize) -> SimDuration {
        if w == 0 {
            return SimDuration::ZERO;
        }
        (0..self.stage_a.stage().start).fold(SimDuration::ZERO, |t, k| t + self.layer(k, w))
    }

    fn head_direct(&self, w: usize) -> SimDuration {
        let head = self.cfg.model.autoreg().expect("autoreg").lm_head;
        (self.cfg.lm).layer_time(head.work_us + head.fixed_us, w as f64, self.cfg.gpu)
    }

    /// One pass over stage A's layers with `d` positions batched
    /// together, ramps excluded: the prefill that rebuilds a cache.
    fn prefill_direct(&self, d: usize) -> SimDuration {
        self.stage_a
            .stage()
            .fold(SimDuration::ZERO, |t, k| t + self.layer(k, d))
    }

    fn rebuild_direct(&self, d: usize) -> SimDuration {
        match self.cfg.kv {
            Some(kv) if kv.mode == PreemptMode::Swap => {
                LinkKind::Pcie.transfer_time((kv.bytes_per_token * d as f64) as u64)
            }
            _ => self.prefill_direct(d),
        }
    }

    fn head(&self, w: usize) -> SimDuration {
        debug_assert!(w <= self.cfg.b0, "head width past the table");
        self.head[w]
    }

    /// Cost of rebuilding `d` cache tokens: prefill under
    /// [`PreemptMode::Recompute`] (or without a KV plan), the PCIe
    /// transfer under [`PreemptMode::Swap`].
    fn rebuild(&self, d: usize) -> SimDuration {
        debug_assert!(d < self.rebuild.len(), "debt longer than any sequence");
        self.rebuild[d]
    }
}

/// Runs closed-loop continuous batching over `specs` and narrates it to
/// `observer`.
///
/// # Panics
///
/// Panics on inconsistent configuration: zero replicas or batch, a
/// boundary outside the decoder, stage-B replicas without a boundary, a
/// windowed two-stage layout, or a fault plan that does not fit the
/// replica/stage shape.
pub fn run_continuous(
    cfg: &ContinuousConfig<'_>,
    specs: &[SequenceSpec],
    observer: &mut dyn RunObserver,
) -> ContinuousOutcome {
    let mut d = Tokens::new(cfg, specs, observer);
    drive(&mut d);
    let duration = d.core.now().saturating_since(SimTime::ZERO);
    let leftover = d.rt.iter().filter(|s| s.state != SState::Done).count() as u64;
    ContinuousOutcome {
        report: d.core.acc.finish(duration),
        boundary_crossings: d.crossings,
        leftover,
    }
}

impl<'a> Tokens<'a> {
    /// Validates `cfg` and builds the run's state with every sequence
    /// queued but nothing in the pool or on the clock yet.
    fn new(
        cfg: &'a ContinuousConfig<'a>,
        specs: &'a [SequenceSpec],
        obs: &'a mut dyn RunObserver,
    ) -> Self {
        let ar = cfg.model.autoreg().expect("autoregressive model required");
        let enc = ar.encoder_layers;
        let two_stage = cfg.boundary.is_some();
        let cut = cfg.boundary.unwrap_or_else(|| cfg.model.num_layers());
        assert!(cfg.replicas_a >= 1 && cfg.b0 >= 1, "empty deployment");
        assert!(
            two_stage == (cfg.replicas_b > 0),
            "stage-B replicas iff a boundary is set"
        );
        if two_stage {
            assert!(
                cut > enc && cut < cfg.model.num_layers(),
                "boundary must cut the decoder"
            );
            assert!(
                cfg.join == JoinPolicy::Continuous,
                "window batching is single-stage"
            );
        }
        let num_stages = 1 + usize::from(two_stage);
        let num_replicas = cfg.replicas_a + cfg.replicas_b;

        let mut max_tokens = 0;
        let rt = specs
            .iter()
            .map(|s| {
                assert!(!s.tokens.is_empty(), "sequence without tokens");
                max_tokens = max_tokens.max(s.tokens.len());
                SeqRt {
                    next_token: 0,
                    kv_tokens: 0,
                    debt: 0,
                    encoded: false,
                    state: SState::Queued,
                }
            })
            .collect();
        let reps = (0..num_replicas)
            .map(|_| Rep {
                resident: Vec::new(),
                pass: Vec::new(),
                bpass: Vec::new(),
                pass_cost: SimDuration::ZERO,
                kv_used: 0,
                carry: SimDuration::ZERO,
            })
            .collect();
        // A debt is the cache a sequence had built, at most its length.
        let costs = StepCosts::new(cfg, enc, cut, max_tokens);
        // Default stage-B fusion wait: the inter-arrival gap of boundary
        // crossers — one full-width stage-A pass divided by the stage-A
        // replica count (passes interleave) — long enough for the boundary
        // to refill, short enough not to idle B.
        let bwait = cfg.b_max_wait.unwrap_or_else(|| {
            costs
                .prefill_direct(cfg.b0)
                .mul_f64(1.0 / cfg.replicas_a as f64)
        });
        Tokens {
            cfg,
            specs,
            rt,
            reps,
            pool: VecDeque::new(),
            bbuf: FusionBuffer::new(cfg.b0),
            sample_pool: SamplePool::default(),
            core: Core::new(
                &cfg.fault_plan,
                (0..num_replicas).map(|i| usize::from(i >= cfg.replicas_a)),
                num_stages,
                cfg.slo,
                false,
                obs,
            ),
            crossings: 0,
            enc,
            cut,
            bwait,
            costs,
            hist: Vec::new(),
        }
    }

    fn two_stage(&self) -> bool {
        self.cfg.boundary.is_some()
    }

    fn kick_stage_a(&mut self) {
        for r in 0..self.cfg.replicas_a {
            self.try_start_a(r);
        }
    }

    /// KV headroom check for admitting sequence `idx` onto replica `r`.
    fn kv_admits(&self, r: usize, idx: usize) -> bool {
        let Some(kv) = self.cfg.kv else { return true };
        // A replica with nothing resident always admits one sequence —
        // otherwise a long sequence could never run at all. It may
        // overcommit; preemption cannot shrink a lone runner.
        if self.reps[r].resident.is_empty() {
            return true;
        }
        // Admission needs room for the accumulated debt plus the next
        // token: used + debt + 1 <= capacity.
        self.reps[r].kv_used + self.rt[idx].debt < kv.capacity_tokens
    }

    fn admit_to(&mut self, r: usize, idx: usize) {
        let id = self.specs[idx].id;
        let debt = self.rt[idx].debt;
        self.rt[idx].state = SState::Running { home: r };
        self.rt[idx].kv_tokens = debt;
        self.reps[r].resident.push(idx);
        self.reps[r].kv_used += debt;
        self.core.emit(KernelEvent::SequenceJoined {
            replica: r,
            sample: id,
        });
        if self.cfg.kv.is_some() {
            let resident_tokens = self.reps[r].kv_used;
            self.core.emit(KernelEvent::KvAdmitted {
                replica: r,
                sample: id,
                resident_tokens,
            });
        }
    }

    /// Sequences currently running on `r`, in resident order. Counting
    /// (not collecting) keeps the admission loop allocation-free.
    fn running_count(&self, r: usize) -> usize {
        self.reps[r]
            .resident
            .iter()
            .filter(|&&i| self.rt[i].state == SState::Running { home: r })
            .count()
    }

    fn try_start_a(&mut self, r: usize) {
        if !self.core.ready(r) {
            return;
        }
        // Admission: refill free slots from the pool.
        match self.cfg.join {
            JoinPolicy::Continuous => {
                let mut running = self.running_count(r);
                while running < self.cfg.b0 {
                    let Some(&idx) = self.pool.front() else { break };
                    if !self.kv_admits(r, idx) {
                        break;
                    }
                    self.pool.pop_front();
                    self.admit_to(r, idx);
                    running += 1;
                }
            }
            JoinPolicy::Window { .. } => {
                if self.reps[r].resident.is_empty() {
                    while self.reps[r].resident.len() < self.cfg.b0 {
                        let Some(&idx) = self.pool.front() else { break };
                        if !self.kv_admits(r, idx) {
                            break;
                        }
                        self.pool.pop_front();
                        self.admit_to(r, idx);
                    }
                }
            }
        }
        // One pass over the first `b0` running members (the replica's
        // pass buffer is reused, so steady state allocates nothing):
        // count fresh joiners, repay rebuild debts, and bucket each
        // member's executed depth within the stage.
        let (enc, cut, full) = (self.enc, self.cut, self.cfg.model.num_layers());
        let mut pass = std::mem::take(&mut self.reps[r].pass);
        let mut hist = std::mem::take(&mut self.hist);
        pass.clear();
        hist.clear();
        hist.resize(cut - enc + 1, 0);
        let (mut joiners, mut crossers) = (0usize, 0usize);
        let mut cost = SimDuration::ZERO;
        for &i in &self.reps[r].resident {
            if pass.len() == self.cfg.b0 {
                break;
            }
            let s = &mut self.rt[i];
            if s.state != (SState::Running { home: r }) {
                continue;
            }
            pass.push(i);
            joiners += usize::from(!s.encoded && s.debt == 0);
            s.encoded = true;
            if s.debt > 0 {
                cost += self.costs.rebuild(s.debt);
                s.debt = 0;
            }
            let layers = usize::from(self.specs[i].tokens[s.next_token].layers_executed);
            debug_assert!(layers <= full, "token deeper than the model");
            hist[layers.clamp(enc, cut) - enc] += 1;
            crossers += usize::from(layers > cut);
        }
        if pass.is_empty() {
            self.reps[r].pass = pass;
            self.hist = hist;
            return;
        }

        // Pass cost: the debts repaid above, a carried swap-out, the
        // encoder for fresh joiners, then the decoder layers at their
        // surviving widths (or the padded window width).
        let padded_width = match self.cfg.join {
            JoinPolicy::Window { padded: true } => Some(self.reps[r].resident.len()),
            _ => None,
        };
        let costs = &self.costs;
        cost += std::mem::take(&mut self.reps[r].carry);
        // Joiners and crossers are pass members: never more than b0.
        cost += costs.encoder[joiners];
        cost += match padded_width {
            Some(w) => costs.stage_a.walk(&[], w),
            None => costs.stage_a.walk(&hist, pass.len()),
        };
        if self.two_stage() {
            if self.cfg.deferred_exits {
                cost += costs.reform[crossers];
            }
        } else {
            // Single stage: the top bucket ran every layer and finishes.
            cost += costs.head(padded_width.unwrap_or(hist[cut - enc]));
        }
        self.hist = hist;
        let cost = self.stretch(r, cost);

        // A padded window reports its padded width when the pass ends.
        let width = padded_width.unwrap_or(pass.len());
        self.core.acc.record_dispatch(0, width as f64);
        let size = pass.len();
        self.reps[r].pass = pass;
        self.reps[r].pass_cost = cost;
        self.core.begin(r, size, width, cost);
    }

    fn token_layers(&self, idx: usize) -> u16 {
        self.specs[idx].tokens[self.rt[idx].next_token].layers_executed
    }

    fn complete_seq(&mut self, idx: usize) {
        let spec = &self.specs[idx];
        let last_layers = spec.tokens.last().expect("nonempty").layers_executed;
        let s = SimSample {
            id: spec.id,
            arrival: spec.arrival,
            layers_executed: last_layers,
            exited_early: false,
            correct: true,
            output_tokens: spec.tokens.len() as u32,
        };
        self.core.complete(&s);
        self.rt[idx].state = SState::Done;
    }

    fn free_kv(&mut self, idx: usize, home: usize) {
        let t = self.rt[idx].kv_tokens;
        self.reps[home].kv_used -= t;
        self.rt[idx].kv_tokens = 0;
    }

    fn on_a_done(&mut self, r: usize) {
        // Take the pass buffer out so the loop can mutate `self`; it is
        // cleared and handed back below for the next step to reuse.
        let mut pass = std::mem::take(&mut self.reps[r].pass);
        let mut transfers = 0usize;
        for &idx in &pass {
            let layers = self.token_layers(idx);
            self.rt[idx].kv_tokens += 1;
            self.reps[r].kv_used += 1;
            if self.two_stage() && usize::from(layers) > self.cut {
                self.crossings += 1;
                self.rt[idx].state = SState::Blocked { home: Some(r) };
                let job = SimSample {
                    id: idx as u64,
                    arrival: self.specs[idx].arrival,
                    layers_executed: layers,
                    exited_early: false,
                    correct: true,
                    output_tokens: 1,
                };
                transfers += 1;
                self.bbuf.push(job, self.core.now());
            } else {
                self.finish_token(idx);
            }
        }
        pass.clear();
        self.reps[r].pass = pass;
        if transfers > 0 {
            self.core.emit(KernelEvent::StageTransfer {
                from_stage: 0,
                to_stage: 1,
                size: transfers,
            });
            self.core.serve_after(self.bwait, BFlush);
        }
        // Window drain: the next window may only form once every member
        // (including finished padding) is done.
        if matches!(self.cfg.join, JoinPolicy::Window { .. })
            && self.reps[r]
                .resident
                .iter()
                .all(|&i| self.rt[i].state == SState::Done)
        {
            for idx in std::mem::take(&mut self.reps[r].resident) {
                let id = self.specs[idx].id;
                self.core.emit(KernelEvent::SequenceLeft {
                    replica: r,
                    sample: id,
                });
            }
        }
        self.preempt_overflow(r);
        self.try_start_a(r);
        self.try_start_b();
        self.kick_stage_a();
    }

    /// Finishes sequence `idx`'s current token on its home replica, and
    /// the whole sequence when it was the last one.
    fn finish_token(&mut self, idx: usize) {
        let id = self.specs[idx].id;
        let index = self.rt[idx].next_token as u32;
        self.core
            .emit(KernelEvent::TokenGenerated { sample: id, index });
        self.core.acc.record_tokens(1);
        self.rt[idx].next_token += 1;
        if self.rt[idx].next_token == self.specs[idx].tokens.len() {
            let home = match self.rt[idx].state {
                SState::Running { home } => Some(home),
                SState::Blocked { home } => home,
                _ => None,
            };
            if let Some(h) = home {
                self.free_kv(idx, h);
                if self.cfg.join == JoinPolicy::Continuous {
                    self.reps[h].resident.retain(|&i| i != idx);
                    self.core.emit(KernelEvent::SequenceLeft {
                        replica: h,
                        sample: id,
                    });
                }
            }
            self.complete_seq(idx);
        }
    }

    /// Preempts youngest-resident running sequences until the replica's
    /// cache fits its budget again. The oldest runner is never preempted
    /// (a lone sequence may overcommit); blocked sequences are skipped —
    /// their in-flight token is already at stage B.
    fn preempt_overflow(&mut self, r: usize) {
        let Some(kv) = self.cfg.kv else { return };
        while self.reps[r].kv_used > kv.capacity_tokens {
            // Youngest runner = last running entry in resident order.
            let mut count = 0usize;
            let mut last = None;
            for &i in &self.reps[r].resident {
                if self.rt[i].state == (SState::Running { home: r }) {
                    count += 1;
                    last = Some(i);
                }
            }
            if count <= 1 {
                break;
            }
            let victim = last.expect("nonempty");
            let id = self.specs[victim].id;
            let tokens = self.rt[victim].kv_tokens;
            self.free_kv(victim, r);
            self.rt[victim].debt = tokens;
            self.rt[victim].state = SState::Queued;
            self.reps[r].resident.retain(|&i| i != victim);
            if kv.mode == PreemptMode::Swap {
                // Swapping out moves the same bytes as swapping back in.
                self.reps[r].carry += self.costs.rebuild(tokens);
            }
            self.core.acc.record_kv_preemption();
            self.core.emit(KernelEvent::KvPreempted {
                replica: r,
                sample: id,
                tokens_freed: tokens,
                swapped: kv.mode == PreemptMode::Swap,
            });
            self.core.emit(KernelEvent::SequenceLeft {
                replica: r,
                sample: id,
            });
            self.pool.push_front(victim);
        }
    }

    /// True when stage A cannot feed the boundary any further: nothing is
    /// queued and every unfinished sequence is blocked at stage B.
    fn draining(&self) -> bool {
        self.pool.is_empty()
            && self
                .rt
                .iter()
                .all(|s| matches!(s.state, SState::Done | SState::Blocked { .. }))
    }

    fn try_start_b(&mut self) {
        if !self.two_stage() {
            return;
        }
        for r in self.cfg.replicas_a..self.reps.len() {
            if !self.core.ready(r) {
                continue;
            }
            if self.bbuf.is_empty() {
                break;
            }
            let now = self.core.now();
            // A partial batch is due after the fusion wait — or at once
            // when stage A can produce no further crossers (drain mode:
            // every unfinished sequence is already at the boundary).
            let due = self
                .bbuf
                .oldest_enqueue()
                .is_some_and(|t| now >= t + self.bwait)
                || self.draining();
            let pool = &mut self.sample_pool;
            let Some(batch) = self.bbuf.take_full(now, pool).or_else(|| {
                if due {
                    self.bbuf.take_partial(now, pool)
                } else {
                    None
                }
            }) else {
                break;
            };
            let size = batch.len();
            self.core.emit(KernelEvent::BatchFormed {
                stage: 1,
                size,
                partial: size < self.cfg.b0,
            });
            // Bucket the fused batch by executed depth within stage B.
            let (cut, full) = (self.cut, self.cfg.model.num_layers());
            let mut hist = std::mem::take(&mut self.hist);
            hist.clear();
            hist.resize(full - cut + 1, 0);
            for j in &batch.samples {
                hist[usize::from(j.layers_executed).clamp(cut, full) - cut] += 1;
            }
            let costs = &self.costs;
            let cost = costs.stage_b.walk(&hist, size) + costs.head(size);
            self.hist = hist;
            let cost = self.stretch(r, cost);
            self.core.acc.record_dispatch(1, size as f64);
            self.reps[r].bpass = batch.samples;
            self.reps[r].pass_cost = cost;
            self.core.begin(r, size, size, cost);
        }
    }

    fn on_b_done(&mut self, r: usize) {
        let mut jobs = std::mem::take(&mut self.reps[r].bpass);
        for job in jobs.drain(..) {
            let idx = job.id as usize;
            let home = match self.rt[idx].state {
                SState::Blocked { home } => home,
                _ => None,
            };
            self.finish_token(idx);
            if self.rt[idx].state == SState::Done {
                continue;
            }
            match home {
                Some(h) if !self.core.reps[h].crashed => {
                    self.rt[idx].state = SState::Running { home: h };
                }
                _ => {
                    // The home replica crashed while this token was in
                    // flight: its cache is gone; rebuild on rejoin.
                    self.rt[idx].debt = self.rt[idx].next_token;
                    self.rt[idx].kv_tokens = 0;
                    self.rt[idx].state = SState::Queued;
                    self.pool.push_front(idx);
                }
            }
        }
        self.sample_pool.put(jobs);
        self.try_start_b();
        self.kick_stage_a();
    }

    /// Scales a pass by `r`'s active slowdown factors, one `mul_f64`
    /// each in start order.
    fn stretch(&self, r: usize, mut cost: SimDuration) -> SimDuration {
        for f in self.core.faults.slowdowns(r) {
            cost = cost.mul_f64(f);
        }
        cost
    }
}

impl<'a> Discipline<'a> for Tokens<'a> {
    type Ev = BFlush;

    fn core(&mut self) -> &mut Core<'a, BFlush> {
        &mut self.core
    }

    fn start(&mut self) {
        for (i, s) in self.specs.iter().enumerate() {
            self.core.emit(KernelEvent::Arrival { sample: s.id });
            self.pool.push_back(i);
        }
        self.kick_stage_a();
    }

    fn on_event(&mut self, _: BFlush) {
        self.try_start_b();
    }

    /// Busy time counts here, when the pass ends.
    fn on_done(&mut self, r: usize) {
        let (cost, width) = (self.reps[r].pass_cost, self.core.reps[r].done_size);
        let occupancy = self.cfg.lm.occupancy(width as f64, self.cfg.gpu);
        self.core.acc.record_busy(r, cost, occupancy);
        if self.core.reps[r].stage == 0 {
            self.on_a_done(r);
        } else {
            self.on_b_done(r);
        }
    }

    /// A stage-A replica's sequences drop their caches and requeue at the
    /// front; a stage-B replica's jobs return to the fusion buffer.
    fn on_crash(&mut self, replica: usize) {
        if self.core.reps[replica].stage == 0 {
            self.reps[replica].pass.clear();
            let resident = std::mem::take(&mut self.reps[replica].resident);
            // Requeue in reverse so push_front restores join order.
            for &idx in resident.iter().rev() {
                let s = &mut self.rt[idx];
                if s.state == SState::Done {
                    continue;
                }
                s.debt = std::mem::take(&mut s.kv_tokens);
                if matches!(s.state, SState::Blocked { .. }) {
                    s.state = SState::Blocked { home: None };
                } else {
                    s.state = SState::Queued;
                    let id = self.specs[idx].id;
                    self.core.emit(KernelEvent::SequenceLeft {
                        replica,
                        sample: id,
                    });
                    self.pool.push_front(idx);
                }
            }
            self.reps[replica].kv_used = 0;
            self.kick_stage_a();
        } else {
            // The jobs rejoin the fusion buffer's head; its wait clock
            // restarts now.
            let mut jobs = std::mem::take(&mut self.reps[replica].bpass);
            for job in jobs.drain(..).rev() {
                self.bbuf.push_front(job, self.core.now());
            }
            self.sample_pool.put(jobs);
            self.try_start_b();
        }
    }

    fn on_recover(&mut self, replica: usize) {
        if self.core.reps[replica].stage == 0 {
            self.try_start_a(replica);
        } else {
            self.try_start_b();
        }
    }

    fn on_stall_lifted(&mut self, stage: usize) {
        if stage == 0 {
            self.kick_stage_a();
        } else {
            self.try_start_b();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::faults::{decoded_fault_plan, FaultAction};
    use crate::kernel::observer::EventLog;
    use crate::kernel::NullObserver;
    use e3_model::{zoo, RampStyle};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-pass pricing the step-cost tables replaced, kept as the
    /// reference they are checked against: every layer re-derived from
    /// the latency model at a width found by filtering the members.
    impl Tokens<'_> {
        fn reference_layer_cost(&self, k: usize) -> f64 {
            let l = self.cfg.model.layers()[k];
            l.work_us + l.fixed_us
        }

        fn reference_ramp_cost(&self, ri: usize) -> f64 {
            let r = self.cfg.model.ramps()[ri];
            r.work_us + r.fixed_us
        }

        fn reference_head_cost(&self) -> f64 {
            let h = self.cfg.model.autoreg().expect("autoreg").lm_head;
            h.work_us + h.fixed_us
        }

        /// Layers `ks` at the widths `active(k)`, with paid ramps and
        /// (immediate exits) their re-formations.
        fn reference_layers(
            &self,
            ks: std::ops::Range<usize>,
            active: impl Fn(usize) -> f64,
        ) -> SimDuration {
            let (lm, gpu) = (self.cfg.lm, self.cfg.gpu);
            let mut cost = SimDuration::ZERO;
            for k in ks {
                let width = active(k);
                if width <= 0.0 {
                    continue;
                }
                cost += lm.layer_time(self.reference_layer_cost(k), width, gpu);
                if let Some(ri) = self.cfg.model.ramp_after(k) {
                    if self.cfg.ctrl.pays_cost_at(ri) {
                        cost += lm.layer_time(self.reference_ramp_cost(ri), width, gpu);
                        if !self.cfg.deferred_exits {
                            cost += lm.exit.reform_time(width);
                        }
                    }
                }
            }
            cost
        }

        /// The members and cost of replica `r`'s next stage-A pass, read
        /// from the current state without changing it; `None` when no
        /// member runs.
        fn reference_pass_a(&self, r: usize) -> Option<(Vec<usize>, SimDuration)> {
            let (lm, gpu) = (self.cfg.lm, self.cfg.gpu);
            let mut pass: Vec<usize> = self.reps[r]
                .resident
                .iter()
                .copied()
                .filter(|&i| self.rt[i].state == SState::Running { home: r })
                .collect();
            pass.truncate(self.cfg.b0);
            if pass.is_empty() {
                return None;
            }
            let padded_width = match self.cfg.join {
                JoinPolicy::Window { padded: true } => Some(self.reps[r].resident.len() as f64),
                _ => None,
            };
            let mut cost = self.reps[r].carry;
            let joiners = pass
                .iter()
                .filter(|&&i| !self.rt[i].encoded && self.rt[i].debt == 0)
                .count();
            if joiners > 0 {
                for k in 0..self.enc {
                    cost += lm.layer_time(self.reference_layer_cost(k), joiners as f64, gpu);
                }
            }
            for &i in &pass {
                let debt = self.rt[i].debt;
                if debt == 0 {
                    continue;
                }
                match self.cfg.kv.map(|kv| kv.mode) {
                    Some(PreemptMode::Swap) => {
                        let bytes = self.cfg.kv.expect("kv").bytes_per_token * debt as f64;
                        cost += LinkKind::Pcie.transfer_time(bytes as u64);
                    }
                    _ => {
                        for k in self.enc..self.cut {
                            cost += lm.layer_time(self.reference_layer_cost(k), debt as f64, gpu);
                        }
                    }
                }
            }
            cost += self.reference_layers(self.enc..self.cut, |k| {
                padded_width.unwrap_or_else(|| {
                    pass.iter()
                        .filter(|&&i| usize::from(self.token_layers(i)) > k)
                        .count() as f64
                })
            });
            if self.two_stage() {
                let crossers = pass
                    .iter()
                    .filter(|&&i| usize::from(self.token_layers(i)) > self.cut)
                    .count();
                if self.cfg.deferred_exits && crossers > 0 {
                    cost += lm.exit.reform_time(crossers as f64);
                }
            } else {
                let full = self.cfg.model.num_layers();
                let finishers = pass
                    .iter()
                    .filter(|&&i| usize::from(self.token_layers(i)) == full)
                    .count() as f64;
                let head_width = padded_width.unwrap_or(finishers);
                if head_width > 0.0 {
                    cost += lm.layer_time(self.reference_head_cost(), head_width, gpu);
                }
            }
            Some((pass, self.stretch(r, cost)))
        }

        /// The cost of stage-B replica `r`'s dispatched batch.
        fn reference_cost_b(&self, r: usize) -> SimDuration {
            let batch = &self.reps[r].bpass;
            let mut cost = self.reference_layers(self.cut..self.cfg.model.num_layers(), |k| {
                batch
                    .iter()
                    .filter(|j| usize::from(j.layers_executed) > k)
                    .count() as f64
            });
            cost += self.cfg.lm.layer_time(
                self.reference_head_cost(),
                batch.len() as f64,
                self.cfg.gpu,
            );
            self.stretch(r, cost)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `try_start_a` and `try_start_b` charge exactly what the
        /// per-layer reference charges, across models with and without
        /// an encoder, GPUs, batch targets, joins, exit deferral, preempt
        /// modes, debts up to the longest sequence, widths up to `b0`,
        /// and stacked slowdowns.
        #[test]
        fn table_priced_passes_match_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = [zoo::t5, zoo::calm_t5, zoo::llama31_8b, zoo::llama31_8b_ee]
                [rng.gen_range(0usize..4)]();
            let mask = (0..model.num_ramps()).map(|_| rng.gen_bool(0.7)).collect();
            let ctrl = RampController::with_mask(mask, RampStyle::Independent);
            let l = lm();
            let layers = model.num_layers();
            let enc = model.autoreg().expect("autoreg").encoder_layers;
            let join = [
                JoinPolicy::Continuous,
                JoinPolicy::Window { padded: true },
                JoinPolicy::Window { padded: false },
            ][rng.gen_range(0usize..3)];
            let b0 = rng.gen_range(1usize..17);
            let mut cfg = base_cfg(&model, &ctrl, &l, join, b0, 1);
            cfg.gpu = [GpuKind::A6000, GpuKind::V100][rng.gen_range(0usize..2)];
            if join == JoinPolicy::Continuous && rng.gen_bool(0.5) {
                cfg.boundary = Some(rng.gen_range(enc + 1..layers));
                cfg.replicas_b = 1;
            }
            cfg.deferred_exits = rng.gen_bool(0.5);
            let mode = [PreemptMode::Recompute, PreemptMode::Swap][rng.gen_range(0usize..2)];
            cfg.kv = rng.gen_bool(0.8).then_some(KvPlan {
                capacity_tokens: 64,
                bytes_per_token: model.autoreg().expect("autoreg").kv_bytes_per_token,
                mode,
            });
            let specs: Vec<SequenceSpec> = (0..rng.gen_range(1u64..40))
                .map(|id| SequenceSpec {
                    id,
                    arrival: SimTime::ZERO,
                    tokens: (0..rng.gen_range(1usize..12))
                        .map(|_| TokenJourney {
                            layers_executed: depth(rng.gen_range(1..layers + 1)),
                        })
                        .collect(),
                })
                .collect();
            let longest = specs.iter().map(|s| s.tokens.len()).max().expect("nonempty");
            // Stacked slowdowns on replica 0 and, when split, on stage-B
            // replica 1, all open from the start.
            let (on, off) = (SimTime::ZERO, SimTime::from_secs(1));
            for r in 0..1 + cfg.replicas_b {
                for _ in 0..rng.gen_range(0usize..4) {
                    let f = rng.gen_range(0.5..4.0);
                    cfg.fault_plan = std::mem::take(&mut cfg.fault_plan).slowdown(r, f, on, off);
                }
            }

            let mut obs = NullObserver;
            let mut d = Tokens::new(&cfg, &specs, &mut obs);
            let core = &mut d.core;
            for i in 0..cfg.fault_plan.len() {
                core.faults.apply(FaultAction::Start(i), on, &mut core.acc, &mut *core.obs);
            }
            // Stage A: a random resident set on replica 0 (at most b0
            // members in a window, as admission keeps it), with fresh
            // joiners and debts up to the longest sequence.
            let cap = match join {
                JoinPolicy::Continuous => usize::MAX,
                JoinPolicy::Window { .. } => b0,
            };
            for (i, spec) in specs.iter().enumerate() {
                if rng.gen_bool(0.3) || d.reps[0].resident.len() == cap {
                    continue;
                }
                let state = match rng.gen_range(0usize..6) {
                    0 => SState::Done,
                    1 => SState::Blocked { home: Some(0) },
                    _ => SState::Running { home: 0 },
                };
                d.rt[i].state = state;
                d.reps[0].resident.push(i);
                d.rt[i].encoded = rng.gen_bool(0.5);
                d.rt[i].next_token = rng.gen_range(0..spec.tokens.len());
                if rng.gen_bool(0.3) {
                    d.rt[i].debt = rng.gen_range(1..longest + 1);
                }
            }
            d.reps[0].carry = SimDuration::from_nanos(rng.gen_range(0u64..2_000_000));
            let expected = d.reference_pass_a(0);
            d.try_start_a(0);
            let got = d.core.reps[0].busy.then(|| (d.reps[0].pass.clone(), d.reps[0].pass_cost));
            prop_assert_eq!(&got, &expected);
            for &i in &d.reps[0].pass {
                prop_assert!(d.rt[i].encoded && d.rt[i].debt == 0);
            }

            // Stage B: one fused batch of at most b0 jobs.
            if let Some(cut) = cfg.boundary {
                let size = rng.gen_range(1..b0 + 1);
                // A buffer targeting `size` hands the whole batch over.
                d.bbuf = FusionBuffer::new(size);
                for id in 0..size as u64 {
                    let job = SimSample {
                        id,
                        arrival: SimTime::ZERO,
                        layers_executed: depth(rng.gen_range(cut..layers + 1)),
                        exited_early: false,
                        correct: true,
                        output_tokens: 1,
                    };
                    d.bbuf.push(job, SimTime::ZERO);
                }
                d.try_start_b();
                prop_assert!(d.core.reps[1].busy);
                prop_assert_eq!(d.reps[1].pass_cost, d.reference_cost_b(1));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Token serving loses no sequence under decoded fault plans:
        /// single- and two-stage splits, continuous joins and padded and
        /// unpadded windows, random boundaries, and KV budgets that
        /// preempt. Every sequence completes or is left over.
        #[test]
        fn token_serving_conserves_sequences_under_decoded_plans(
            words in proptest::collection::vec(0u64..u64::MAX, 0..6),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let calm = zoo::calm_t5();
            let ctrl = RampController::all_enabled(calm.num_ramps(), RampStyle::Independent);
            let l = lm();
            let layers = calm.num_layers();
            let enc = calm.autoreg().expect("autoreg").encoder_layers;
            let join = [
                JoinPolicy::Continuous,
                JoinPolicy::Window { padded: true },
                JoinPolicy::Window { padded: false },
            ][rng.gen_range(0usize..3)];
            let mut cfg = base_cfg(&calm, &ctrl, &l, join, rng.gen_range(1usize..9), rng.gen_range(1usize..4));
            if join == JoinPolicy::Continuous && rng.gen_bool(0.6) {
                cfg.boundary = Some(rng.gen_range(enc + 1..layers));
                cfg.replicas_b = rng.gen_range(1usize..3);
                cfg.deferred_exits = true;
            }
            let mode = [PreemptMode::Recompute, PreemptMode::Swap][rng.gen_range(0usize..2)];
            cfg.kv = rng.gen_bool(0.7).then(|| KvPlan {
                capacity_tokens: rng.gen_range(4usize..48),
                bytes_per_token: calm.autoreg().expect("autoreg").kv_bytes_per_token,
                mode,
            });
            let stages = 1 + usize::from(cfg.boundary.is_some());
            cfg.fault_plan =
                decoded_fault_plan(&words, cfg.replicas_a + cfg.replicas_b, stages, 300);
            let specs: Vec<SequenceSpec> = (0..rng.gen_range(1u64..24))
                .map(|id| SequenceSpec {
                    id,
                    arrival: SimTime::ZERO,
                    tokens: (0..rng.gen_range(1usize..10))
                        .map(|_| TokenJourney {
                            layers_executed: depth(rng.gen_range(enc + 1..layers + 1)),
                        })
                        .collect(),
                })
                .collect();

            let out = run_continuous(&cfg, &specs, &mut NullObserver);
            prop_assert_eq!(out.report.completed + out.leftover, specs.len() as u64);
        }
    }

    fn lm() -> LatencyModel {
        LatencyModel::new()
    }

    /// A test depth as a journey's `u16`.
    fn depth(layers: usize) -> u16 {
        u16::try_from(layers).expect("test models have at most u16::MAX layers")
    }

    fn seqs(n: usize, tokens: usize, layers: usize) -> Vec<SequenceSpec> {
        (0..n)
            .map(|i| SequenceSpec {
                id: i as u64,
                arrival: SimTime::ZERO,
                tokens: vec![
                    TokenJourney {
                        layers_executed: depth(layers)
                    };
                    tokens
                ],
            })
            .collect()
    }

    fn base_cfg<'a>(
        model: &'a EeModel,
        ctrl: &'a RampController,
        lm: &'a LatencyModel,
        join: JoinPolicy,
        b0: usize,
        replicas: usize,
    ) -> ContinuousConfig<'a> {
        ContinuousConfig {
            model,
            ctrl,
            gpu: GpuKind::A6000,
            lm,
            join,
            b0,
            replicas_a: replicas,
            boundary: None,
            replicas_b: 0,
            deferred_exits: false,
            kv: None,
            slo: SimDuration::from_secs(86_400),
            fault_plan: FaultPlan::new(),
            b_max_wait: None,
        }
    }

    #[test]
    fn padded_window_matches_closed_form() {
        // 8 equal sequences of 2 tokens on one replica at b0=4, no exits:
        // 2 windows, each costing enc(4) + 2 * (decoder layers + head at 4).
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Window { padded: true }, 4, 1);
        let n = t5.num_layers();
        let out = run_continuous(&cfg, &seqs(8, 2, n), &mut crate::kernel::NullObserver);
        assert_eq!(out.report.completed, 8);
        assert_eq!(out.report.tokens_generated, 16);
        assert_eq!(out.leftover, 0);
        let enc = t5.autoreg().unwrap().encoder_layers;
        let per_layer = |k: usize| {
            let sp = t5.layers()[k];
            l.layer_time(sp.work_us + sp.fixed_us, 4.0, GpuKind::A6000)
        };
        let head = t5.autoreg().unwrap().lm_head;
        let mut pass = l.layer_time(head.work_us + head.fixed_us, 4.0, GpuKind::A6000);
        for k in enc..n {
            pass += per_layer(k);
        }
        let mut encoder = SimDuration::ZERO;
        for k in 0..enc {
            encoder += per_layer(k);
        }
        let expected = (encoder + pass + pass).mul_f64(2.0);
        assert_eq!(out.report.duration, expected);
    }

    #[test]
    fn tokens_are_generated_exactly_once() {
        let calm = zoo::calm_t5();
        let ctrl = RampController::all_enabled(calm.num_ramps(), RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&calm, &ctrl, &l, JoinPolicy::Continuous, 4, 2);
        cfg.fault_plan = FaultPlan::new()
            .crash(0, SimTime::from_millis(40))
            .recover(0, SimTime::from_millis(200));
        // Varied per-token depths.
        let specs: Vec<SequenceSpec> = (0..12)
            .map(|i| SequenceSpec {
                id: i,
                arrival: SimTime::ZERO,
                tokens: (0..3)
                    .map(|t| TokenJourney {
                        layers_executed: depth(9 + ((i as usize + t) % 8)),
                    })
                    .collect(),
            })
            .collect();
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &specs, &mut log);
        assert_eq!(out.report.completed, 12);
        assert_eq!(out.report.tokens_generated, 36);
        let mut seen = std::collections::BTreeSet::new();
        for (_, e) in &log.events {
            if let KernelEvent::TokenGenerated { sample, index } = e {
                assert!(seen.insert((*sample, *index)), "token served twice");
            }
        }
        assert_eq!(seen.len(), 36);
        assert_eq!(out.report.faults_injected, 2);
    }

    #[test]
    fn kv_pressure_preempts_and_everyone_still_finishes() {
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 4, 1);
        // Budget for ~6 resident tokens while 4 sequences of 8 tokens run.
        cfg.kv = Some(KvPlan {
            capacity_tokens: 6,
            bytes_per_token: 49_152.0,
            mode: PreemptMode::Recompute,
        });
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &seqs(4, 8, t5.num_layers()), &mut log);
        assert_eq!(out.report.completed, 4);
        assert_eq!(out.report.tokens_generated, 32);
        assert!(out.report.kv_preemptions > 0);
        let preempts = log.count(|e| matches!(e, KernelEvent::KvPreempted { .. }));
        let admits = log.count(|e| matches!(e, KernelEvent::KvAdmitted { .. }));
        assert_eq!(preempts as u64, out.report.kv_preemptions);
        assert!(admits >= 4, "every join passes admission");
        // Swap mode also completes, paying PCIe instead of recompute.
        cfg.kv = Some(KvPlan {
            capacity_tokens: 6,
            bytes_per_token: 49_152.0,
            mode: PreemptMode::Swap,
        });
        let swap = run_continuous(&cfg, &seqs(4, 8, t5.num_layers()), &mut EventLog::new());
        assert_eq!(swap.report.completed, 4);
        assert!(swap.report.kv_preemptions > 0);
    }

    #[test]
    fn continuous_refill_beats_window_on_varied_lengths() {
        // Sequences of very different lengths: a window pays for its
        // longest member; continuous refills freed slots immediately.
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let specs: Vec<SequenceSpec> = (0..32)
            .map(|i| SequenceSpec {
                id: i,
                arrival: SimTime::ZERO,
                tokens: vec![
                    TokenJourney {
                        layers_executed: depth(t5.num_layers())
                    };
                    if i % 4 == 0 { 24 } else { 4 }
                ],
            })
            .collect();
        let win = base_cfg(&t5, &ctrl, &l, JoinPolicy::Window { padded: true }, 8, 2);
        let cont = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 8, 2);
        let w = run_continuous(&win, &specs, &mut crate::kernel::NullObserver);
        let c = run_continuous(&cont, &specs, &mut crate::kernel::NullObserver);
        assert!(
            c.report.goodput() > w.report.goodput(),
            "continuous {} vs window {}",
            c.report.goodput(),
            w.report.goodput()
        );
    }

    #[test]
    fn two_stage_split_transfers_and_completes() {
        let calm = zoo::calm_t5();
        let ctrl = RampController::all_enabled(calm.num_ramps(), RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&calm, &ctrl, &l, JoinPolicy::Continuous, 4, 3);
        cfg.boundary = Some(11);
        cfg.replicas_b = 1;
        cfg.deferred_exits = true;
        // Half the tokens cross layer 11.
        let specs: Vec<SequenceSpec> = (0..16)
            .map(|i| SequenceSpec {
                id: i,
                arrival: SimTime::ZERO,
                tokens: (0..4)
                    .map(|t| TokenJourney {
                        layers_executed: if (i as usize + t).is_multiple_of(2) {
                            10
                        } else {
                            16
                        },
                    })
                    .collect(),
            })
            .collect();
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &specs, &mut log);
        assert_eq!(out.report.completed, 16);
        assert_eq!(out.report.tokens_generated, 64);
        assert_eq!(out.boundary_crossings, 32);
        assert!(log.count(|e| matches!(e, KernelEvent::StageTransfer { .. })) > 0);
        assert!(log.count(|e| matches!(e, KernelEvent::ExecStart { stage: 1, .. })) > 0);
    }

    #[test]
    fn permanent_crash_of_all_replicas_strands_but_never_loses_work() {
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let mut cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 2, 1);
        cfg.fault_plan = FaultPlan::new().crash(0, SimTime::from_millis(30));
        let out = run_continuous(&cfg, &seqs(6, 4, t5.num_layers()), &mut EventLog::new());
        assert_eq!(out.report.completed + out.leftover, 6);
        assert!(out.leftover > 0, "the lone replica died; work must strand");
    }

    #[test]
    fn overlapping_stalls_hold_the_stage_until_the_last_one_ends() {
        let t5 = zoo::t5();
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let l = lm();
        let ms = SimTime::from_millis;
        // Overlapping windows, and back-to-back ones whose shared instant
        // must not let a pass slip in between.
        for (second_from, held_from) in [(20, 50), (50, 10)] {
            let mut cfg = base_cfg(&t5, &ctrl, &l, JoinPolicy::Continuous, 4, 2);
            cfg.fault_plan =
                FaultPlan::new()
                    .stall(0, ms(10), ms(50))
                    .stall(0, ms(second_from), ms(80));
            let mut log = EventLog::new();
            let out = run_continuous(&cfg, &seqs(16, 12, t5.num_layers()), &mut log);
            assert_eq!(out.report.completed, 16);
            let starts: Vec<SimTime> = log
                .events
                .iter()
                .filter(|(_, e)| matches!(e, KernelEvent::ExecStart { stage: 0, .. }))
                .map(|(t, _)| *t)
                .collect();
            let held = ms(held_from)..ms(80);
            assert!(
                starts.iter().all(|t| !held.contains(t)),
                "a pass began while the second stall still held the stage"
            );
            assert!(starts.iter().any(|t| *t >= held.end), "work resumes after");
        }
    }
}
