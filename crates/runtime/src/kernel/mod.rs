//! The serving kernel: one event-driven loop, policy-free.
//!
//! Everything the runtime serves — the Vanilla/NaiveEe/Plan strategies of
//! [`crate::engine::ServingSim`], open and closed loop — runs through the
//! single [`Kernel`] event loop here, driven by
//! [`e3_simcore::EventQueue`]. The loop owns only *mechanism*: queues,
//! replicas, timers, transfers, backpressure. Every *decision* is
//! delegated through a policy seam:
//!
//! * [`AdmissionPolicy`] — admit or drop a sample at dispatch time
//!   ([`AdmitAll`], [`SloSlackAdmission`]);
//! * [`BatchingPolicy`] — how batches form from waiting samples
//!   ([`FusionBatching`]);
//! * [`StragglerPolicy`] — which replicas get excluded
//!   ([`NoStragglerDetection`], [`RelativeSlowdown`]).
//!
//! A [`RunObserver`] receives the typed [`KernelEvent`] stream (arrival,
//! admit, drop, batch-formed, fusion, exec start/done, stage transfer,
//! completion) after each transition; observation cannot perturb
//! scheduling. Metrics funnel through the shared [`RunAccumulator`],
//! which the serial barrier driver ([`crate::serial`]) reuses so both
//! execution modes account identically.
//!
//! A [`FaultPlan`] reaches this loop and the continuous-batching driver
//! ([`run_continuous`]) through one fault state in [`faults`]: it
//! schedules every start and end, counts each entry, and holds the open
//! stall, outage, slowdown and gray windows. Each loop keeps only its
//! reactions. Here a crash re-routes the replica's batches, a recovery
//! re-admits it, and a lifted stall kicks the stage's replicas.

mod accounting;
mod continuous;
pub mod faults;
mod observer;
mod policy;

pub use accounting::RunAccumulator;
pub use continuous::{
    run_continuous, ContinuousConfig, ContinuousOutcome, JoinPolicy, KvPlan, PreemptMode,
    SequenceSpec, TokenJourney,
};
pub use faults::{ExclusionReason, FaultEvent, FaultPlan};
pub use observer::{
    EventLog, KernelEvent, NullObserver, OffsetObserver, RunObserver, TagObserver, TaggedEventLog,
    TeeObserver,
};
pub use policy::{
    AdmissionPolicy, AdmitAll, BatchingPolicy, FusionBatching, NoStragglerDetection,
    RelativeSlowdown, ReplicaPerf, SloSlackAdmission, StragglerPolicy, FUSION_MAX_WAIT,
};

use std::collections::VecDeque;

use e3_hardware::GpuKind;
use e3_profiler::HealthEstimator;
use e3_simcore::{EventQueue, SimQueue, SimTime};

use crate::batch::Batch;
use crate::engine::ServingSim;
use crate::executor::execute_batch;
use crate::sample::SimSample;
use faults::{FaultAction, FaultReaction, FaultState};

/// Recycled sample buffers kept per kernel run; bounds pool growth when a
/// fault burst strands many batches at once.
const SAMPLE_POOL_CAP: usize = 64;

/// The three policy seams of one kernel run, boxed.
pub(crate) struct KernelPolicies<'p> {
    /// Admit-or-drop decisions at dispatch time.
    pub(crate) admission: Box<dyn AdmissionPolicy + 'p>,
    /// Batch formation at the frontend and at fusion points.
    pub(crate) batching: Box<dyn BatchingPolicy + 'p>,
    /// Straggler exclusion.
    pub(crate) straggler: Box<dyn StragglerPolicy + 'p>,
}

#[derive(Debug, Clone)]
pub(crate) enum Ev {
    Arrival(usize),
    ExecDone {
        replica: usize,
        epoch: u32,
    },
    BatchReady {
        stage: usize,
        batch: Batch,
    },
    Flush {
        stage: usize,
    },
    Fault(FaultAction),
    TransferRetry {
        from_stage: usize,
        batch: Batch,
        attempt: u32,
    },
    /// An open circuit breaker's cooldown elapsed: enter the half-open
    /// probe phase (if still open).
    BreakerCooldown {
        replica: usize,
    },
    /// Check whether the batch `replica` started at `epoch` is still
    /// running past its expected service time; hedge it if so. Stale
    /// once the replica's epoch moves (completion, crash, or hedge
    /// cancellation).
    HedgeCheck {
        replica: usize,
        epoch: u32,
    },
}

/// State of a replica's circuit breaker (inert unless
/// [`crate::engine::ServingConfig::breaker`] is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; the health estimator is watched after every
    /// batch.
    Closed,
    /// Tripped: the replica is excluded until the cooldown elapses.
    Open,
    /// Probing: back in service with fresh health history; closes after
    /// `probes_left` more clean batches, re-trips on a slow probe.
    HalfOpen { probes_left: u32 },
}

struct Replica {
    stage: usize,
    gpu: GpuKind,
    queue: VecDeque<Batch>,
    busy: bool,
    running: Option<Batch>,
    excluded: bool,
    /// True while crashed: unlike a straggler (which may finish queued
    /// work), a crashed replica executes nothing until recovered.
    crashed: bool,
    /// Bumped whenever the current execution (if any) becomes invalid or
    /// finishes — per completed batch, on crash, and on hedge
    /// cancellation — so a pending `ExecDone` or `HedgeCheck` for a
    /// superseded execution is recognized as stale and ignored.
    epoch: u32,
    /// When the current execution began (wall-clock health accounting).
    exec_started: SimTime,
    /// Circuit-breaker state (always `Closed` when breakers are off).
    breaker: BreakerState,
    /// The stage peer running the other copy of this replica's hedged
    /// batch, while a hedge pair is in flight. Symmetric.
    hedge_partner: Option<usize>,
    batches_done: u32,
    per_sample_secs_sum: f64,
}

/// One run of the serving event loop. Built by
/// [`crate::engine::ServingSim`] with the materialized backlog and the
/// chosen policies; [`Kernel::run`] drains the event queue and returns
/// the filled [`RunAccumulator`].
///
/// Generic over the event queue so differential tests can replay the
/// identical run on the binary-heap [`e3_simcore::ReferenceQueue`] and
/// compare event streams against the calendar-queue default.
pub(crate) struct Kernel<'a, 'p, Q: SimQueue<Ev> = EventQueue<Ev>> {
    sim: &'a ServingSim<'a>,
    policies: KernelPolicies<'p>,
    observer: &'p mut dyn RunObserver,
    q: Q,
    replicas: Vec<Replica>,
    stage_replicas: Vec<Vec<usize>>,
    flush_pending: Vec<bool>,
    backlog: Vec<SimSample>,
    backlog_cursor: usize,
    /// Samples admitted at stage 0 and not yet completed; the closed-loop
    /// feeder stops pulling when this reaches `in_flight_cap`
    /// (backpressure, so an unbalanced plan builds bounded queues instead
    /// of unbounded ones).
    in_flight: usize,
    in_flight_cap: usize,
    /// The fault plan's schedule, counts and open windows.
    faults: FaultState<'a>,
    acc: RunAccumulator,
    /// Recycled sample buffers: batches formed on the hot path draw their
    /// `Vec<SimSample>` here instead of the allocator, and fully-completed
    /// batches return theirs. Keeps the steady-state loop allocation-free.
    sample_pool: Vec<Vec<SimSample>>,
    /// Reused scratch for straggler peer comparisons.
    perf_scratch: Vec<ReplicaPerf>,
    /// Wall-clock health estimator feeding the circuit breakers; `None`
    /// (and zero-cost) unless [`crate::engine::ServingConfig::breaker`]
    /// is set.
    health: Option<HealthEstimator>,
    /// Remaining per-run transfer-retry tokens; `None` = unbounded
    /// (per-transfer attempt limits still apply).
    retry_tokens: Option<u32>,
}

impl<'a, 'p, Q: SimQueue<Ev>> Kernel<'a, 'p, Q> {
    pub(crate) fn new(
        sim: &'a ServingSim<'a>,
        backlog: Vec<SimSample>,
        policies: KernelPolicies<'p>,
        observer: &'p mut dyn RunObserver,
    ) -> Self {
        let mut replicas = Vec::new();
        let mut stage_replicas = Vec::new();
        for (si, st) in sim.stages.iter().enumerate() {
            let mut ids = Vec::new();
            for &gpu in &st.replicas {
                let id = replicas.len();
                replicas.push(Replica {
                    stage: si,
                    gpu,
                    queue: VecDeque::new(),
                    busy: false,
                    running: None,
                    excluded: false,
                    crashed: false,
                    epoch: 0,
                    exec_started: SimTime::ZERO,
                    breaker: BreakerState::Closed,
                    hedge_partner: None,
                    batches_done: 0,
                    per_sample_secs_sum: 0.0,
                });
                ids.push(id);
            }
            stage_replicas.push(ids);
        }
        let num_stages = sim.stages.len();
        let num_replicas = replicas.len();
        Kernel {
            sim,
            policies,
            observer,
            q: Q::new(),
            replicas,
            stage_replicas,
            flush_pending: vec![false; num_stages],
            backlog,
            backlog_cursor: 0,
            in_flight: 0,
            in_flight_cap: (5 * num_replicas * sim.stages[0].target_batch).div_ceil(4),
            faults: FaultState::new(&sim.cfg.fault_plan, num_replicas, num_stages),
            acc: RunAccumulator::new(num_stages, num_replicas, sim.cfg.slo, true),
            sample_pool: Vec::new(),
            perf_scratch: Vec::new(),
            health: sim
                .cfg
                .breaker
                .map(|b| HealthEstimator::new(num_replicas, b.health)),
            retry_tokens: sim.cfg.retry_budget,
        }
    }

    /// Draws a cleared sample buffer from the pool (or the allocator).
    fn pool_get(&mut self) -> Vec<SimSample> {
        self.sample_pool.pop().unwrap_or_default()
    }

    /// Returns a drained sample buffer to the pool.
    fn pool_put(&mut self, mut v: Vec<SimSample>) {
        if self.sample_pool.len() < SAMPLE_POOL_CAP {
            v.clear();
            self.sample_pool.push(v);
        }
    }

    /// Drains the event queue; returns the filled accumulator.
    pub(crate) fn run(mut self) -> RunAccumulator {
        // Fault actions go on the queue first: at equal timestamps the
        // stable FIFO tie-break then applies a fault before any arrival
        // scheduled at the same instant, independent of plan contents.
        self.faults.schedule(&mut self.q, Ev::Fault);
        if self.sim.cfg.closed_loop {
            for k in 0..self.stage_replicas[0].len() {
                let r = self.stage_replicas[0][k];
                self.feed_closed_loop(r);
            }
        } else {
            for i in 0..self.backlog.len() {
                self.q.schedule(self.backlog[i].arrival, Ev::Arrival(i));
            }
        }
        while let Some(ev) = self.q.pop() {
            match ev.event {
                Ev::Arrival(i) => self.on_arrival(i),
                Ev::ExecDone { replica, epoch } => self.on_exec_done(replica, epoch),
                Ev::BatchReady { stage, batch } => self.on_batch_ready(stage, batch),
                Ev::Flush { stage } => self.on_flush(stage),
                Ev::Fault(action) => self.on_fault(action),
                Ev::TransferRetry {
                    from_stage,
                    batch,
                    attempt,
                } => self.on_transfer_retry(from_stage, batch, attempt),
                Ev::BreakerCooldown { replica } => self.on_breaker_cooldown(replica),
                Ev::HedgeCheck { replica, epoch } => self.on_hedge_check(replica, epoch),
            }
        }
        self.acc
    }

    fn now(&self) -> SimTime {
        self.q.now()
    }

    fn on_arrival(&mut self, i: usize) {
        let s = self.backlog[i];
        let now = self.now();
        self.observer
            .on_event(now, &KernelEvent::Arrival { sample: s.id });
        self.policies.batching.push(0, s, now);
        self.pump(0);
    }

    fn on_batch_ready(&mut self, stage: usize, mut batch: Batch) {
        let now = self.now();
        self.observer.on_event(
            now,
            &KernelEvent::Fusion {
                stage,
                size: batch.len(),
            },
        );
        for s in batch.samples.drain(..) {
            self.policies.batching.push(stage, s, now);
        }
        self.pool_put(batch.samples);
        self.pump(stage);
    }

    /// Forms full batches and routes them; arms a flush timer otherwise.
    fn pump(&mut self, stage: usize) {
        let now = self.now();
        while let Some(b) = self.policies.batching.take_full(stage, now) {
            self.observer.on_event(
                now,
                &KernelEvent::BatchFormed {
                    stage,
                    size: b.len(),
                    partial: false,
                },
            );
            self.route(stage, b);
        }
        self.arm_flush(stage);
    }

    fn arm_flush(&mut self, stage: usize) {
        let now = self.now();
        if !self.policies.batching.is_empty(stage) && !self.flush_pending[stage] {
            if let Some(at) = self.policies.batching.next_flush_at(stage, now) {
                self.q.schedule(at, Ev::Flush { stage });
                self.flush_pending[stage] = true;
            }
        }
    }

    fn on_flush(&mut self, stage: usize) {
        self.flush_pending[stage] = false;
        let now = self.now();
        if let Some(b) = self.policies.batching.take_due(stage, now) {
            self.observer.on_event(
                now,
                &KernelEvent::BatchFormed {
                    stage,
                    size: b.len(),
                    partial: true,
                },
            );
            self.route(stage, b);
        }
        self.arm_flush(stage);
    }

    /// Routes a batch to the least-loaded, non-excluded replica. With a
    /// configured [`crate::engine::ServingConfig::queue_cap`], a batch
    /// that would push even the least-loaded candidate past the bound is
    /// shed instead — admission absorbs overload as drops rather than
    /// letting queues grow without limit.
    fn route(&mut self, stage: usize, batch: Batch) {
        let rid = self.stage_replicas[stage]
            .iter()
            .copied()
            .filter(|&r| !self.replicas[r].excluded)
            .min_by_key(|&r| {
                (
                    self.replicas[r].queue.len() + usize::from(self.replicas[r].busy),
                    r,
                )
            })
            .unwrap_or(self.stage_replicas[stage][0]); // all excluded: fall back
        if let Some(cap) = self.sim.cfg.queue_cap {
            if self.replicas[rid].queue.len() >= cap {
                self.shed_batch(stage, batch);
                return;
            }
        }
        self.acc.record_dispatch(stage, batch.len() as f64);
        self.replicas[rid].queue.push_back(batch);
        self.acc
            .observe_replica_queue_depth(rid, self.replicas[rid].queue.len());
        let depth: usize = self.stage_replicas[stage]
            .iter()
            .map(|&r| self.replicas[r].queue.len())
            .sum();
        self.acc.observe_queue_depth(stage, depth);
        self.try_begin(rid);
    }

    /// Drops a whole batch at routing time (queue bound reached),
    /// attributed to the configured shed cause.
    fn shed_batch(&mut self, stage: usize, mut batch: Batch) {
        let now = self.now();
        self.acc.record_shed(batch.len(), self.sim.cfg.shed_cause);
        self.observer.on_event(
            now,
            &KernelEvent::BatchShed {
                stage,
                size: batch.len(),
            },
        );
        for s in batch.samples.drain(..) {
            self.in_flight = self.in_flight.saturating_sub(1);
            self.observer.on_event(
                now,
                &KernelEvent::Dropped {
                    sample: s.id,
                    stage,
                },
            );
        }
        self.pool_put(batch.samples);
        self.wake_feeders();
    }

    /// Starts the replica on its next queued batch, if idle. Crashed
    /// replicas and stalled stages start nothing (a straggler, by
    /// contrast, may still drain work already queued on it).
    fn try_begin(&mut self, rid: usize) {
        let stage = self.replicas[rid].stage;
        if self.replicas[rid].busy || self.replicas[rid].crashed || self.faults.stalled(stage) {
            return;
        }
        let now = self.now();
        loop {
            let Some(mut batch) = self.replicas[rid].queue.pop_front() else {
                // Idle: closed-loop stage-0 replicas self-feed.
                if stage == 0 && self.sim.cfg.closed_loop {
                    self.feed_closed_loop(rid);
                }
                return;
            };
            if !self.policies.admission.is_permissive() {
                // In-place compaction (samples are `Copy`): no per-batch
                // allocation on the admission-filtered path.
                let mut kept = 0;
                for i in 0..batch.samples.len() {
                    let s = batch.samples[i];
                    if self.policies.admission.admit(now, stage, &s) {
                        batch.samples[kept] = s;
                        kept += 1;
                    } else {
                        self.acc.record_drop();
                        self.observer.on_event(
                            now,
                            &KernelEvent::Dropped {
                                sample: s.id,
                                stage,
                            },
                        );
                    }
                }
                batch.samples.truncate(kept);
            }
            if batch.samples.is_empty() {
                self.pool_put(batch.samples);
                continue;
            }
            self.observer.on_event(
                now,
                &KernelEvent::Admitted {
                    stage,
                    size: batch.len(),
                },
            );
            self.start_exec(rid, batch);
            return;
        }
    }

    /// Pulls the next closed-loop batch from the backlog onto `rid`.
    fn feed_closed_loop(&mut self, rid: usize) {
        let stage = self.replicas[rid].stage;
        debug_assert_eq!(stage, 0);
        if self.replicas[rid].excluded {
            return; // stragglers and crashed replicas get no new work (§3.3)
        }
        if self.faults.stalled(0) {
            return; // stage stalled: nothing dispatches until it lifts
        }
        let target = self.sim.stages[0].target_batch;
        if self.backlog_cursor >= self.backlog.len() {
            return;
        }
        if self.in_flight + target > self.in_flight_cap {
            return; // backpressure: resume when completions drain
        }
        let now = self.now();
        let end = (self.backlog_cursor + target).min(self.backlog.len());
        let mut samples = self.pool_get();
        samples.reserve(end - self.backlog_cursor);
        for i in self.backlog_cursor..end {
            let mut s = self.backlog[i];
            s.arrival = now; // closed loop: latency measured from dispatch
            self.observer
                .on_event(now, &KernelEvent::Arrival { sample: s.id });
            samples.push(s);
        }
        self.backlog_cursor = end;
        self.in_flight += samples.len();
        self.acc.record_dispatch(0, samples.len() as f64);
        self.observer.on_event(
            now,
            &KernelEvent::BatchFormed {
                stage: 0,
                size: samples.len(),
                partial: false,
            },
        );
        let batch = Batch {
            samples,
            formed_at: now,
        };
        self.replicas[rid].queue.push_back(batch);
        self.start_next(rid);
    }

    fn start_next(&mut self, rid: usize) {
        if self.replicas[rid].busy
            || self.replicas[rid].crashed
            || self.faults.stalled(self.replicas[rid].stage)
        {
            return;
        }
        if let Some(batch) = self.replicas[rid].queue.pop_front() {
            self.start_exec(rid, batch);
        }
    }

    fn start_exec(&mut self, rid: usize, batch: Batch) {
        let stage = self.replicas[rid].stage;
        let spec = &self.sim.stages[stage];
        // Active transient slowdowns stack multiplicatively.
        let slowdown: f64 = self.faults.slowdowns(rid).product();
        let out = execute_batch(
            self.sim.model,
            &self.sim.ctrl,
            &self.sim.lm,
            &self.sim.lm.exit,
            self.replicas[rid].gpu,
            spec.layers.clone(),
            &batch.samples,
            spec.deferred_exits,
            slowdown,
        );
        // An active gray degradation stretches the *wall-clock* execution
        // time without touching the self-reported per-sample statistics:
        // the straggler watchdog keeps seeing a healthy replica while
        // completions genuinely drift late. The guard keeps gray-free
        // runs byte-identical (no float round-trip through mul_f64).
        let gray: f64 = self.faults.grays(rid).product();
        let wall = if gray != 1.0 {
            out.duration.mul_f64(gray)
        } else {
            out.duration
        };
        self.acc.record_busy(rid, wall, out.mean_occupancy);
        let n = batch.samples.len().max(1) as f64;
        self.replicas[rid].per_sample_secs_sum += out.duration.as_secs_f64() / n;
        self.replicas[rid].busy = true;
        let now = self.now();
        self.replicas[rid].exec_started = now;
        self.observer.on_event(
            now,
            &KernelEvent::ExecStart {
                replica: rid,
                stage,
                size: batch.len(),
            },
        );
        self.replicas[rid].running = Some(batch);
        self.q.schedule_after(
            wall,
            Ev::ExecDone {
                replica: rid,
                epoch: self.replicas[rid].epoch,
            },
        );
        // Hedged dispatch watches the *expected* service time: the check
        // fires while this batch still runs exactly when its wall clock
        // overran the prediction by more than the multiplier.
        if let Some(h) = self.sim.cfg.hedge {
            if self.replicas[rid].hedge_partner.is_none() && self.stage_replicas[stage].len() > 1 {
                self.q.schedule_after(
                    out.duration.mul_f64(h.multiplier),
                    Ev::HedgeCheck {
                        replica: rid,
                        epoch: self.replicas[rid].epoch,
                    },
                );
            }
        }
    }

    fn on_exec_done(&mut self, rid: usize, epoch: u32) {
        if epoch != self.replicas[rid].epoch {
            return; // stale: crashed or hedge-cancelled while this batch ran
        }
        let now = self.now();
        let stage = self.replicas[rid].stage;
        let stage_end = self.sim.stages[stage].layers.end;
        let mut batch = self.replicas[rid]
            .running
            .take()
            .expect("exec done without a running batch");
        self.replicas[rid].busy = false;
        self.replicas[rid].batches_done += 1;
        // Each completed execution moves the epoch: a pending HedgeCheck
        // for this batch is now stale.
        self.replicas[rid].epoch += 1;
        self.observer.on_event(
            now,
            &KernelEvent::ExecDone {
                replica: rid,
                stage,
                size: batch.len(),
            },
        );
        // Feed the wall-clock health estimator — gray degradations show
        // up here even though the self-reported statistics stay clean.
        if self.health.is_some() {
            let wall = now.saturating_since(self.replicas[rid].exec_started);
            let per_sample = wall.as_secs_f64() / batch.samples.len().max(1) as f64;
            if let Some(h) = self.health.as_mut() {
                h.observe(rid, per_sample);
            }
        }
        // First response wins: if this batch was half of a hedge pair,
        // this copy finished first — cancel the partner's copy (its
        // samples are the same requests and must count exactly once).
        if let Some(p) = self.replicas[rid].hedge_partner.take() {
            self.replicas[p].hedge_partner = None;
            self.acc.record_hedge_win();
            self.observer.on_event(
                now,
                &KernelEvent::HedgeWon {
                    replica: rid,
                    size: batch.len(),
                },
            );
            if let Some(losing) = self.replicas[p].running.take() {
                self.replicas[p].epoch += 1; // invalidate its ExecDone
                self.replicas[p].busy = false;
                self.acc.record_hedge_cancel();
                self.observer.on_event(
                    now,
                    &KernelEvent::HedgeCancelled {
                        replica: p,
                        size: losing.samples.len(),
                    },
                );
                self.pool_put(losing.samples);
                self.try_begin(p);
            }
        }

        // Completions and survivor compaction in one in-place pass, in the
        // original sample order (samples are `Copy`). The surviving batch
        // reuses its own buffer downstream; a fully-completed batch returns
        // its buffer to the pool. No allocation either way.
        let mut survivors = 0;
        for i in 0..batch.samples.len() {
            let s = batch.samples[i];
            if s.finishes_before(stage_end) {
                self.complete(s, now);
            } else {
                batch.samples[survivors] = s;
                survivors += 1;
            }
        }
        batch.samples.truncate(survivors);
        if batch.samples.is_empty() {
            self.pool_put(batch.samples);
        } else {
            self.send_downstream(stage, batch.samples, now);
        }

        if self.policies.straggler.enabled() {
            self.maybe_exclude_straggler(rid);
        }
        if self.sim.cfg.breaker.is_some() {
            self.breaker_after_batch(rid);
        }
        self.try_begin(rid);
        // Completions may have released backpressure: wake idle stage-0
        // feeders.
        self.wake_feeders();
    }

    /// Advances `rid`'s circuit breaker after a completed batch: a
    /// closed breaker trips when the health estimator's phi crosses the
    /// threshold; a half-open breaker re-trips on an implausibly slow
    /// probe (judged without the warmup floor — the probe phase starts
    /// from reset history) or closes after enough clean ones.
    fn breaker_after_batch(&mut self, rid: usize) {
        let Some(bc) = self.sim.cfg.breaker else {
            return;
        };
        let now = self.now();
        match self.replicas[rid].breaker {
            BreakerState::Closed => {
                let phi = self.health.as_ref().map_or(0.0, |h| h.phi(rid));
                if !self.replicas[rid].excluded && !self.replicas[rid].crashed && phi >= bc.phi_trip
                {
                    self.trip_breaker(rid);
                }
            }
            BreakerState::HalfOpen { probes_left } => {
                let phi = self.health.as_ref().map_or(0.0, |h| h.phi_unwarmed(rid));
                if phi >= bc.phi_trip {
                    self.trip_breaker(rid); // probe failed: back to open
                } else if probes_left <= 1 {
                    self.replicas[rid].breaker = BreakerState::Closed;
                    self.acc.record_breaker_close();
                    self.observer
                        .on_event(now, &KernelEvent::BreakerClosed { replica: rid });
                } else {
                    self.replicas[rid].breaker = BreakerState::HalfOpen {
                        probes_left: probes_left - 1,
                    };
                }
            }
            // A batch that was already running when the breaker tripped
            // drained; no transition until the cooldown fires.
            BreakerState::Open => {}
        }
    }

    /// Trips `rid`'s breaker: exclude it, re-route its queued work, and
    /// arm the cooldown timer. Its running batch (if any) may still
    /// finish — exclusion only stops new assignments, like a straggler.
    fn trip_breaker(&mut self, rid: usize) {
        let bc = self
            .sim
            .cfg
            .breaker
            .expect("breaker tripped without config");
        let now = self.now();
        let stage = self.replicas[rid].stage;
        self.replicas[rid].breaker = BreakerState::Open;
        self.replicas[rid].excluded = true;
        self.acc.record_breaker_trip();
        self.acc.record_exclusion(rid, now);
        self.observer
            .on_event(now, &KernelEvent::BreakerTripped { replica: rid });
        self.observer.on_event(
            now,
            &KernelEvent::ReplicaExcluded {
                replica: rid,
                reason: ExclusionReason::Breaker,
            },
        );
        self.q
            .schedule_after(bc.cooldown, Ev::BreakerCooldown { replica: rid });
        let queued: Vec<Batch> = self.replicas[rid].queue.drain(..).collect();
        for b in queued {
            self.route(stage, b);
        }
    }

    /// An open breaker's cooldown elapsed: re-admit the replica in the
    /// half-open probe phase with fresh health history. A breaker the
    /// meantime closed (crash superseded it) or already probing ignores
    /// the stale timer.
    fn on_breaker_cooldown(&mut self, rid: usize) {
        let Some(bc) = self.sim.cfg.breaker else {
            return;
        };
        if self.replicas[rid].breaker != BreakerState::Open || self.replicas[rid].crashed {
            return;
        }
        let now = self.now();
        self.replicas[rid].breaker = BreakerState::HalfOpen {
            probes_left: bc.probe_batches,
        };
        if let Some(h) = self.health.as_mut() {
            h.reset(rid);
        }
        self.replicas[rid].excluded = false;
        self.acc.record_recovery(rid, now);
        self.acc.record_breaker_probe();
        self.observer
            .on_event(now, &KernelEvent::BreakerProbe { replica: rid });
        self.observer
            .on_event(now, &KernelEvent::ReplicaRecovered { replica: rid });
        self.try_begin(rid);
        self.wake_feeders();
    }

    /// A hedge timer fired: if the batch `rid` started at `epoch` is
    /// still running (it overran its expected service time), dispatch a
    /// copy to an idle healthy stage peer. First copy to finish wins.
    fn on_hedge_check(&mut self, rid: usize, epoch: u32) {
        if self.replicas[rid].epoch != epoch
            || !self.replicas[rid].busy
            || self.replicas[rid].hedge_partner.is_some()
        {
            return; // the batch finished, or is already hedged
        }
        let stage = self.replicas[rid].stage;
        if self.faults.stalled(stage) {
            return;
        }
        // Deterministic backup choice: the lowest-id idle, healthy,
        // unpaired stage peer. No idle peer: hedging would only queue a
        // duplicate behind other work, so skip.
        let backup = self.stage_replicas[stage]
            .iter()
            .copied()
            .filter(|&r| {
                r != rid
                    && !self.replicas[r].busy
                    && !self.replicas[r].excluded
                    && !self.replicas[r].crashed
                    && self.replicas[r].queue.is_empty()
                    && self.replicas[r].hedge_partner.is_none()
            })
            .min();
        let Some(backup) = backup else {
            // No idle peer right now. The batch is still overrunning, so
            // re-arm the check one more expected-service-time out — a peer
            // freeing up later can still rescue it. The epoch guard stops
            // the re-arm loop the moment the batch resolves.
            if let Some(h) = self.sim.cfg.hedge {
                let elapsed = self.now().saturating_since(self.replicas[rid].exec_started);
                self.q.schedule_after(
                    elapsed.mul_f64(1.0 / h.multiplier),
                    Ev::HedgeCheck {
                        replica: rid,
                        epoch,
                    },
                );
            }
            return;
        };
        let now = self.now();
        let mut samples = self.pool_get();
        {
            let src = self.replicas[rid]
                .running
                .as_ref()
                .expect("busy replica without a running batch");
            samples.extend_from_slice(&src.samples);
        }
        let size = samples.len();
        self.acc.record_hedge_dispatch();
        self.observer.on_event(
            now,
            &KernelEvent::HedgeDispatched {
                primary: rid,
                backup,
                size,
            },
        );
        self.replicas[rid].hedge_partner = Some(backup);
        self.replicas[backup].hedge_partner = Some(rid);
        self.start_exec(
            backup,
            Batch {
                samples,
                formed_at: now,
            },
        );
    }

    /// Hands survivors of `from_stage` to the interconnect. A healthy
    /// link schedules the fused batch at the next stage after the
    /// transfer time; a downed link ([`FaultEvent::LinkDown`]) parks the
    /// batch on a backed-off retry timer instead.
    fn send_downstream(&mut self, from_stage: usize, survivors: Vec<SimSample>, now: SimTime) {
        let next = from_stage + 1;
        assert!(
            next < self.sim.stages.len(),
            "survivors past the last stage"
        );
        if self.faults.link_down(from_stage) {
            let retry = self.sim.cfg.transfer_retry;
            let batch = Batch {
                samples: survivors,
                formed_at: now,
            };
            if !self.take_retry_token() {
                self.abort_transfer(from_stage, batch, true);
                return;
            }
            self.acc.record_transfer_retry();
            self.observer.on_event(
                now,
                &KernelEvent::TransferRetried {
                    from_stage,
                    attempt: 1,
                    size: batch.len(),
                },
            );
            self.q.schedule_after(
                retry.backoff_for(1),
                Ev::TransferRetry {
                    from_stage,
                    batch,
                    attempt: 1,
                },
            );
            return;
        }
        let stage_end = self.sim.stages[from_stage].layers.end;
        let bytes = self.sim.model.boundary_bytes(stage_end - 1);
        let tx = self
            .sim
            .tm
            .batch_transfer_time(bytes, survivors.len() as f64);
        self.observer.on_event(
            now,
            &KernelEvent::StageTransfer {
                from_stage,
                to_stage: next,
                size: survivors.len(),
            },
        );
        let b = Batch {
            samples: survivors,
            formed_at: now,
        };
        self.q.schedule_after(
            tx,
            Ev::BatchReady {
                stage: next,
                batch: b,
            },
        );
    }

    /// A parked transfer's retry timer fired: send if the link is back,
    /// back off again if not, abort (dropping the samples) once the
    /// per-transfer attempt limit — or the per-run retry budget — is
    /// spent.
    fn on_transfer_retry(&mut self, from_stage: usize, batch: Batch, attempt: u32) {
        let now = self.now();
        let retry = self.sim.cfg.transfer_retry;
        if !self.faults.link_down(from_stage) {
            self.send_downstream(from_stage, batch.samples, now);
            return;
        }
        if attempt >= retry.max_attempts {
            self.abort_transfer(from_stage, batch, false);
            return;
        }
        if !self.take_retry_token() {
            self.abort_transfer(from_stage, batch, true);
            return;
        }
        let next_attempt = attempt + 1;
        self.acc.record_transfer_retry();
        self.observer.on_event(
            now,
            &KernelEvent::TransferRetried {
                from_stage,
                attempt: next_attempt,
                size: batch.len(),
            },
        );
        self.q.schedule_after(
            retry.backoff_for(next_attempt),
            Ev::TransferRetry {
                from_stage,
                batch,
                attempt: next_attempt,
            },
        );
    }

    /// Spends one transfer-retry token; always succeeds when no budget
    /// is configured.
    fn take_retry_token(&mut self) -> bool {
        match self.retry_tokens.as_mut() {
            None => true,
            Some(t) if *t > 0 => {
                *t -= 1;
                true
            }
            Some(_) => false,
        }
    }

    /// Aborts a parked (or about-to-park) transfer, dropping its
    /// samples. `budget_exhausted` attributes the abort to the per-run
    /// retry budget rather than the transfer's own attempt limit.
    fn abort_transfer(&mut self, from_stage: usize, mut batch: Batch, budget_exhausted: bool) {
        let now = self.now();
        self.acc
            .record_transfer_abort(batch.len(), budget_exhausted);
        self.observer.on_event(
            now,
            &KernelEvent::TransferAborted {
                from_stage,
                size: batch.len(),
            },
        );
        for s in batch.samples.drain(..) {
            self.in_flight = self.in_flight.saturating_sub(1);
            self.observer.on_event(
                now,
                &KernelEvent::Dropped {
                    sample: s.id,
                    stage: from_stage,
                },
            );
        }
        self.pool_put(batch.samples);
        self.wake_feeders();
    }

    /// Wakes idle closed-loop stage-0 feeders (drops or completions may
    /// have released backpressure). A no-op in open loop.
    fn wake_feeders(&mut self) {
        if self.sim.cfg.closed_loop {
            for k in 0..self.stage_replicas[0].len() {
                let r = self.stage_replicas[0][k];
                if !self.replicas[r].busy && self.replicas[r].queue.is_empty() {
                    self.feed_closed_loop(r);
                }
            }
        }
    }

    fn complete(&mut self, s: SimSample, now: SimTime) {
        self.in_flight = self.in_flight.saturating_sub(1);
        let in_slo = self.acc.complete(&s, now);
        self.observer.on_event(
            now,
            &KernelEvent::Completion {
                sample: s.id,
                within_slo: in_slo,
            },
        );
    }

    /// Judges the replica that just finished a batch against its stage
    /// peers; on a straggler verdict, excludes it and re-routes its queued
    /// work (§3.3 straggler handling).
    fn maybe_exclude_straggler(&mut self, rid: usize) {
        let stage = self.replicas[rid].stage;
        if self.stage_replicas[stage].len() < 2 || self.replicas[rid].excluded {
            return;
        }
        let perf = |r: &Replica| ReplicaPerf {
            batches_done: r.batches_done,
            per_sample_secs_sum: r.per_sample_secs_sum,
        };
        let candidate = perf(&self.replicas[rid]);
        let mut peers = std::mem::take(&mut self.perf_scratch);
        peers.clear();
        peers.extend(
            self.stage_replicas[stage]
                .iter()
                .filter(|&&r| r != rid && !self.replicas[r].excluded)
                .map(|&r| perf(&self.replicas[r])),
        );
        let exclude = self.policies.straggler.should_exclude(candidate, &peers);
        self.perf_scratch = peers;
        if exclude {
            self.replicas[rid].excluded = true;
            self.acc.record_straggler(rid);
            self.acc.record_exclusion(rid, self.now());
            self.observer.on_event(
                self.now(),
                &KernelEvent::ReplicaExcluded {
                    replica: rid,
                    reason: ExclusionReason::Straggler,
                },
            );
            // Reassign its queued batches.
            let queued: Vec<Batch> = self.replicas[rid].queue.drain(..).collect();
            for b in queued {
                self.route(stage, b);
            }
        }
    }

    /// Applies one scheduled fault action and reacts to what it changed.
    fn on_fault(&mut self, action: FaultAction) {
        let now = self.now();
        match self
            .faults
            .apply(action, now, &mut self.acc, &mut *self.observer)
        {
            Some(FaultReaction::Crash(rid)) => self.crash_replica(rid),
            Some(FaultReaction::Recover(rid)) => self.recover_replica(rid),
            Some(FaultReaction::StallLifted(stage)) => {
                for k in 0..self.stage_replicas[stage].len() {
                    let rid = self.stage_replicas[stage][k];
                    self.try_begin(rid);
                }
            }
            // Parked transfers notice on their next retry timer; no
            // proactive kick keeps the retry cadence deterministic.
            Some(FaultReaction::LinkRestored(_)) | None => {}
        }
    }

    /// Crashes `rid`: it loses its running batch, its queue is re-routed
    /// to surviving stage peers, and it receives no work until a
    /// [`FaultEvent::DelayedRecovery`].
    fn crash_replica(&mut self, rid: usize) {
        if self.replicas[rid].crashed {
            return;
        }
        let now = self.now();
        let stage = self.replicas[rid].stage;
        self.replicas[rid].crashed = true;
        self.replicas[rid].excluded = true;
        // Invalidate the pending ExecDone for the batch dying with the
        // replica; the batch itself is re-executed elsewhere.
        self.replicas[rid].epoch += 1;
        self.replicas[rid].busy = false;
        self.acc.record_exclusion(rid, now);
        self.observer.on_event(
            now,
            &KernelEvent::ReplicaExcluded {
                replica: rid,
                reason: ExclusionReason::Crash,
            },
        );
        // A crash supersedes whatever the breaker was doing; the replica
        // is judged afresh after recovery.
        self.replicas[rid].breaker = BreakerState::Closed;
        let mut orphaned: Vec<Batch> = Vec::new();
        if let Some(p) = self.replicas[rid].hedge_partner.take() {
            // The dying replica's copy of a hedged batch is NOT
            // re-routed: the partner's copy still runs and will account
            // for the samples. Re-routing would double-count them.
            self.replicas[p].hedge_partner = None;
            if let Some(copy) = self.replicas[rid].running.take() {
                self.acc.record_hedge_cancel();
                self.observer.on_event(
                    now,
                    &KernelEvent::HedgeCancelled {
                        replica: rid,
                        size: copy.samples.len(),
                    },
                );
                self.pool_put(copy.samples);
            }
        }
        if let Some(b) = self.replicas[rid].running.take() {
            orphaned.push(b);
        }
        orphaned.extend(self.replicas[rid].queue.drain(..));
        for b in orphaned {
            self.route(stage, b);
        }
    }

    /// Returns `rid` to service with fresh straggler statistics and pulls
    /// work orphaned on still-crashed stage peers. Fault windows on the
    /// replica stay as they are.
    fn recover_replica(&mut self, rid: usize) {
        if !self.replicas[rid].excluded {
            return;
        }
        let now = self.now();
        let stage = self.replicas[rid].stage;
        self.replicas[rid].crashed = false;
        self.replicas[rid].excluded = false;
        self.replicas[rid].batches_done = 0;
        self.replicas[rid].per_sample_secs_sum = 0.0;
        self.replicas[rid].breaker = BreakerState::Closed;
        if let Some(h) = self.health.as_mut() {
            h.reset(rid);
        }
        self.acc.record_recovery(rid, now);
        self.observer
            .on_event(now, &KernelEvent::ReplicaRecovered { replica: rid });
        // Batches routed while every peer was down sit on a crashed
        // replica's queue (the route() fallback); reclaim them now.
        let mut stranded: Vec<Batch> = Vec::new();
        for k in 0..self.stage_replicas[stage].len() {
            let peer = self.stage_replicas[stage][k];
            if self.replicas[peer].crashed {
                stranded.extend(self.replicas[peer].queue.drain(..));
            }
        }
        for b in stranded {
            self.route(stage, b);
        }
        self.try_begin(rid);
    }
}
