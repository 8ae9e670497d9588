//! The serving kernel: one event-driven loop, policy-free.
//!
//! Everything the runtime serves — the Vanilla/NaiveEe/Plan strategies of
//! [`crate::engine::ServingSim`], open and closed loop — runs through the
//! single `Kernel` event loop here, driven by
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
//! stall, outage and slowdown windows. Each loop keeps only its
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
    /// Bumped on crash, so the pending `ExecDone` of the batch that died
    /// with the replica is recognized as stale and ignored.
    epoch: u32,
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

    /// Drops a whole batch at routing time (queue bound reached).
    fn shed_batch(&mut self, stage: usize, mut batch: Batch) {
        let now = self.now();
        self.acc.record_shed(batch.len());
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
        self.acc.record_busy(rid, out.duration, out.mean_occupancy);
        let n = batch.samples.len().max(1) as f64;
        self.replicas[rid].per_sample_secs_sum += out.duration.as_secs_f64() / n;
        self.replicas[rid].busy = true;
        let now = self.now();
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
            out.duration,
            Ev::ExecDone {
                replica: rid,
                epoch: self.replicas[rid].epoch,
            },
        );
    }

    fn on_exec_done(&mut self, rid: usize, epoch: u32) {
        if epoch != self.replicas[rid].epoch {
            return; // stale: the replica crashed while this batch ran
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
        self.observer.on_event(
            now,
            &KernelEvent::ExecDone {
                replica: rid,
                stage,
                size: batch.len(),
            },
        );
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
        self.try_begin(rid);
        // Completions may have released backpressure: wake idle stage-0
        // feeders.
        self.wake_feeders();
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
    /// per-transfer attempt limit is spent.
    fn on_transfer_retry(&mut self, from_stage: usize, batch: Batch, attempt: u32) {
        let now = self.now();
        let retry = self.sim.cfg.transfer_retry;
        if !self.faults.link_down(from_stage) {
            self.send_downstream(from_stage, batch.samples, now);
            return;
        }
        if attempt >= retry.max_attempts {
            self.abort_transfer(from_stage, batch);
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

    /// Aborts a parked transfer, dropping its samples.
    fn abort_transfer(&mut self, from_stage: usize, mut batch: Batch) {
        let now = self.now();
        self.acc.record_transfer_abort(batch.len());
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
        let mut orphaned: Vec<Batch> = self.replicas[rid].running.take().into_iter().collect();
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
