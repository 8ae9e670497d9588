//! The serving kernel: the runtime's one event loop.
//!
//! Every run the runtime serves goes through `drive` here, driven by
//! [`e3_simcore::EventQueue`]. The loop owns the *mechanism* both serving
//! disciplines share, once:
//!
//! * the queue drain, merged with the open-loop arrivals a discipline
//!   keeps in its backlog, and the fault plan's schedule with the
//!   dispatch of each fault reaction (one fault state in [`faults`]);
//! * each replica's lifecycle: busy, crashed, excluded and epoch, the
//!   stale-completion check, the `ExecStart`/`ExecDone` narration, and
//!   the accounting and narration of crash exclusion and recovery.
//!
//! A discipline keeps only its *decisions*: what a replica runs next,
//! what a finished pass does, and where crashed work goes. There are two:
//!
//! * batch serving (this module) — the Vanilla/NaiveEe/Plan strategies
//!   of [`crate::engine::ServingSim`], open and closed loop: queues,
//!   routing, fusion, transfers and backpressure, calling the paper's
//!   `policy` types directly — SLO-slack admission, fusion batching
//!   and relative-slowdown straggler detection;
//! * token serving ([`run_continuous`]) — iteration-level continuous
//!   batching with KV admission and preemption for autoregressive models.
//!
//! The two react to the same fault differently. Here a crash re-routes
//! the replica's batches, a recovery re-admits it (a straggler-excluded
//! one too) with fresh service statistics, and a lifted stall kicks the
//! stage's replicas. Their arithmetic differs on purpose too: batch
//! serving counts busy time when a batch starts (a batch lost to a crash
//! still counts) and multiplies the active slowdowns into one factor;
//! token serving counts it when a pass ends and applies each factor in
//! start order, which rounds differently.
//!
//! A [`RunObserver`] receives the typed [`KernelEvent`] stream (arrival,
//! admit, drop, batch-formed, fusion, exec start/done, stage transfer,
//! completion) after each transition; observation cannot perturb
//! scheduling. Metrics funnel through the shared [`RunAccumulator`].
//!
//! A plan solved without pipelining (model parallelism OFF, §5.8.7) puts
//! every stage on the same GPU set, so stage `s`'s replica `k` and stage
//! `s'`'s replica `k` are one device. Batch serving runs it under a
//! *phase barrier*: only the phase stage starts batches, and the phase
//! passes on once its stage has no batch queued, running or in transfer
//! — to the next stage holding survivors, whose fusion buffer then forms
//! all its batches at once, or back to stage 0 for a new round. Two
//! replicas sharing a device therefore never run together.

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
pub use policy::FUSION_MAX_WAIT;
pub(crate) use policy::{FusionBatching, SloSlackAdmission};

use std::collections::VecDeque;

use e3_hardware::GpuKind;
use e3_simcore::{EventQueue, SimDuration, SimTime};

use crate::batch::{Batch, SamplePool};
use crate::engine::ServingSim;
use crate::executor::ExecTables;
use crate::sample::SimSample;
use faults::{FaultAction, FaultReaction, FaultState};
use policy::{RelativeSlowdown, ReplicaPerf};

/// One entry on a run's event queue: the end of a replica's pass, one
/// edge of a fault-plan entry, or an event of the serving discipline.
#[derive(Debug, Clone)]
pub(crate) enum Event<E> {
    /// The pass `replica` began in `epoch` ended; stale if the replica
    /// crashed since.
    Done {
        replica: usize,
        epoch: u32,
    },
    Fault(FaultAction),
    Serve(E),
}

/// One replica's lifecycle, which the loop owns for both disciplines.
struct Life {
    stage: usize,
    busy: bool,
    /// True while crashed: unlike a straggler (which may finish queued
    /// work), a crashed replica starts nothing until recovered.
    crashed: bool,
    /// Receives no new work: crashed, or excluded as a straggler.
    excluded: bool,
    /// Bumped on crash, so the pending `Done` of the pass that died with
    /// the replica is recognized as stale and ignored.
    epoch: u32,
    /// The width the running pass's `ExecDone` reports.
    done_size: usize,
}

/// The mechanism of one run: the event queue and its clock, the fault
/// windows, the accounting, the observer and every replica's lifecycle.
/// `E` is the discipline's own event type.
pub(crate) struct Core<'a, E> {
    q: EventQueue<Event<E>>,
    faults: FaultState<'a>,
    acc: RunAccumulator,
    obs: &'a mut dyn RunObserver,
    reps: Vec<Life>,
}

impl<'a, E> Core<'a, E> {
    /// A run over one replica per entry of `stage_of` (its stage), with
    /// `plan` validated against that shape and an accumulator over `slo`.
    fn new(
        plan: &'a FaultPlan,
        stage_of: impl Iterator<Item = usize>,
        num_stages: usize,
        slo: SimDuration,
        record_exit_events: bool,
        obs: &'a mut dyn RunObserver,
    ) -> Self {
        let reps: Vec<Life> = stage_of
            .map(|stage| Life {
                stage,
                busy: false,
                crashed: false,
                excluded: false,
                epoch: 0,
                done_size: 0,
            })
            .collect();
        Core {
            q: EventQueue::new(),
            faults: FaultState::new(plan, reps.len(), num_stages),
            acc: RunAccumulator::new(num_stages, reps.len(), slo, record_exit_events),
            obs,
            reps,
        }
    }

    fn now(&self) -> SimTime {
        self.q.now()
    }

    fn emit(&mut self, event: KernelEvent) {
        self.obs.on_event(self.q.now(), &event);
    }

    /// Accounts and narrates the completion of `sample` now.
    fn complete(&mut self, sample: &SimSample) {
        let within_slo = self.acc.complete(sample, self.q.now());
        self.emit(KernelEvent::Completion {
            sample: sample.id,
            within_slo,
        });
    }

    /// Schedules a discipline event at `at`.
    fn serve_at(&mut self, at: SimTime, event: E) {
        self.q.schedule(at, Event::Serve(event));
    }

    /// Schedules a discipline event `delay` from now.
    fn serve_after(&mut self, delay: SimDuration, event: E) {
        self.q.schedule_after(delay, Event::Serve(event));
    }

    /// True when `r` may start a pass: idle, live, and its stage not
    /// stalled.
    fn ready(&self, r: usize) -> bool {
        let life = &self.reps[r];
        !life.busy && !life.crashed && !self.faults.stalled(life.stage)
    }

    /// Starts a pass of `size` members on `r` that ends after `duration`
    /// and reports `done_size` when it does.
    fn begin(&mut self, r: usize, size: usize, done_size: usize, duration: SimDuration) {
        let life = &mut self.reps[r];
        life.busy = true;
        life.done_size = done_size;
        let (stage, epoch) = (life.stage, life.epoch);
        self.emit(KernelEvent::ExecStart {
            replica: r,
            stage,
            size,
        });
        self.q
            .schedule_after(duration, Event::Done { replica: r, epoch });
    }

    /// Ends `r`'s pass begun in `epoch`: false (and nothing changes) when
    /// it is stale.
    fn finish(&mut self, r: usize, epoch: u32) -> bool {
        let life = &mut self.reps[r];
        if life.epoch != epoch || !life.busy {
            return false; // stale: the replica crashed while this ran
        }
        life.busy = false;
        let (stage, size) = (life.stage, life.done_size);
        self.emit(KernelEvent::ExecDone {
            replica: r,
            stage,
            size,
        });
        true
    }

    /// Excludes `r` from new work.
    fn exclude(&mut self, r: usize, reason: ExclusionReason) {
        self.reps[r].excluded = true;
        self.acc.record_exclusion(r, self.q.now());
        self.emit(KernelEvent::ReplicaExcluded { replica: r, reason });
    }

    /// Crashes `r`, invalidating its running pass; false when it already
    /// was crashed.
    fn crash(&mut self, r: usize) -> bool {
        let life = &mut self.reps[r];
        if life.crashed {
            return false;
        }
        life.crashed = true;
        life.epoch += 1;
        life.busy = false;
        self.exclude(r, ExclusionReason::Crash);
        true
    }

    /// Returns an excluded `r` to service; false when it was not
    /// excluded. Fault windows on the replica stay as they are.
    fn recover(&mut self, r: usize) -> bool {
        let life = &mut self.reps[r];
        if !life.excluded {
            return false;
        }
        life.crashed = false;
        life.excluded = false;
        self.acc.record_recovery(r, self.q.now());
        self.emit(KernelEvent::ReplicaRecovered { replica: r });
        true
    }
}

/// A serving discipline: the decisions [`drive`] delegates. Each hook runs
/// after the loop has applied the mechanism.
pub(crate) trait Discipline<'a> {
    /// The discipline's own events.
    type Ev;
    fn core(&mut self) -> &mut Core<'a, Self::Ev>;
    /// Seeds the run once the fault schedule is on the queue.
    fn start(&mut self);
    fn on_event(&mut self, event: Self::Ev);
    /// `r`'s pass ended: it is idle and its `ExecDone` narrated.
    fn on_done(&mut self, r: usize);
    /// `r` crashed: its pass is lost; move its work.
    fn on_crash(&mut self, r: usize);
    /// `r` is back in service.
    fn on_recover(&mut self, r: usize);
    /// The last stall on `stage` lifted.
    fn on_stall_lifted(&mut self, stage: usize);
    /// How many open-loop arrivals the run serves from outside the queue.
    fn arrivals(&self) -> usize {
        0
    }
    /// The next of those arrivals as `(at, index)`: the earliest left, by
    /// `(at, index)`. `None` once all are served.
    fn next_arrival(&self) -> Option<(SimTime, usize)> {
        None
    }
    /// Serves the arrival `next_arrival` returned; the clock is at its
    /// time.
    fn on_arrival(&mut self, _index: usize) {}
}

/// The event loop: schedules the fault plan, seeds the discipline, and
/// drains the queue merged with the discipline's open-loop arrivals.
pub(crate) fn drive<'a, D: Discipline<'a>>(d: &mut D) {
    // Fault actions take the first sequence numbers, and the arrivals
    // the next ones: at equal timestamps the `(at, seq)` order then
    // applies a fault before any arrival or other event due at the same
    // instant, independent of plan contents. Arrivals stay in the
    // discipline's backlog; arrival `i` holds `first + i`, so it orders
    // against the queue exactly as if it had been scheduled here, after
    // every fault action and before every event of the run.
    let core = d.core();
    core.faults.schedule(&mut core.q, Event::Fault);
    let n = d.arrivals() as u64;
    let first = d.core().q.reserve_seqs(n);
    d.start();
    loop {
        let ev = match d.next_arrival() {
            Some((at, i)) => match d.core().q.pop_before(at, first + i as u64) {
                Some(ev) => ev,
                None => {
                    d.core().q.advance_to(at);
                    d.on_arrival(i);
                    continue;
                }
            },
            None => match d.core().q.pop() {
                Some(ev) => ev,
                None => break,
            },
        };
        match ev.event {
            Event::Done { replica, epoch } => {
                if d.core().finish(replica, epoch) {
                    d.on_done(replica);
                }
            }
            Event::Fault(action) => {
                let core = d.core();
                let now = core.q.now();
                match core
                    .faults
                    .apply(action, now, &mut core.acc, &mut *core.obs)
                {
                    // A crash of a crashed replica, or a recovery of one
                    // in service, changes nothing.
                    Some(FaultReaction::Crash(r)) if d.core().crash(r) => d.on_crash(r),
                    Some(FaultReaction::Recover(r)) if d.core().recover(r) => d.on_recover(r),
                    Some(FaultReaction::StallLifted(stage)) => d.on_stall_lifted(stage),
                    _ => {}
                }
            }
            Event::Serve(e) => d.on_event(e),
        }
    }
}

/// Batch serving's own events.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// Arrival `i`, scheduled up front by the schedule the arrival-merge
    /// test compares against; the loop serves arrivals from the backlog.
    #[cfg(test)]
    Arrival(usize),
    BatchReady {
        stage: usize,
        batch: Batch,
    },
    Flush {
        stage: usize,
    },
}

struct Replica {
    gpu: GpuKind,
    queue: VecDeque<Batch>,
    running: Option<Batch>,
    batches_done: u32,
    per_sample_secs_sum: f64,
}

/// Batch serving: one run of a [`crate::engine::ServingSim`] deployment
/// over its materialized backlog. [`Batches::run`] drives it through the
/// loop and returns the filled [`RunAccumulator`].
pub(crate) struct Batches<'a> {
    sim: &'a ServingSim<'a>,
    core: Core<'a, Ev>,
    /// SLO-slack admission; `None` admits everything (closed loop).
    admission: Option<SloSlackAdmission>,
    batching: FusionBatching,
    /// Straggler detection; `None` when disabled.
    straggler: Option<RelativeSlowdown>,
    replicas: Vec<Replica>,
    stage_replicas: Vec<Vec<usize>>,
    flush_pending: Vec<bool>,
    /// The stage allowed to run under a phase barrier; `None` for a
    /// pipelined deployment.
    phase: Option<usize>,
    /// Batches in transfer out of each stage.
    in_transfer: Vec<usize>,
    backlog: Vec<SimSample>,
    /// Closed loop: the next sample to feed. Open loop: how many arrivals
    /// the loop has served.
    backlog_cursor: usize,
    /// Open-loop arrivals the loop merges from the backlog; 0 in closed
    /// loop.
    arrivals: usize,
    /// Backlog indices in `(arrival, index)` order — the order a queue
    /// holding every arrival would pop them — when the backlog is not
    /// sorted by arrival; empty when it is.
    arrival_order: Vec<u32>,
    #[cfg(test)]
    upfront: bool,
    /// Samples admitted at stage 0 and not yet completed; the closed-loop
    /// feeder stops pulling when this reaches `in_flight_cap`
    /// (backpressure, so an unbalanced plan builds bounded queues instead
    /// of unbounded ones).
    in_flight: usize,
    in_flight_cap: usize,
    /// Recycled sample buffers: every batch formed on the hot path — fed
    /// in closed loop or taken from a fusion buffer — draws its
    /// `Vec<SimSample>` here, and every batch that ends returns it.
    /// Keeps the steady-state loop allocation-free.
    sample_pool: SamplePool,
    /// Reused scratch for straggler peer comparisons.
    perf_scratch: Vec<ReplicaPerf>,
    /// Stage timing, tabled per (stage, GPU kind).
    exec: ExecTables<'a>,
}

impl<'a> Batches<'a> {
    pub(crate) fn new(
        sim: &'a ServingSim<'a>,
        backlog: Vec<SimSample>,
        admission: Option<SloSlackAdmission>,
        batching: FusionBatching,
        observer: &'a mut dyn RunObserver,
    ) -> Self {
        let mut replicas = Vec::new();
        let mut stage_replicas = Vec::new();
        for st in &sim.stages {
            let mut ids = Vec::new();
            for &gpu in &st.replicas {
                ids.push(replicas.len());
                replicas.push(Replica {
                    gpu,
                    queue: VecDeque::new(),
                    running: None,
                    batches_done: 0,
                    per_sample_secs_sum: 0.0,
                });
            }
            stage_replicas.push(ids);
        }
        let num_stages = sim.stages.len();
        let num_replicas = replicas.len();
        let arrivals = if sim.cfg.closed_loop {
            0
        } else {
            backlog.len()
        };
        let mut arrival_order = Vec::new();
        if arrivals > 0 && !backlog.is_sorted_by_key(|s| s.arrival) {
            let n = u32::try_from(backlog.len()).expect("backlog overflow");
            arrival_order.extend(0..n);
            // Stable: equal arrivals keep index order.
            arrival_order.sort_by_key(|&i| backlog[i as usize].arrival);
        }
        let stage_of = sim
            .stages
            .iter()
            .enumerate()
            .flat_map(|(si, st)| std::iter::repeat_n(si, st.replicas.len()));
        let mut core = Core::new(
            &sim.cfg.fault_plan,
            stage_of,
            num_stages,
            sim.cfg.slo,
            true,
            observer,
        );
        core.acc.reserve(backlog.len());
        Batches {
            sim,
            core,
            admission,
            batching,
            straggler: sim.cfg.detect_stragglers.then(RelativeSlowdown::default),
            replicas,
            stage_replicas,
            flush_pending: vec![false; num_stages],
            phase: (!sim.pipelined).then_some(0),
            in_transfer: vec![0; num_stages],
            backlog,
            backlog_cursor: 0,
            arrivals,
            arrival_order,
            #[cfg(test)]
            upfront: false,
            in_flight: 0,
            in_flight_cap: (5 * num_replicas * sim.stages[0].target_batch).div_ceil(4),
            sample_pool: SamplePool::default(),
            perf_scratch: Vec::new(),
            exec: ExecTables::new(sim),
        }
    }

    /// Drives the run through the loop; returns the filled accumulator.
    pub(crate) fn run(mut self) -> RunAccumulator {
        drive(&mut self);
        self.core.acc
    }

    /// The schedule the arrival-merge test replays: every open-loop
    /// arrival goes on the queue at the start, arrival `i` as the
    /// `i`-th event after the fault actions.
    #[cfg(test)]
    pub(crate) fn scheduling_arrivals_upfront(mut self) -> Self {
        self.upfront = self.arrivals > 0;
        self.arrivals = 0;
        self
    }

    fn arrive(&mut self, i: usize) {
        let s = self.backlog[i];
        let now = self.core.now();
        self.core.emit(KernelEvent::Arrival { sample: s.id });
        self.batching.push(0, s, now);
        self.pump(0);
    }

    fn on_batch_ready(&mut self, stage: usize, mut batch: Batch) {
        self.in_transfer[stage - 1] -= 1;
        let now = self.core.now();
        self.core.emit(KernelEvent::Fusion {
            stage,
            size: batch.len(),
        });
        for s in batch.samples.drain(..) {
            self.batching.push(stage, s, now);
        }
        self.sample_pool.put(batch.samples);
        self.pump(stage);
        self.pass_phase();
    }

    /// Forms full batches and routes them; arms a flush timer otherwise.
    fn pump(&mut self, stage: usize) {
        if !self.forms(stage) {
            return;
        }
        let now = self.core.now();
        while let Some(b) = self.batching.take_full(stage, now, &mut self.sample_pool) {
            self.core.emit(KernelEvent::BatchFormed {
                stage,
                size: b.len(),
                partial: false,
            });
            self.route(stage, b);
        }
        self.arm_flush(stage);
    }

    fn arm_flush(&mut self, stage: usize) {
        let now = self.core.now();
        if !self.batching.is_empty(stage) && !self.flush_pending[stage] {
            if let Some(at) = self.batching.next_flush_at(stage, now) {
                self.core.serve_at(at, Ev::Flush { stage });
                self.flush_pending[stage] = true;
            }
        }
    }

    fn on_flush(&mut self, stage: usize) {
        self.flush_pending[stage] = false;
        if !self.forms(stage) {
            return;
        }
        let now = self.core.now();
        if let Some(b) = self.batching.take_due(stage, now, &mut self.sample_pool) {
            self.core.emit(KernelEvent::BatchFormed {
                stage,
                size: b.len(),
                partial: true,
            });
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
        let reps = &self.core.reps;
        let rid = self.stage_replicas[stage]
            .iter()
            .copied()
            .filter(|&r| !reps[r].excluded)
            .min_by_key(|&r| (self.replicas[r].queue.len() + usize::from(reps[r].busy), r))
            .unwrap_or(self.stage_replicas[stage][0]); // all excluded: fall back
        if let Some(cap) = self.sim.cfg.queue_cap {
            if self.replicas[rid].queue.len() >= cap {
                self.shed_batch(stage, batch);
                return;
            }
        }
        self.core.acc.record_dispatch(stage, batch.len() as f64);
        self.replicas[rid].queue.push_back(batch);
        self.core
            .acc
            .observe_replica_queue_depth(rid, self.replicas[rid].queue.len());
        let depth: usize = self.stage_replicas[stage]
            .iter()
            .map(|&r| self.replicas[r].queue.len())
            .sum();
        self.core.acc.observe_queue_depth(stage, depth);
        self.try_begin(rid);
    }

    /// Drops a whole batch at routing time (queue bound reached).
    fn shed_batch(&mut self, stage: usize, mut batch: Batch) {
        self.core.acc.record_shed(batch.len());
        self.core.emit(KernelEvent::BatchShed {
            stage,
            size: batch.len(),
        });
        for s in batch.samples.drain(..) {
            self.in_flight = self.in_flight.saturating_sub(1);
            self.core.emit(KernelEvent::Dropped {
                sample: s.id,
                stage,
            });
        }
        self.sample_pool.put(batch.samples);
        self.wake_feeders();
    }

    /// Starts the replica on its next queued batch, if it is ready.
    /// Crashed replicas and stalled stages start nothing (a straggler, by
    /// contrast, may still drain work already queued on it).
    fn try_begin(&mut self, rid: usize) {
        let stage = self.core.reps[rid].stage;
        if !self.core.ready(rid) || self.phase.is_some_and(|p| p != stage) {
            return;
        }
        let now = self.core.now();
        loop {
            let Some(mut batch) = self.replicas[rid].queue.pop_front() else {
                // Idle: closed-loop stage-0 replicas self-feed, unless
                // a phase barrier feeds them by the round.
                if stage == 0 && self.sim.cfg.closed_loop && self.phase.is_none() {
                    self.feed_closed_loop(rid);
                }
                return;
            };
            if let Some(admission) = &self.admission {
                // In-place compaction (samples are `Copy`): no per-batch
                // allocation on the admission-filtered path.
                let mut kept = 0;
                for i in 0..batch.samples.len() {
                    let s = batch.samples[i];
                    if admission.admit(now, stage, &s) {
                        batch.samples[kept] = s;
                        kept += 1;
                    } else {
                        self.core.acc.record_drop();
                        self.core.emit(KernelEvent::Dropped {
                            sample: s.id,
                            stage,
                        });
                    }
                }
                batch.samples.truncate(kept);
            }
            if batch.samples.is_empty() {
                self.sample_pool.put(batch.samples);
                continue;
            }
            self.core.emit(KernelEvent::Admitted {
                stage,
                size: batch.len(),
            });
            self.start_exec(rid, batch);
            return;
        }
    }

    /// Pulls the next closed-loop batch from the backlog onto `rid`.
    fn feed_closed_loop(&mut self, rid: usize) {
        debug_assert_eq!(self.core.reps[rid].stage, 0);
        if self.core.reps[rid].excluded {
            return; // stragglers and crashed replicas get no new work (§3.3)
        }
        if self.core.faults.stalled(0) {
            return; // stage stalled: nothing dispatches until it lifts
        }
        let target = self.sim.stages[0].target_batch;
        if self.backlog_cursor >= self.backlog.len() {
            return;
        }
        if self.in_flight + target > self.in_flight_cap {
            return; // backpressure: resume when completions drain
        }
        let now = self.core.now();
        let end = (self.backlog_cursor + target).min(self.backlog.len());
        let mut samples = self.sample_pool.get();
        samples.reserve(end - self.backlog_cursor);
        for i in self.backlog_cursor..end {
            let mut s = self.backlog[i];
            s.arrival = now; // closed loop: latency measured from dispatch
            self.core.emit(KernelEvent::Arrival { sample: s.id });
            samples.push(s);
        }
        self.backlog_cursor = end;
        self.in_flight += samples.len();
        self.core.acc.record_dispatch(0, samples.len() as f64);
        self.core.emit(KernelEvent::BatchFormed {
            stage: 0,
            size: samples.len(),
            partial: false,
        });
        let batch = Batch {
            samples,
            formed_at: now,
        };
        // The replica is idle with an empty queue: start right away.
        self.start_exec(rid, batch);
    }

    fn start_exec(&mut self, rid: usize, batch: Batch) {
        // Active transient slowdowns stack multiplicatively.
        let slowdown: f64 = self.core.faults.slowdowns(rid).product();
        let out = self.exec.execute(
            self.core.reps[rid].stage,
            self.replicas[rid].gpu,
            &batch.samples,
            slowdown,
        );
        // Busy time counts from the start, so a batch lost to a crash
        // still counts.
        self.core
            .acc
            .record_busy(rid, out.duration, out.mean_occupancy);
        let n = batch.samples.len().max(1) as f64;
        self.replicas[rid].per_sample_secs_sum += out.duration.as_secs_f64() / n;
        let size = batch.len();
        self.replicas[rid].running = Some(batch);
        self.core.begin(rid, size, size, out.duration);
    }

    fn on_exec_done(&mut self, rid: usize) {
        let now = self.core.now();
        let stage = self.core.reps[rid].stage;
        let stage_end = self.sim.stages[stage].layers.end;
        let mut batch = self.replicas[rid]
            .running
            .take()
            .expect("exec done without a running batch");
        self.replicas[rid].batches_done += 1;
        // Completions and survivor compaction in one in-place pass, in the
        // original sample order (samples are `Copy`). The surviving batch
        // reuses its own buffer downstream; a fully-completed batch returns
        // its buffer to the pool. No allocation either way.
        let mut survivors = 0;
        for i in 0..batch.samples.len() {
            let s = batch.samples[i];
            if s.finishes_before(stage_end) {
                self.in_flight = self.in_flight.saturating_sub(1);
                self.core.complete(&s);
            } else {
                batch.samples[survivors] = s;
                survivors += 1;
            }
        }
        batch.samples.truncate(survivors);
        if batch.samples.is_empty() {
            self.sample_pool.put(batch.samples);
        } else {
            self.send_downstream(stage, batch.samples, now);
        }

        if let Some(policy) = self.straggler {
            self.maybe_exclude_straggler(rid, policy);
        }
        self.try_begin(rid);
        // Completions may have released backpressure: wake idle stage-0
        // feeders.
        self.wake_feeders();
        self.pass_phase();
    }

    /// Hands survivors of `from_stage` to the interconnect: the fused
    /// batch reaches the next stage after the transfer time.
    fn send_downstream(&mut self, from_stage: usize, survivors: Vec<SimSample>, now: SimTime) {
        let next = from_stage + 1;
        assert!(
            next < self.sim.stages.len(),
            "survivors past the last stage"
        );
        let stage_end = self.sim.stages[from_stage].layers.end;
        let bytes = self.sim.model.boundary_bytes(stage_end - 1);
        let tx = self
            .sim
            .tm
            .batch_transfer_time(bytes, survivors.len() as f64);
        self.core.emit(KernelEvent::StageTransfer {
            from_stage,
            to_stage: next,
            size: survivors.len(),
        });
        self.in_transfer[from_stage] += 1;
        let b = Batch {
            samples: survivors,
            formed_at: now,
        };
        self.core.serve_after(
            tx,
            Ev::BatchReady {
                stage: next,
                batch: b,
            },
        );
    }

    /// Wakes idle closed-loop stage-0 feeders (drops or completions may
    /// have released backpressure). A no-op in open loop.
    fn wake_feeders(&mut self) {
        if self.sim.cfg.closed_loop && self.phase.is_none() {
            for k in 0..self.stage_replicas[0].len() {
                let r = self.stage_replicas[0][k];
                if !self.core.reps[r].busy && self.replicas[r].queue.is_empty() {
                    self.feed_closed_loop(r);
                }
            }
        }
    }

    /// True when batches may form at `stage`: always without a phase
    /// barrier; under one, only at the phase stage while it runs
    /// nothing, so each round forms its batches once.
    fn forms(&self, stage: usize) -> bool {
        self.phase.is_none_or(|p| p == stage && self.idle(p))
    }

    /// True when `stage` has no batch queued, running or in transfer.
    fn idle(&self, stage: usize) -> bool {
        self.in_transfer[stage] == 0
            && self.stage_replicas[stage]
                .iter()
                .all(|&r| self.replicas[r].running.is_none() && self.replicas[r].queue.is_empty())
    }

    /// Passes an idle phase stage's turn on: to the next stage holding
    /// survivors, else back to stage 0 for a new round, until a stage
    /// forms work. A no-op without a phase barrier.
    fn pass_phase(&mut self) {
        while let Some(p) = self.phase {
            if !self.idle(p) {
                return;
            }
            let next = (p + 1..self.sim.stages.len())
                .find(|&t| !self.batching.is_empty(t))
                .unwrap_or(0);
            self.phase = Some(next);
            if !self.enter(next) {
                return;
            }
        }
    }

    /// Opens `stage`'s turn: forms every batch its buffer holds, the
    /// partial last one included, and routes them. A closed-loop round
    /// first moves one batch per stage-0 replica in from the backlog.
    /// False when nothing formed.
    fn enter(&mut self, stage: usize) -> bool {
        let now = self.core.now();
        let target = self.sim.stages[stage].target_batch;
        if stage == 0 && self.sim.cfg.closed_loop {
            let end = (self.backlog_cursor + self.stage_replicas[0].len() * target)
                .min(self.backlog.len());
            for i in self.backlog_cursor..end {
                let mut s = self.backlog[i];
                s.arrival = now; // closed loop: latency measured from dispatch
                self.core.emit(KernelEvent::Arrival { sample: s.id });
                self.batching.push(0, s, now);
            }
            self.backlog_cursor = end;
        }
        let mut formed = false;
        while let Some(b) = self.batching.take_any(stage, now, &mut self.sample_pool) {
            self.core.emit(KernelEvent::BatchFormed {
                stage,
                size: b.len(),
                partial: b.len() < target,
            });
            self.route(stage, b);
            formed = true;
        }
        formed
    }

    /// Judges the replica that just finished a batch against its stage
    /// peers; on a straggler verdict, excludes it and re-routes its queued
    /// work (§3.3 straggler handling).
    fn maybe_exclude_straggler(&mut self, rid: usize, policy: RelativeSlowdown) {
        let stage = self.core.reps[rid].stage;
        if self.stage_replicas[stage].len() < 2 || self.core.reps[rid].excluded {
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
                .filter(|&&r| r != rid && !self.core.reps[r].excluded)
                .map(|&r| perf(&self.replicas[r])),
        );
        let exclude = policy.should_exclude(candidate, &peers);
        self.perf_scratch = peers;
        if exclude {
            self.core.acc.record_straggler(rid);
            self.core.exclude(rid, ExclusionReason::Straggler);
            // Reassign its queued batches.
            let queued: Vec<Batch> = self.replicas[rid].queue.drain(..).collect();
            for b in queued {
                self.route(stage, b);
            }
        }
    }
}

impl<'a> Discipline<'a> for Batches<'a> {
    type Ev = Ev;

    fn core(&mut self) -> &mut Core<'a, Ev> {
        &mut self.core
    }

    fn start(&mut self) {
        if self.phase.is_some() {
            self.pass_phase();
        } else if self.sim.cfg.closed_loop {
            for k in 0..self.stage_replicas[0].len() {
                let r = self.stage_replicas[0][k];
                self.feed_closed_loop(r);
            }
        }
        #[cfg(test)]
        if self.upfront {
            for i in 0..self.backlog.len() {
                self.core.serve_at(self.backlog[i].arrival, Ev::Arrival(i));
            }
        }
    }

    fn on_event(&mut self, event: Ev) {
        match event {
            #[cfg(test)]
            Ev::Arrival(i) => self.arrive(i),
            Ev::BatchReady { stage, batch } => self.on_batch_ready(stage, batch),
            Ev::Flush { stage } => self.on_flush(stage),
        }
    }

    fn on_done(&mut self, r: usize) {
        self.on_exec_done(r);
    }

    /// The running batch and the queue re-route to surviving stage peers;
    /// the replica receives no work until a
    /// [`FaultEvent::DelayedRecovery`].
    fn on_crash(&mut self, r: usize) {
        let stage = self.core.reps[r].stage;
        let mut orphaned: Vec<Batch> = self.replicas[r].running.take().into_iter().collect();
        orphaned.extend(self.replicas[r].queue.drain(..));
        for b in orphaned {
            self.route(stage, b);
        }
        self.pass_phase();
    }

    /// Fresh straggler statistics, and work orphaned on still-crashed
    /// stage peers comes back.
    fn on_recover(&mut self, r: usize) {
        let stage = self.core.reps[r].stage;
        self.replicas[r].batches_done = 0;
        self.replicas[r].per_sample_secs_sum = 0.0;
        // Batches routed while every peer was down sit on a crashed
        // replica's queue (the route() fallback); reclaim them now.
        let mut stranded: Vec<Batch> = Vec::new();
        for k in 0..self.stage_replicas[stage].len() {
            let peer = self.stage_replicas[stage][k];
            if self.core.reps[peer].crashed {
                stranded.extend(self.replicas[peer].queue.drain(..));
            }
        }
        for b in stranded {
            self.route(stage, b);
        }
        self.try_begin(r);
        self.pass_phase();
    }

    fn on_stall_lifted(&mut self, stage: usize) {
        for k in 0..self.stage_replicas[stage].len() {
            let rid = self.stage_replicas[stage][k];
            self.try_begin(rid);
        }
        self.pass_phase();
    }

    fn arrivals(&self) -> usize {
        self.arrivals
    }

    fn next_arrival(&self) -> Option<(SimTime, usize)> {
        let k = self.backlog_cursor;
        if k >= self.arrivals {
            return None;
        }
        let i = self.arrival_order.get(k).map_or(k, |&i| i as usize);
        Some((self.backlog[i].arrival, i))
    }

    fn on_arrival(&mut self, i: usize) {
        self.backlog_cursor += 1;
        self.arrive(i);
    }
}
