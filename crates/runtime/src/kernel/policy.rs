//! The paper's scheduling decisions, as the plain types the batch
//! kernel calls.
//!
//! Three decisions that §3.3 treats as mechanism knobs live here: who is
//! admitted ([`SloSlackAdmission`]), how batches form
//! ([`FusionBatching`]), and which replicas are stragglers
//! ([`RelativeSlowdown`]). [`crate::engine::ServingSim`] builds them from
//! its [`crate::engine::ServingConfig`] for every run. Admission and
//! straggler detection are each `Option`al: closed-loop runs admit
//! everything, and straggler detection is off unless configured.

use e3_hardware::{LatencyModel, TransferModel};
use e3_model::{EeModel, RampController};
use e3_simcore::{SimDuration, SimTime};

use crate::batch::{Batch, FusionBuffer, SamplePool};
use crate::sample::SimSample;
use crate::strategy::StageSpec;

/// Clockwork-style SLO-slack admission (§3.3): a sample is dropped when
/// even the remaining worst-case service time cannot land it inside its
/// deadline. Consulted for every sample of every batch a replica pops;
/// refused samples are dropped and counted in
/// [`crate::report::RunReport::dropped`].
#[derive(Debug, Clone)]
pub(crate) struct SloSlackAdmission {
    slo: SimDuration,
    /// Worst-case remaining service (no exits, full batch, slowest
    /// replica kind) from each stage's start to completion, including
    /// downstream transfers.
    est_remaining: Vec<SimDuration>,
}

impl SloSlackAdmission {
    /// Precomputes the worst-case remaining-service estimate for a stage
    /// pipeline: full target batch, no early exits, each stage on its
    /// slowest replica kind, plus the inter-stage transfers.
    pub(crate) fn for_stages(
        model: &EeModel,
        ctrl: &RampController,
        lm: &LatencyModel,
        tm: &TransferModel,
        stages: &[StageSpec],
        slo: SimDuration,
    ) -> Self {
        let mut est_remaining = vec![SimDuration::ZERO; stages.len()];
        for si in (0..stages.len()).rev() {
            let st = &stages[si];
            let worst_gpu = st
                .replicas
                .iter()
                .copied()
                .max_by(|a, b| {
                    a.base_latency_factor()
                        .partial_cmp(&b.base_latency_factor())
                        .expect("finite")
                })
                .expect("nonempty");
            let works: Vec<f64> = st
                .layers
                .clone()
                .map(|k| {
                    let l = model.layers()[k];
                    let ramp = model.ramp_after(k).filter(|ri| ctrl.pays_cost_at(*ri));
                    l.work_us
                        + l.fixed_us
                        + ramp.map_or(0.0, |ri| {
                            let r = model.ramps()[ri];
                            r.work_us + r.fixed_us
                        })
                })
                .collect();
            let batches = vec![st.target_batch as f64; works.len()];
            let t = lm.layers_time(&works, &batches, worst_gpu);
            let tx = if si + 1 < stages.len() {
                tm.batch_transfer_time(
                    model.boundary_bytes(st.layers.end - 1),
                    st.target_batch as f64,
                )
            } else {
                SimDuration::ZERO
            };
            est_remaining[si] = t
                + tx
                + est_remaining
                    .get(si + 1)
                    .copied()
                    .unwrap_or(SimDuration::ZERO);
        }
        SloSlackAdmission { slo, est_remaining }
    }

    /// True if `sample`, about to start `stage` at `now`, can still meet
    /// its deadline.
    pub(crate) fn admit(&self, now: SimTime, stage: usize, sample: &SimSample) -> bool {
        now + self.est_remaining[stage] <= sample.arrival + self.slo
    }
}

/// Longest a sample waits in a fusion buffer (or the frontend batcher)
/// before a partial batch is flushed, wherever
/// [`crate::engine::ServingConfig::fusion_waits`] sets no per-stage wait.
/// Also the floor of the per-stage waits a deployment derives from its
/// plan.
pub const FUSION_MAX_WAIT: SimDuration = SimDuration::from_millis(5);

/// The paper's batching: per-stage [`FusionBuffer`]s with a bounded wait —
/// dynamic batching at the frontend and batch fusion at split boundaries
/// (§3.3, §4).
///
/// The kernel pushes every sample that reaches a stage (fresh arrivals at
/// stage 0, fused survivors downstream) and pulls batches back out: full
/// batches eagerly, due partial batches when a flush timer fires. The
/// buffers live here; the kernel owns the timers.
#[derive(Debug, Clone)]
pub(crate) struct FusionBatching {
    buffers: Vec<FusionBuffer>,
    /// Per-stage waits; empty = [`FUSION_MAX_WAIT`] everywhere.
    waits: Vec<SimDuration>,
}

impl FusionBatching {
    /// Creates buffers targeting `targets[s]` samples at stage `s`, each
    /// flushing a partial batch after `waits[s]` (default
    /// [`FUSION_MAX_WAIT`]).
    pub(crate) fn new(targets: &[usize], waits: Vec<SimDuration>) -> Self {
        FusionBatching {
            buffers: targets.iter().map(|&t| FusionBuffer::new(t)).collect(),
            waits,
        }
    }

    fn wait_for(&self, stage: usize) -> SimDuration {
        self.waits.get(stage).copied().unwrap_or(FUSION_MAX_WAIT)
    }

    /// Accepts a sample arriving at `stage` at time `now`.
    pub(crate) fn push(&mut self, stage: usize, sample: SimSample, now: SimTime) {
        self.buffers[stage].push(sample, now);
    }

    /// Removes and returns a full batch for `stage`, if one can form,
    /// its buffer drawn from `pool`.
    pub(crate) fn take_full(
        &mut self,
        stage: usize,
        now: SimTime,
        pool: &mut SamplePool,
    ) -> Option<Batch> {
        self.buffers[stage].take_full(now, pool)
    }

    /// Removes and returns a partial batch if the stage's oldest waiter
    /// has exceeded its wait bound (the deadline-flush path).
    pub(crate) fn take_due(
        &mut self,
        stage: usize,
        now: SimTime,
        pool: &mut SamplePool,
    ) -> Option<Batch> {
        let due = self.buffers[stage]
            .oldest_enqueue()
            .is_some_and(|t| now >= t + self.wait_for(stage));
        if due {
            self.buffers[stage].take_partial(now, pool)
        } else {
            None
        }
    }

    /// Removes and returns up to a target's worth of whatever waits at
    /// `stage`, full or not; `None` while nothing does.
    pub(crate) fn take_any(
        &mut self,
        stage: usize,
        now: SimTime,
        pool: &mut SamplePool,
    ) -> Option<Batch> {
        self.buffers[stage].take_partial(now, pool)
    }

    /// When the stage's current contents should be force-flushed; `None`
    /// while nothing waits there.
    pub(crate) fn next_flush_at(&self, stage: usize, now: SimTime) -> Option<SimTime> {
        self.buffers[stage]
            .oldest_enqueue()
            .map(|oldest| (oldest + self.wait_for(stage)).max(now))
    }

    /// True when nothing waits at `stage`.
    pub(crate) fn is_empty(&self, stage: usize) -> bool {
        self.buffers[stage].is_empty()
    }
}

/// Service statistics of one replica, as seen by the straggler monitor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaPerf {
    /// Batches the replica has finished.
    pub(crate) batches_done: u32,
    /// Sum over finished batches of (batch duration / batch size).
    pub(crate) per_sample_secs_sum: f64,
}

impl ReplicaPerf {
    /// Mean per-sample service time, if at least `warmup` batches ran.
    fn mean_after(&self, warmup: u32) -> Option<f64> {
        if self.batches_done >= warmup {
            Some(self.per_sample_secs_sum / self.batches_done as f64)
        } else {
            None
        }
    }
}

/// The paper's relative-slowdown monitor (§3.3): a replica whose mean
/// per-sample service time exceeds `slowdown_factor` times the best
/// peer's, after a warm-up of `warmup_batches` batches, is a straggler.
/// Consulted after every batch a replica completes; a straggler is
/// excluded and its queued work re-routed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RelativeSlowdown {
    /// Batches a replica must finish before it can be judged (or serve as
    /// a reference peer).
    pub(crate) warmup_batches: u32,
    /// Exclusion threshold relative to the best peer's mean.
    pub(crate) slowdown_factor: f64,
}

impl Default for RelativeSlowdown {
    fn default() -> Self {
        RelativeSlowdown {
            warmup_batches: 3,
            slowdown_factor: 1.8,
        }
    }
}

impl RelativeSlowdown {
    /// True if `candidate` should be excluded, judged against its
    /// non-excluded stage `peers`.
    pub(crate) fn should_exclude(&self, candidate: ReplicaPerf, peers: &[ReplicaPerf]) -> bool {
        let Some(mine) = candidate.mean_after(self.warmup_batches) else {
            return false;
        };
        let best_peer = peers
            .iter()
            .filter_map(|p| p.mean_after(self.warmup_batches))
            .fold(f64::INFINITY, f64::min);
        best_peer.is_finite() && mine > self.slowdown_factor * best_peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(arrival_ms: u64) -> SimSample {
        SimSample {
            id: 0,
            arrival: SimTime::from_millis(arrival_ms),
            layers_executed: 12,
            exited_early: false,
            correct: true,
            output_tokens: 1,
        }
    }

    #[test]
    fn slo_slack_zero_slack_boundary() {
        // est = 10ms, slo = 10ms: a sample dispatched the instant it
        // arrives has exactly zero slack — still admitted (<=), while one
        // nanosecond later it is dropped.
        let p = SloSlackAdmission {
            slo: SimDuration::from_millis(10),
            est_remaining: vec![SimDuration::from_millis(10)],
        };
        let s = sample(0);
        assert!(
            p.admit(SimTime::ZERO, 0, &s),
            "zero slack is still feasible"
        );
        assert!(
            !p.admit(SimTime::from_nanos(1), 0, &s),
            "any delay past zero slack must drop"
        );
    }

    #[test]
    fn slo_slack_batch_exactly_at_deadline() {
        // Worst-case service lands exactly on the deadline: admitted.
        let p = SloSlackAdmission {
            slo: SimDuration::from_millis(40),
            est_remaining: vec![SimDuration::from_millis(25)],
        };
        let s = sample(5); // deadline at 45ms
        assert!(p.admit(SimTime::from_millis(20), 0, &s));
        assert!(!p.admit(SimTime::from_millis(21), 0, &s));
    }

    #[test]
    fn slo_slack_later_stage_uses_its_own_estimate() {
        let p = SloSlackAdmission {
            slo: SimDuration::from_millis(30),
            est_remaining: vec![SimDuration::from_millis(28), SimDuration::from_millis(3)],
        };
        let s = sample(0);
        // At 10ms the full pipeline can no longer finish by 30ms…
        assert!(!p.admit(SimTime::from_millis(10), 0, &s));
        // …but a survivor already at the last stage can.
        assert!(p.admit(SimTime::from_millis(10), 1, &s));
    }

    #[test]
    fn for_stages_boundary_matches_its_own_estimate() {
        // `for_stages` on a real model: estimates accumulate downstream
        // cost (stage 0's includes stage 1's), and the admit boundary sits
        // exactly at `deadline - est_remaining`.
        use e3_model::{zoo, RampStyle};
        let model = zoo::deebert();
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let stages = vec![
            StageSpec {
                layers: 0..6,
                target_batch: 4,
                replicas: vec![e3_hardware::GpuKind::V100; 2],
                deferred_exits: true,
            },
            StageSpec {
                layers: 6..12,
                target_batch: 4,
                replicas: vec![e3_hardware::GpuKind::V100; 2],
                deferred_exits: true,
            },
        ];
        let slo = SimDuration::from_millis(100);
        let p = SloSlackAdmission::for_stages(
            &model,
            &ctrl,
            &LatencyModel::new(),
            &TransferModel::default(),
            &stages,
            slo,
        );
        assert!(
            p.est_remaining[0] > p.est_remaining[1],
            "no downstream cost"
        );
        assert!(p.est_remaining[1] > SimDuration::ZERO);
        assert!(p.est_remaining[0] < slo, "SLO infeasible for this test");
        // Slack exactly equal to the remaining estimate: still admitted;
        // one nanosecond later: dropped.
        let s = sample(0);
        let boundary = SimTime::from_nanos(slo.as_nanos() - p.est_remaining[0].as_nanos());
        assert!(p.admit(boundary, 0, &s));
        assert!(!p.admit(SimTime::from_nanos(boundary.as_nanos() + 1), 0, &s));
    }

    #[test]
    fn flush_deadline_rearms_from_the_new_oldest_after_drain() {
        // A stage whose buffer empties between flushes (a full batch
        // drains it) must disarm its timer, then re-arm from the *next*
        // push's enqueue time — not the stale pre-drain oldest.
        let mut b = FusionBatching::new(&[2], Vec::new());
        let mut pool = SamplePool::default();
        b.push(0, sample(0), SimTime::from_millis(1));
        b.push(0, sample(0), SimTime::from_millis(2));
        assert!(b.take_full(0, SimTime::from_millis(2), &mut pool).is_some());
        assert!(b.is_empty(0));
        assert!(b.next_flush_at(0, SimTime::from_millis(2)).is_none());

        b.push(0, sample(0), SimTime::from_millis(40));
        assert_eq!(
            b.next_flush_at(0, SimTime::from_millis(40)),
            Some(SimTime::from_millis(45))
        );
        assert!(b.take_due(0, SimTime::from_millis(44), &mut pool).is_none());
        let flushed = b
            .take_due(0, SimTime::from_millis(45), &mut pool)
            .expect("due flush");
        assert_eq!(flushed.samples.len(), 1);
    }

    #[test]
    fn relative_slowdown_needs_warmup_and_peers() {
        let pol = RelativeSlowdown::default();
        let slow = ReplicaPerf {
            batches_done: 2,
            per_sample_secs_sum: 2.0, // mean 1.0 — but below warm-up
        };
        let fast = ReplicaPerf {
            batches_done: 10,
            per_sample_secs_sum: 1.0, // mean 0.1
        };
        assert!(!pol.should_exclude(slow, &[fast]), "warm-up not reached");
        let warmed = ReplicaPerf {
            batches_done: 3,
            per_sample_secs_sum: 3.0, // mean 1.0 > 1.8 * 0.1
        };
        assert!(pol.should_exclude(warmed, &[fast]));
        assert!(!pol.should_exclude(warmed, &[]), "no peers, no verdict");
    }

    #[test]
    fn empty_fusion_buffer_never_schedules_a_flush() {
        let mut b = FusionBatching::new(&[4], Vec::new());
        let mut pool = SamplePool::default();
        assert!(b.is_empty(0));
        assert!(b.take_due(0, SimTime::from_secs(1), &mut pool).is_none());
        assert!(b.next_flush_at(0, SimTime::from_secs(1)).is_none());

        // Once occupied, the flush deadline appears, and firing it both
        // drains the buffer and disarms the next deadline.
        b.push(0, sample(0), SimTime::from_secs(1));
        let at = b.next_flush_at(0, SimTime::from_secs(1)).expect("armed");
        assert_eq!(at, SimTime::from_secs(1) + SimDuration::from_millis(5));
        assert!(b.take_due(0, at, &mut pool).is_some());
        assert!(b.is_empty(0));
        assert!(b.next_flush_at(0, at).is_none());
    }
}
