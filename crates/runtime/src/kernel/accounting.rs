//! Shared run accounting.
//!
//! Both of the event loop's serving disciplines funnel their
//! measurements through one [`RunAccumulator`], so latency, utilization,
//! drop, and dispatch accounting are defined in exactly one place.

use e3_simcore::metrics::{DurationHistogram, UtilizationTracker};
use e3_simcore::{SimDuration, SimTime};

use crate::report::{ExitEvent, RobustnessStats, RunReport};
use crate::sample::SimSample;

/// Accumulates the metrics of one serving run; [`RunAccumulator::finish`]
/// converts them into the public [`RunReport`].
#[derive(Debug, Clone)]
pub struct RunAccumulator {
    slo: SimDuration,
    record_exit_events: bool,
    latency: DurationHistogram,
    util: Vec<UtilizationTracker>,
    completed: u64,
    within_slo: u64,
    dropped: u64,
    correct: u64,
    exit_events: Vec<ExitEvent>,
    dispatch_batch_sum: Vec<f64>,
    dispatch_batch_n: Vec<u64>,
    stragglers_detected: Vec<usize>,
    last_completion: SimTime,
    peak_queue_depth: Vec<usize>,
    peak_replica_queue_depth: Vec<usize>,
    shed: u64,
    excluded_since: Vec<Option<SimTime>>,
    excluded_total: Vec<SimDuration>,
    excluded_now: usize,
    faults_injected: u64,
    degraded_completed: u64,
    degraded_within_slo: u64,
    tokens_generated: u64,
    kv_preemptions: u64,
    robustness: RobustnessStats,
}

impl RunAccumulator {
    /// An empty accumulator for `num_stages` stages and `num_replicas`
    /// execution units.
    pub fn new(
        num_stages: usize,
        num_replicas: usize,
        slo: SimDuration,
        record_exit_events: bool,
    ) -> Self {
        RunAccumulator {
            slo,
            record_exit_events,
            latency: DurationHistogram::new(),
            util: (0..num_replicas)
                .map(|_| UtilizationTracker::new())
                .collect(),
            completed: 0,
            within_slo: 0,
            dropped: 0,
            correct: 0,
            exit_events: Vec::new(),
            dispatch_batch_sum: vec![0.0; num_stages],
            dispatch_batch_n: vec![0; num_stages],
            stragglers_detected: Vec::new(),
            last_completion: SimTime::ZERO,
            peak_queue_depth: vec![0; num_stages],
            peak_replica_queue_depth: vec![0; num_replicas],
            shed: 0,
            excluded_since: vec![None; num_replicas],
            excluded_total: vec![SimDuration::ZERO; num_replicas],
            excluded_now: 0,
            faults_injected: 0,
            degraded_completed: 0,
            degraded_within_slo: 0,
            tokens_generated: 0,
            kv_preemptions: 0,
            robustness: RobustnessStats::default(),
        }
    }

    /// Records a batch of `n` samples dispatched to `stage`.
    pub(crate) fn record_dispatch(&mut self, stage: usize, n: f64) {
        self.dispatch_batch_sum[stage] += n;
        self.dispatch_batch_n[stage] += 1;
    }

    /// Records busy time on execution unit `rid`.
    pub fn record_busy(&mut self, rid: usize, duration: SimDuration, occupancy: f64) {
        self.util[rid].record_busy(duration, occupancy);
    }

    /// Records one admission drop.
    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
        self.robustness.sheds.admission += 1;
    }

    /// Updates the running queue-depth peak for `stage`.
    pub(crate) fn observe_queue_depth(&mut self, stage: usize, depth: usize) {
        if depth > self.peak_queue_depth[stage] {
            self.peak_queue_depth[stage] = depth;
        }
    }

    /// Updates the running queue-depth peak for replica `rid` (queued
    /// batches, excluding the one executing).
    pub(crate) fn observe_replica_queue_depth(&mut self, rid: usize, depth: usize) {
        if depth > self.peak_replica_queue_depth[rid] {
            self.peak_replica_queue_depth[rid] = depth;
        }
    }

    /// Records `n` samples shed at routing time by the per-replica queue
    /// bound. Shed samples also count as drops.
    pub(crate) fn record_shed(&mut self, n: usize) {
        self.shed += n as u64;
        self.dropped += n as u64;
        self.robustness.sheds.queue_cap += n as u64;
    }

    /// Records a replica flagged as a straggler.
    pub(crate) fn record_straggler(&mut self, rid: usize) {
        self.stragglers_detected.push(rid);
    }

    /// Records one injected fault taking effect.
    pub(crate) fn record_fault(&mut self) {
        self.faults_injected += 1;
    }

    /// Records `n` output tokens generated (autoregressive runs).
    pub(crate) fn record_tokens(&mut self, n: u64) {
        self.tokens_generated += n;
    }

    /// Records one KV-pressure preemption.
    pub(crate) fn record_kv_preemption(&mut self) {
        self.kv_preemptions += 1;
    }

    /// Marks `rid` excluded from assignment as of `now`; idempotent while
    /// the replica stays excluded.
    pub(crate) fn record_exclusion(&mut self, rid: usize, now: SimTime) {
        if self.excluded_since[rid].is_none() {
            self.excluded_since[rid] = Some(now);
            self.excluded_now += 1;
        }
    }

    /// Marks `rid` back in service as of `now`, closing its exclusion
    /// interval; a no-op when the replica was not excluded.
    pub(crate) fn record_recovery(&mut self, rid: usize, now: SimTime) {
        if let Some(since) = self.excluded_since[rid].take() {
            self.excluded_total[rid] += now.saturating_since(since);
            self.excluded_now -= 1;
        }
    }

    /// True while at least one replica is excluded — the run is in
    /// degraded mode.
    pub fn degraded(&self) -> bool {
        self.excluded_now > 0
    }

    /// Reserves room for `completions` more completions in the latency
    /// log and, when exit events are recorded, in the exit log: both then
    /// grow once instead of by doubling.
    pub(crate) fn reserve(&mut self, completions: usize) {
        self.latency.reserve(completions);
        if self.record_exit_events {
            self.exit_events.reserve(completions);
        }
    }

    /// Records a completion at `now`; returns whether it met the SLO.
    pub fn complete(&mut self, s: &SimSample, now: SimTime) -> bool {
        let lat = now.saturating_since(s.arrival);
        self.latency.record(lat);
        self.completed += 1;
        let in_slo = lat <= self.slo;
        if in_slo {
            self.within_slo += 1;
        }
        if s.correct {
            self.correct += 1;
        }
        if self.excluded_now > 0 {
            self.degraded_completed += 1;
            if in_slo {
                self.degraded_within_slo += 1;
            }
        }
        if self.record_exit_events {
            self.exit_events.push(ExitEvent {
                at: now,
                layers_executed: s.layers_executed,
                exited_early: s.exited_early,
            });
        }
        self.last_completion = now;
        in_slo
    }

    /// Time of the most recent completion.
    pub(crate) fn last_completion(&self) -> SimTime {
        self.last_completion
    }

    /// Converts the accumulated measurements into a [`RunReport`] covering
    /// `duration` of simulated time.
    pub fn finish(mut self, duration: SimDuration) -> RunReport {
        let num_stages = self.dispatch_batch_sum.len();
        // Close exclusion intervals still open at the horizon, then turn
        // each replica's total excluded time into an availability fraction.
        let end = SimTime::ZERO + duration;
        for rid in 0..self.excluded_since.len() {
            if let Some(since) = self.excluded_since[rid].take() {
                self.excluded_total[rid] += end.saturating_since(since);
            }
        }
        let replica_availability = self
            .excluded_total
            .iter()
            .map(|&out| {
                if duration == SimDuration::ZERO {
                    1.0
                } else {
                    (1.0 - out.as_secs_f64() / duration.as_secs_f64()).max(0.0)
                }
            })
            .collect();
        RunReport {
            duration,
            completed: self.completed,
            within_slo: self.within_slo,
            dropped: self.dropped,
            correct: self.correct,
            latency: self.latency,
            replica_util: self.util,
            mean_dispatch_batch: (0..num_stages)
                .map(|s| {
                    if self.dispatch_batch_n[s] == 0 {
                        0.0
                    } else {
                        self.dispatch_batch_sum[s] / self.dispatch_batch_n[s] as f64
                    }
                })
                .collect(),
            exit_events: self.exit_events,
            slo: self.slo,
            stragglers_detected: self.stragglers_detected,
            peak_queue_depth: self.peak_queue_depth,
            peak_replica_queue_depth: self.peak_replica_queue_depth,
            replica_availability,
            faults_injected: self.faults_injected,
            degraded_completed: self.degraded_completed,
            degraded_within_slo: self.degraded_within_slo,
            shed: self.shed,
            transfer_retries: 0,
            transfer_aborts: 0,
            tokens_generated: self.tokens_generated,
            kv_preemptions: self.kv_preemptions,
            robustness: self.robustness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_finishes() {
        let mut acc = RunAccumulator::new(2, 3, SimDuration::from_millis(20), true);
        acc.record_dispatch(0, 8.0);
        acc.record_dispatch(0, 4.0);
        acc.record_dispatch(1, 6.0);
        acc.record_busy(1, SimDuration::from_millis(5), 0.5);
        acc.record_drop();
        acc.observe_queue_depth(1, 3);
        acc.observe_queue_depth(1, 2);
        let s = SimSample {
            id: 1,
            arrival: SimTime::ZERO,
            layers_executed: 4,
            exited_early: true,
            correct: true,
            output_tokens: 1,
        };
        assert!(acc.complete(&s, SimTime::from_millis(10)));
        assert!(!acc.complete(&s, SimTime::from_millis(30)));
        let r = acc.finish(SimDuration::from_secs(1));
        assert_eq!(r.completed, 2);
        assert_eq!(r.within_slo, 1);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.correct, 2);
        assert_eq!(r.mean_dispatch_batch, vec![6.0, 6.0]);
        assert_eq!(r.peak_queue_depth, vec![0, 3]);
        assert_eq!(r.exit_events.len(), 2);
        assert_eq!(r.latency.samples_ms().len(), 2);
    }

    #[test]
    fn exclusion_intervals_become_availability() {
        let mut acc = RunAccumulator::new(1, 2, SimDuration::from_millis(100), false);
        acc.record_fault();
        acc.record_exclusion(0, SimTime::from_secs(1));
        acc.record_exclusion(0, SimTime::from_secs(2)); // idempotent
        assert!(acc.degraded());
        let s = SimSample {
            id: 9,
            arrival: SimTime::from_secs(1),
            layers_executed: 1,
            exited_early: false,
            correct: true,
            output_tokens: 1,
        };
        acc.complete(&s, SimTime::from_secs(1) + SimDuration::from_millis(50));
        acc.record_recovery(0, SimTime::from_secs(3));
        acc.record_recovery(0, SimTime::from_secs(4)); // no-op
        assert!(!acc.degraded());
        // Replica 1 excluded at t=6 and never recovered: interval closes
        // at the 8 s horizon.
        acc.record_exclusion(1, SimTime::from_secs(6));
        let r = acc.finish(SimDuration::from_secs(8));
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.degraded_completed, 1);
        assert_eq!(r.degraded_within_slo, 1);
        assert!((r.replica_availability[0] - 0.75).abs() < 1e-12);
        assert!((r.replica_availability[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sheds_by_cause_partition_the_drops() {
        let mut acc = RunAccumulator::new(1, 2, SimDuration::from_millis(20), false);
        acc.record_shed(4);
        acc.record_shed(3);
        acc.record_drop(); // admission rejection
        let r = acc.finish(SimDuration::from_secs(1));
        assert_eq!(r.robustness.sheds.queue_cap, 7);
        assert_eq!(r.robustness.sheds.admission, 1);
        // The breakdown partitions `dropped` exactly.
        assert_eq!(r.robustness.sheds.total(), r.dropped);
        // Legacy aggregates keep their meaning.
        assert_eq!(r.shed, 7);
    }

    #[test]
    fn exit_events_can_be_disabled() {
        let mut acc = RunAccumulator::new(1, 1, SimDuration::from_millis(20), false);
        let s = SimSample {
            id: 1,
            arrival: SimTime::ZERO,
            layers_executed: 4,
            exited_early: false,
            correct: false,
            output_tokens: 1,
        };
        acc.complete(&s, SimTime::from_millis(1));
        let r = acc.finish(SimDuration::from_secs(1));
        assert!(r.exit_events.is_empty());
        assert_eq!(r.correct, 0);
    }

    #[test]
    fn exit_event_log_is_reserved_only_when_recorded() {
        for record in [false, true] {
            let mut acc = RunAccumulator::new(1, 1, SimDuration::from_millis(20), record);
            acc.reserve(1000);
            let want = if record { 1000 } else { 0 };
            assert!(acc.exit_events.capacity() >= want);
            assert_eq!(acc.exit_events.capacity() == 0, !record);
            // Every completion records a latency, recorded exits or not.
            assert!(acc.latency.capacity() >= 1000);
        }
    }
}
