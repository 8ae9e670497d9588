//! Run metrics.
//!
//! A run loses requests in one way only, SLO-slack admission, so
//! [`RunReport::dropped`] equals [`ShedBreakdown::admission`]. Several
//! counters (`RunReport::{shed, transfer_retries, transfer_aborts}`,
//! the non-admission [`ShedBreakdown`] causes and the tail-tolerance
//! counters of [`RobustnessStats`]) are always 0: the benchmark digests
//! the reports' `Debug` text, so they leave with its next change.

use e3_simcore::metrics::{DurationHistogram, UtilizationTracker};
use e3_simcore::stats::FiveNumber;
use e3_simcore::{SimDuration, SimTime};

/// One completion observation, kept for window-level profiling (fig. 21)
/// and workload-adaptability analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExitEvent {
    /// Completion time.
    pub at: SimTime,
    /// Layers the sample executed (a model holds at most `u16::MAX`).
    pub layers_executed: u16,
    /// Whether it left via a ramp (vs. running the full model).
    pub exited_early: bool,
}

// Every report keeps one of these per completion: keep it at two words.
const _: () = assert!(std::mem::size_of::<ExitEvent>() == 16);

/// Every dropped sample of a run, broken down by what dropped it. The
/// causes partition [`RunReport::dropped`]: admission-policy rejections
/// (SLO slack, §4) are the only path that loses samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShedBreakdown {
    /// Queue-bound sheds: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub queue_cap: u64,
    /// Samples rejected by the admission policy (deadline unmeetable).
    pub admission: u64,
    /// Transfer aborts: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub transfer_abort: u64,
    /// Brownout sheds: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub brownout: u64,
}

impl ShedBreakdown {
    /// Total samples lost across all causes — equals
    /// [`RunReport::dropped`].
    pub fn total(&self) -> u64 {
        self.admission
    }

    /// Adds another breakdown's counts into this one.
    pub fn merge(&mut self, other: &ShedBreakdown) {
        self.admission += other.admission;
    }
}

/// Dropped samples by cause, plus seven tail-tolerance counters that are
/// always 0: they stay because the benchmark digests the `Debug` text
/// of [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessStats {
    /// Dropped samples by cause.
    pub sheds: ShedBreakdown,
    /// Hedged dispatches: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub hedges_dispatched: u64,
    /// Hedge wins: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub hedges_won: u64,
    /// Hedge cancellations: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub hedges_cancelled: u64,
    /// Breaker trips: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub breaker_trips: u64,
    /// Breaker probes: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub breaker_probes: u64,
    /// Breaker closes: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub breaker_closes: u64,
    /// Retry-budget exhaustions: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub retry_budget_exhausted: u64,
}

impl RobustnessStats {
    /// Adds another run's counters into this one (segment merging).
    pub fn merge(&mut self, other: &RobustnessStats) {
        self.sheds.merge(&other.sheds);
    }
}

/// Everything measured over one serving run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall (simulated) duration of the run.
    pub duration: SimDuration,
    /// Requests completed (any latency).
    pub completed: u64,
    /// Requests completed within the SLO.
    pub within_slo: u64,
    /// Requests dropped at admission (deadline unmeetable).
    pub dropped: u64,
    /// Correct predictions among completed requests.
    pub correct: u64,
    /// End-to-end latency distribution of completed requests.
    pub latency: DurationHistogram,
    /// Per-replica utilization trackers (indexed by global replica id).
    pub replica_util: Vec<UtilizationTracker>,
    /// Mean batch size at dispatch, per stage.
    pub mean_dispatch_batch: Vec<f64>,
    /// Exit events (for window-level profiling).
    pub exit_events: Vec<ExitEvent>,
    /// The SLO used for goodput accounting.
    pub slo: SimDuration,
    /// Replica ids flagged as stragglers during the run.
    pub stragglers_detected: Vec<usize>,
    /// Peak number of batches queued at any instant, per stage —
    /// bounded by the engine's backpressure; useful for diagnosing
    /// mis-balanced plans.
    pub peak_queue_depth: Vec<usize>,
    /// Peak queued batches per replica (excluding the batch executing).
    pub peak_replica_queue_depth: Vec<usize>,
    /// Fraction of the run each replica spent available for assignment
    /// (1.0 = never excluded; crashes and straggler exclusions count
    /// against it until recovery).
    pub replica_availability: Vec<f64>,
    /// Injected faults that took effect during the run.
    pub faults_injected: u64,
    /// Completions recorded while at least one replica was excluded.
    pub degraded_completed: u64,
    /// SLO-compliant completions recorded while degraded.
    pub degraded_within_slo: u64,
    /// Queue-bound sheds: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub shed: u64,
    /// Transfer retries: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub transfer_retries: u64,
    /// Transfer aborts: always 0; kept because the benchmark digests this
    /// report's Debug text; goes with the next `benchmark/` change.
    pub transfer_aborts: u64,
    /// Output tokens generated (0 for non-autoregressive runs).
    pub tokens_generated: u64,
    /// Sequences preempted by KV-cache pressure during the run.
    pub kv_preemptions: u64,
    /// Dropped samples by cause (and the always-zero tail-tolerance
    /// counters kept for the benchmark's digests).
    pub robustness: RobustnessStats,
}

impl RunReport {
    /// Merges consecutive serving segments of one logical window into a
    /// single report — the guarded-reconfiguration path serves a window
    /// as probe / canary / remainder kernel runs and reports them as one.
    ///
    /// Counters (`completed`, `within_slo`, `dropped`, `correct`,
    /// `faults_injected`, degraded counts, tokens, preemptions)
    /// sum; durations sum; latency histograms merge; exit-event
    /// timestamps are re-based onto the cumulative clock; straggler lists
    /// concatenate. Shape-dependent per-replica and per-stage vectors
    /// (`replica_util`, `mean_dispatch_batch`, `peak_queue_depth`,
    /// `peak_replica_queue_depth`, `replica_availability`) are taken from
    /// the **last** segment — the plan that finished the window — since
    /// segments may run different stage layouts and their indices are not
    /// comparable.
    ///
    /// # Panics
    ///
    /// Panics on an empty segment list.
    pub fn concat(segments: Vec<RunReport>) -> RunReport {
        assert!(!segments.is_empty(), "cannot concat zero segments");
        let mut it = segments.into_iter();
        let mut merged = it.next().expect("nonempty");
        for seg in it {
            let base = merged.duration;
            merged.completed += seg.completed;
            merged.within_slo += seg.within_slo;
            merged.dropped += seg.dropped;
            merged.correct += seg.correct;
            merged.faults_injected += seg.faults_injected;
            merged.degraded_completed += seg.degraded_completed;
            merged.degraded_within_slo += seg.degraded_within_slo;
            merged.tokens_generated += seg.tokens_generated;
            merged.kv_preemptions += seg.kv_preemptions;
            merged.robustness.merge(&seg.robustness);
            merged.latency.merge(&seg.latency);
            merged
                .exit_events
                .extend(seg.exit_events.into_iter().map(|e| ExitEvent {
                    at: e.at + base,
                    ..e
                }));
            merged.stragglers_detected.extend(seg.stragglers_detected);
            merged.duration += seg.duration;
            merged.slo = seg.slo;
            merged.replica_util = seg.replica_util;
            merged.mean_dispatch_batch = seg.mean_dispatch_batch;
            merged.peak_queue_depth = seg.peak_queue_depth;
            merged.peak_replica_queue_depth = seg.peak_replica_queue_depth;
            merged.replica_availability = seg.replica_availability;
        }
        merged
    }

    /// Goodput: SLO-compliant completions per second.
    pub fn goodput(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.within_slo as f64 / self.duration.as_secs_f64()
    }

    /// Raw throughput: completions per second regardless of latency.
    pub fn throughput(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.duration.as_secs_f64()
    }

    /// Generated tokens per second (autoregressive runs; 0 otherwise).
    pub fn tokens_per_sec(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.tokens_generated as f64 / self.duration.as_secs_f64()
    }

    /// Accuracy over completed requests.
    pub fn accuracy(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.correct as f64 / self.completed as f64
    }

    /// Drop rate over offered requests.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.completed + self.dropped;
        if offered == 0 {
            return 0.0;
        }
        self.dropped as f64 / offered as f64
    }

    /// Latency box-plot summary in milliseconds (fig. 17).
    pub fn latency_summary_ms(&self) -> FiveNumber {
        self.latency.five_number_ms()
    }

    /// Mean effective GPU utilization across replicas (fig. 3's metric).
    pub fn mean_effective_utilization(&self) -> f64 {
        if self.replica_util.is_empty() || self.duration.is_zero() {
            return 0.0;
        }
        self.replica_util
            .iter()
            .map(|u| u.effective_utilization(self.duration))
            .sum::<f64>()
            / self.replica_util.len() as f64
    }

    /// Mean busy fraction across replicas.
    pub fn mean_busy_fraction(&self) -> f64 {
        if self.replica_util.is_empty() || self.duration.is_zero() {
            return 0.0;
        }
        self.replica_util
            .iter()
            .map(|u| u.busy_fraction(self.duration))
            .sum::<f64>()
            / self.replica_util.len() as f64
    }

    /// Mean availability across replicas (1.0 when no replica was ever
    /// excluded).
    pub fn mean_availability(&self) -> f64 {
        if self.replica_availability.is_empty() {
            return 1.0;
        }
        self.replica_availability.iter().sum::<f64>() / self.replica_availability.len() as f64
    }

    /// Mean executed layers over completed requests.
    pub fn mean_depth(&self) -> f64 {
        if self.exit_events.is_empty() {
            return 0.0;
        }
        self.exit_events
            .iter()
            .map(|e| f64::from(e.layers_executed))
            .sum::<f64>()
            / self.exit_events.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut latency = DurationHistogram::new();
        latency.record(SimDuration::from_millis(10));
        latency.record(SimDuration::from_millis(30));
        RunReport {
            duration: SimDuration::from_secs(2),
            completed: 2,
            within_slo: 1,
            dropped: 2,
            correct: 2,
            latency,
            replica_util: vec![UtilizationTracker::new()],
            mean_dispatch_batch: vec![8.0],
            exit_events: vec![
                ExitEvent {
                    at: SimTime::from_millis(10),
                    layers_executed: 4,
                    exited_early: true,
                },
                ExitEvent {
                    at: SimTime::from_millis(30),
                    layers_executed: 12,
                    exited_early: false,
                },
            ],
            slo: SimDuration::from_millis(20),
            stragglers_detected: vec![],
            peak_queue_depth: vec![1],
            peak_replica_queue_depth: vec![1],
            replica_availability: vec![1.0],
            faults_injected: 0,
            degraded_completed: 0,
            degraded_within_slo: 0,
            shed: 0,
            transfer_retries: 0,
            transfer_aborts: 0,
            tokens_generated: 4,
            kv_preemptions: 0,
            robustness: RobustnessStats::default(),
        }
    }

    #[test]
    fn rates() {
        let r = report();
        assert_eq!(r.tokens_per_sec(), 2.0);
        assert_eq!(r.goodput(), 0.5);
        assert_eq!(r.throughput(), 1.0);
        assert_eq!(r.accuracy(), 1.0);
        assert_eq!(r.drop_rate(), 0.5);
        assert_eq!(r.mean_depth(), 8.0);
        assert_eq!(r.mean_availability(), 1.0);
    }

    #[test]
    fn concat_merges_segments_on_one_clock() {
        let a = report(); // 2 s, 2 completed, exit events at 10 ms / 30 ms
        let mut b = report();
        b.duration = SimDuration::from_secs(1);
        b.within_slo = 2;
        b.peak_replica_queue_depth = vec![4];
        b.robustness.sheds.admission = 3;
        let m = RunReport::concat(vec![a, b]);
        assert_eq!(m.duration, SimDuration::from_secs(3));
        assert_eq!(m.completed, 4);
        assert_eq!(m.within_slo, 3);
        assert_eq!(m.dropped, 4);
        assert_eq!(m.robustness.sheds.admission, 3);
        assert_eq!(m.tokens_generated, 8);
        assert_eq!(m.latency.samples_ms().len(), 4);
        // Second segment's exit events are re-based past the first's end.
        assert_eq!(m.exit_events.len(), 4);
        assert_eq!(m.exit_events[2].at, SimTime::from_millis(2010));
        assert!(m.exit_events.windows(2).all(|w| w[0].at <= w[1].at));
        // Shape vectors come from the last segment.
        assert_eq!(m.peak_replica_queue_depth, vec![4]);
        // goodput over the merged window: 3 in-SLO / 3 s.
        assert_eq!(m.goodput(), 1.0);
    }

    /// The benchmark digests each report's `Debug` text, exit events
    /// included: a field change must show here, not only in its digests.
    #[test]
    fn exit_event_debug_text_is_pinned() {
        let e = ExitEvent {
            at: SimTime::from_millis(10),
            layers_executed: 4,
            exited_early: true,
        };
        assert_eq!(
            format!("{e:?}"),
            "ExitEvent { at: SimTime(10000000), layers_executed: 4, exited_early: true }"
        );
    }

    #[test]
    #[should_panic(expected = "zero segments")]
    fn concat_rejects_empty() {
        let _ = RunReport::concat(vec![]);
    }

    /// Segment-boundary ordering pin: an exit event at the very end of
    /// segment k and one at local ZERO of segment k+1 re-base onto the
    /// same global instant. `concat` appends segments in order, so the
    /// duplicate-instant pair must keep segment order — earlier segment
    /// first — matching the `OffsetObserver` event-stream convention.
    #[test]
    fn concat_keeps_segment_order_on_duplicate_boundary_timestamps() {
        let mut a = report();
        a.duration = SimDuration::from_secs(2);
        a.exit_events = vec![ExitEvent {
            at: SimTime::from_secs(2), // exactly at segment end
            layers_executed: 4,
            exited_early: true,
        }];
        let mut b = report();
        b.exit_events = vec![ExitEvent {
            at: SimTime::ZERO, // re-bases onto the 2 s boundary
            layers_executed: 12,
            exited_early: false,
        }];
        let m = RunReport::concat(vec![a, b]);
        assert_eq!(m.exit_events.len(), 2);
        assert_eq!(m.exit_events[0].at, SimTime::from_secs(2));
        assert_eq!(m.exit_events[1].at, SimTime::from_secs(2));
        assert_eq!(
            m.exit_events[0].layers_executed, 4,
            "segment 1's boundary event precedes segment 2's"
        );
        assert_eq!(m.exit_events[1].layers_executed, 12);
        assert!(m.exit_events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn shed_breakdown_totals_and_merges() {
        let mut a = ShedBreakdown {
            admission: 2,
            ..ShedBreakdown::default()
        };
        assert_eq!(a.total(), 2);
        let b = ShedBreakdown {
            admission: 4,
            ..ShedBreakdown::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.admission, 6);
        assert_eq!(ShedBreakdown::default().total(), 0);
    }

    #[test]
    fn degraded_accounting() {
        let mut r = report();
        r.replica_availability = vec![1.0, 0.5];
        r.degraded_completed = 4;
        r.degraded_within_slo = 3;
        assert_eq!(r.mean_availability(), 0.75);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = RunReport {
            duration: SimDuration::ZERO,
            completed: 0,
            within_slo: 0,
            dropped: 0,
            correct: 0,
            latency: DurationHistogram::new(),
            replica_util: vec![],
            mean_dispatch_batch: vec![],
            exit_events: vec![],
            slo: SimDuration::from_millis(100),
            stragglers_detected: vec![],
            peak_queue_depth: vec![],
            peak_replica_queue_depth: vec![],
            replica_availability: vec![],
            faults_injected: 0,
            degraded_completed: 0,
            degraded_within_slo: 0,
            shed: 0,
            transfer_retries: 0,
            transfer_aborts: 0,
            tokens_generated: 0,
            kv_preemptions: 0,
            robustness: RobustnessStats::default(),
        };
        assert_eq!(r.tokens_per_sec(), 0.0);
        assert_eq!(r.goodput(), 0.0);
        assert_eq!(r.accuracy(), 0.0);
        assert_eq!(r.drop_rate(), 0.0);
        assert_eq!(r.mean_effective_utilization(), 0.0);
    }
}
