//! Typed kernel events and the observer hook.
//!
//! The kernel narrates a run as a stream of [`KernelEvent`]s — one per
//! state transition a request or batch goes through. Observers receive
//! the stream synchronously but must not (and cannot) influence
//! scheduling: the kernel passes events by reference after the fact, so
//! an observer changes what is *recorded*, never what *happens*.

use e3_simcore::SimTime;

use super::faults::{ExclusionReason, FaultEvent};

/// One state transition inside the serving kernel.
///
/// Every variant carries only scalar payloads, so the whole event is a
/// compact `Copy` record: observers and logs store it by value — no
/// per-event allocation anywhere on the recording path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelEvent {
    /// A request entered the system (open-loop arrival, or closed-loop
    /// pull from the backlog).
    Arrival {
        /// Request id.
        sample: u64,
    },
    /// A batch passed admission and is about to execute.
    Admitted {
        /// Stage about to run.
        stage: usize,
        /// Samples admitted.
        size: usize,
    },
    /// A sample was refused by the admission policy and dropped.
    Dropped {
        /// Request id.
        sample: u64,
        /// Stage at which it was dropped.
        stage: usize,
    },
    /// The batching policy emitted a batch (full, or a deadline flush).
    BatchFormed {
        /// Stage the batch targets.
        stage: usize,
        /// Batch size.
        size: usize,
        /// True for a deadline flush below the target size.
        partial: bool,
    },
    /// Survivors from an upstream batch entered a fusion buffer.
    Fusion {
        /// Receiving stage.
        stage: usize,
        /// Samples fused in.
        size: usize,
    },
    /// A replica began executing a batch.
    ExecStart {
        /// Global replica id.
        replica: usize,
        /// Stage executed.
        stage: usize,
        /// Batch size.
        size: usize,
    },
    /// A replica finished a batch.
    ExecDone {
        /// Global replica id.
        replica: usize,
        /// Stage executed.
        stage: usize,
        /// Batch size.
        size: usize,
    },
    /// Surviving samples left for the next stage over the interconnect.
    StageTransfer {
        /// Sending stage.
        from_stage: usize,
        /// Receiving stage.
        to_stage: usize,
        /// Samples transferred.
        size: usize,
    },
    /// A request finished (exited early or ran the full model).
    Completion {
        /// Request id.
        sample: u64,
        /// Whether it met the SLO.
        within_slo: bool,
    },
    /// An injected fault took effect.
    FaultInjected {
        /// The fault, as scheduled in the [`super::faults::FaultPlan`].
        fault: FaultEvent,
    },
    /// A replica was removed from the assignment set — by the straggler
    /// policy or by an injected crash.
    ReplicaExcluded {
        /// Global replica id.
        replica: usize,
        /// What triggered the exclusion.
        reason: ExclusionReason,
    },
    /// A previously excluded replica rejoined the assignment set.
    ReplicaRecovered {
        /// Global replica id.
        replica: usize,
    },
    /// A sequence joined a replica's running batch mid-flight (continuous
    /// batching: admission happens at iteration boundaries, not windows).
    SequenceJoined {
        /// Global replica id that now hosts the sequence.
        replica: usize,
        /// Sequence (request) id.
        sample: u64,
    },
    /// A sequence left its replica's running batch — finished, preempted,
    /// or evicted by a crash — freeing its slot for a queued sequence.
    SequenceLeft {
        /// Global replica id it left.
        replica: usize,
        /// Sequence (request) id.
        sample: u64,
    },
    /// One output token of a sequence finished decoding.
    TokenGenerated {
        /// Sequence (request) id.
        sample: u64,
        /// Zero-based token index within the sequence.
        index: u32,
    },
    /// A sequence passed KV-capacity admission on a replica with a finite
    /// cache budget.
    KvAdmitted {
        /// Global replica id.
        replica: usize,
        /// Sequence (request) id.
        sample: u64,
        /// Cache tokens resident on the replica after admission.
        resident_tokens: usize,
    },
    /// A sequence was preempted because its replica's KV cache overflowed;
    /// its cache was released and the sequence re-queued.
    KvPreempted {
        /// Global replica id.
        replica: usize,
        /// Sequence (request) id.
        sample: u64,
        /// Cache tokens freed by the preemption.
        tokens_freed: usize,
        /// True when the cache was swapped out over the interconnect
        /// (rebuilt by swap-in); false when it will be recomputed.
        swapped: bool,
    },
    /// The control loop began a guarded plan transition: the incumbent
    /// plan drained and a canary of the candidate plan started.
    ReconfigStarted {
        /// Reconfiguration epoch (monotone per control loop).
        epoch: u32,
    },
    /// The canary beat (or matched) the incumbent: the candidate plan was
    /// promoted for the rest of the window.
    CanaryPromoted {
        /// Reconfiguration epoch.
        epoch: u32,
    },
    /// The canary regressed against the incumbent: the candidate was
    /// discarded and the incumbent plan restored.
    RolledBack {
        /// Reconfiguration epoch.
        epoch: u32,
    },
}

/// Receives the kernel's event stream.
pub trait RunObserver {
    /// Called once per event, at simulated time `now`, in execution order.
    fn on_event(&mut self, now: SimTime, event: &KernelEvent);
}

/// Discards all events — the default observer behind
/// [`crate::engine::ServingSim::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_event(&mut self, _now: SimTime, _event: &KernelEvent) {}
}

/// Re-bases event timestamps onto a global clock.
///
/// Kernel runs start at `SimTime::ZERO`. When one logical window is
/// served as several consecutive kernel runs (guarded reconfiguration's
/// probe / canary / remainder segments), wrapping the downstream observer
/// in an `OffsetObserver` per segment keeps the merged stream on one
/// monotone clock.
pub struct OffsetObserver<'a> {
    base: SimTime,
    high_water: SimTime,
    inner: &'a mut dyn RunObserver,
}

impl<'a> OffsetObserver<'a> {
    /// Forwards to `inner`, shifting every timestamp forward by `base`.
    pub fn new(base: SimTime, inner: &'a mut dyn RunObserver) -> Self {
        OffsetObserver {
            base,
            high_water: base,
            inner,
        }
    }

    /// The latest re-based timestamp forwarded so far (`base` if no event
    /// has been observed). A segmented caller advancing its clock by
    /// [`crate::RunReport::duration`] must clamp to this: a run's trailing
    /// events — fault injections and expiries scheduled past the last
    /// completion — land *after* the reported duration, and a next
    /// segment based before them would interleave the merged stream out
    /// of order.
    pub fn high_water(&self) -> SimTime {
        self.high_water
    }
}

impl RunObserver for OffsetObserver<'_> {
    fn on_event(&mut self, now: SimTime, event: &KernelEvent) {
        let shifted = self.base + now.saturating_since(SimTime::ZERO);
        self.high_water = self.high_water.max(shifted);
        self.inner.on_event(shifted, event);
    }
}

/// Fans one event stream out to two observers.
///
/// The checker hook: downstream tooling (e.g. an invariant checker) can
/// watch a run online while the usual recording observer still sees the
/// identical stream. `a` receives each event before `b`; neither can
/// perturb scheduling, so the order only matters to the observers
/// themselves.
pub struct TeeObserver<'a> {
    a: &'a mut dyn RunObserver,
    b: &'a mut dyn RunObserver,
}

impl<'a> TeeObserver<'a> {
    /// Forwards every event to `a`, then to `b`.
    pub fn new(a: &'a mut dyn RunObserver, b: &'a mut dyn RunObserver) -> Self {
        TeeObserver { a, b }
    }
}

impl RunObserver for TeeObserver<'_> {
    fn on_event(&mut self, now: SimTime, event: &KernelEvent) {
        self.a.on_event(now, event);
        self.b.on_event(now, event);
    }
}

/// Records the full timestamped event stream (tests, tracing).
///
/// The log is an arena of compact `Copy` records: appending never
/// allocates per event, only when the backing arena grows.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// The recorded stream, in execution order.
    pub events: Vec<(SimTime, KernelEvent)>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log with room for `capacity` events before the arena
    /// reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            events: Vec::with_capacity(capacity),
        }
    }

    /// The events concerning request `id`, in order: its arrival, any
    /// drop, and its completion.
    pub fn for_sample(&self, id: u64) -> Vec<&KernelEvent> {
        self.events
            .iter()
            .map(|(_, e)| e)
            .filter(|e| {
                matches!(
                    e,
                    KernelEvent::Arrival { sample }
                    | KernelEvent::Dropped { sample, .. }
                    | KernelEvent::Completion { sample, .. }
                    if *sample == id
                )
            })
            .collect()
    }

    /// Counts events matching `pred`.
    pub fn count(&self, pred: impl Fn(&KernelEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

impl RunObserver for EventLog {
    fn on_event(&mut self, now: SimTime, event: &KernelEvent) {
        self.events.push((now, *event));
    }
}

/// A multi-stream event log: every event carries a `u32` tag naming the
/// stream (the tenancy layer tags by tenant index). Concurrent logical
/// streams — tenants serving disjoint cluster partitions on one global
/// clock — each write through their own [`TagObserver`] handle, and the
/// merged, time-ordered view is available afterwards.
#[derive(Debug, Clone, Default)]
pub struct TaggedEventLog {
    /// The recorded stream: `(tag, time, event)` in insertion order.
    pub events: Vec<(u32, SimTime, KernelEvent)>,
}

impl TaggedEventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A [`RunObserver`] handle that stamps every event with `tag`.
    pub fn tagged(&mut self, tag: u32) -> TagObserver<'_> {
        TagObserver { tag, log: self }
    }

    /// The events of one tag, in insertion order.
    pub fn for_tag(&self, tag: u32) -> Vec<&(u32, SimTime, KernelEvent)> {
        self.events.iter().filter(|(t, _, _)| *t == tag).collect()
    }

    /// Counts events of `tag` matching `pred`.
    pub fn count_for(&self, tag: u32, pred: impl Fn(&KernelEvent) -> bool) -> usize {
        self.events
            .iter()
            .filter(|(t, _, e)| *t == tag && pred(e))
            .count()
    }

    /// All events sorted by timestamp — the global-clock interleaving of
    /// the concurrent streams. The sort is stable, so same-instant
    /// events keep insertion order (and therefore tag order).
    pub fn merged_by_time(&self) -> Vec<&(u32, SimTime, KernelEvent)> {
        let mut out: Vec<&(u32, SimTime, KernelEvent)> = self.events.iter().collect();
        out.sort_by_key(|(_, at, _)| *at);
        out
    }
}

/// Writes events into a [`TaggedEventLog`] under one fixed tag.
pub struct TagObserver<'a> {
    tag: u32,
    log: &'a mut TaggedEventLog,
}

impl RunObserver for TagObserver<'_> {
    fn on_event(&mut self, now: SimTime, event: &KernelEvent) {
        self.log.events.push((self.tag, now, *event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_records_and_filters() {
        let mut log = EventLog::new();
        log.on_event(SimTime::ZERO, &KernelEvent::Arrival { sample: 7 });
        log.on_event(
            SimTime::from_millis(1),
            &KernelEvent::BatchFormed {
                stage: 0,
                size: 8,
                partial: false,
            },
        );
        log.on_event(
            SimTime::from_millis(2),
            &KernelEvent::Completion {
                sample: 7,
                within_slo: true,
            },
        );
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.for_sample(7).len(), 2);
        assert_eq!(
            log.count(|e| matches!(e, KernelEvent::BatchFormed { .. })),
            1
        );
    }

    #[test]
    fn tee_observer_duplicates_the_stream_in_order() {
        let mut a = EventLog::new();
        let mut b = EventLog::new();
        {
            let mut tee = TeeObserver::new(&mut a, &mut b);
            tee.on_event(SimTime::ZERO, &KernelEvent::Arrival { sample: 1 });
            tee.on_event(
                SimTime::from_millis(3),
                &KernelEvent::Completion {
                    sample: 1,
                    within_slo: true,
                },
            );
        }
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.len(), 2);
    }

    /// `high_water` across back-to-back *empty* segments: a segment that
    /// observes no events must report `high_water == base`, so the next
    /// segment's base (`max(elapsed, high_water)`) neither rewinds the
    /// global clock nor inherits a stale mark — chaining several empty
    /// segments keeps the base monotone and exactly where the driver
    /// advanced it.
    #[test]
    fn high_water_rebases_across_back_to_back_empty_segments() {
        let mut log = EventLog::new();
        // Empty segment 1, based at 3ms: high water stays at the base.
        let base1 = SimTime::from_millis(3);
        let hw1 = {
            let off = OffsetObserver::new(base1, &mut log);
            off.high_water()
        };
        assert_eq!(hw1, base1);
        // Empty segment 2, re-based the way the tenancy driver does:
        // max(driver clock, previous high water). Still no events.
        let base2 = SimTime::from_millis(7).max(hw1);
        let hw2 = {
            let off = OffsetObserver::new(base2, &mut log);
            off.high_water()
        };
        assert_eq!(hw2, SimTime::from_millis(7));
        assert!(hw2 >= hw1, "empty segments must not rewind the clock");
        // A third segment finally observes an event; it lands re-based
        // past both empty segments and advances the mark.
        let mut off = OffsetObserver::new(hw2, &mut log);
        off.on_event(SimTime::from_millis(2), &KernelEvent::Arrival { sample: 0 });
        assert_eq!(off.high_water(), SimTime::from_millis(9));
        assert!(log.events.is_empty() || log.events[0].0 == SimTime::from_millis(9));
        assert_eq!(log.events.len(), 1);
    }

    /// Segment-boundary re-basing pin (see `RunReport::concat`): when a
    /// guarded window is served as consecutive kernel runs, the last event
    /// of segment k and the first event of segment k+1 can land on the
    /// same re-based instant. The merged log must keep segment order —
    /// `EventLog` appends, and `TaggedEventLog::merged_by_time` sorts
    /// stably, so same-instant events stay in emission order.
    #[test]
    fn offset_rebasing_keeps_segment_order_on_duplicate_timestamps() {
        let mut log = EventLog::new();
        // Segment 1: [0, 5ms) re-based at 0; its last event at 5ms.
        {
            let mut off = OffsetObserver::new(SimTime::ZERO, &mut log);
            off.on_event(SimTime::ZERO, &KernelEvent::Arrival { sample: 0 });
            off.on_event(
                SimTime::from_millis(5),
                &KernelEvent::Completion {
                    sample: 0,
                    within_slo: true,
                },
            );
        }
        // Segment 2 re-based at 5ms; its first event at local ZERO lands
        // on the same global instant as segment 1's last event.
        {
            let mut off = OffsetObserver::new(SimTime::from_millis(5), &mut log);
            off.on_event(SimTime::ZERO, &KernelEvent::Arrival { sample: 1 });
            off.on_event(
                SimTime::from_millis(2),
                &KernelEvent::Completion {
                    sample: 1,
                    within_slo: true,
                },
            );
        }
        let times: Vec<SimTime> = log.events.iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(5),
                SimTime::from_millis(5),
                SimTime::from_millis(7),
            ]
        );
        // The duplicate-instant pair keeps segment order: segment 1's
        // completion precedes segment 2's arrival.
        assert!(matches!(
            log.events[1].1,
            KernelEvent::Completion { sample: 0, .. }
        ));
        assert!(matches!(
            log.events[2].1,
            KernelEvent::Arrival { sample: 1 }
        ));

        // The tagged merge preserves the same order through its stable
        // sort even when the duplicate-instant events carry distinct tags.
        let mut tagged = TaggedEventLog::new();
        for (i, (at, e)) in log.events.iter().enumerate() {
            let seg = if i < 2 { 0 } else { 1 };
            tagged.tagged(seg).on_event(*at, e);
        }
        let merged = tagged.merged_by_time();
        let tags: Vec<u32> = merged.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(tags, vec![0, 0, 1, 1], "stable sort keeps segment order");
    }

    #[test]
    fn tagged_log_keeps_streams_apart_and_merges_by_time() {
        let mut log = TaggedEventLog::new();
        // Tenant 1's event lands later on the clock but is written first.
        log.tagged(1).on_event(
            SimTime::from_millis(5),
            &KernelEvent::Arrival { sample: 10 },
        );
        log.tagged(0)
            .on_event(SimTime::from_millis(1), &KernelEvent::Arrival { sample: 0 });
        log.tagged(0).on_event(
            SimTime::from_millis(9),
            &KernelEvent::Completion {
                sample: 0,
                within_slo: true,
            },
        );
        assert_eq!(log.for_tag(0).len(), 2);
        assert_eq!(log.for_tag(1).len(), 1);
        assert_eq!(
            log.count_for(0, |e| matches!(e, KernelEvent::Completion { .. })),
            1
        );
        let merged = log.merged_by_time();
        let tags: Vec<u32> = merged.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(tags, vec![0, 1, 0], "time-ordered interleaving");
        assert!(merged.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
