//! Deterministic fault injection for the serving kernel.
//!
//! A [`FaultPlan`] is a schedule of typed [`FaultEvent`]s applied at the
//! kernel's existing decision points — replica selection, execution-time
//! computation, batch dispatch. Faults are ordinary events on the
//! kernel's own [`e3_simcore::EventQueue`], so a run with a fault plan is
//! exactly as deterministic as one without: the same seed and the same
//! plan produce a bit-identical event stream and report.
//!
//! The kernel's one event loop reads the plan through one crate-private
//! `FaultState`, which fixes three rules for both serving disciplines
//! (batch serving and token serving):
//!
//! * **Order.** Every entry's start, then every windowed entry's end, in
//!   plan order, goes on the queue before any other event, so at one
//!   instant a window that opens takes effect before one that closes.
//! * **Windows ignore crash state.** A crash or a recovery neither opens
//!   nor clears a slowdown, stall or link window.
//! * **Counting.** Every entry counts once, at its start, whether or not
//!   the loop has anything to react to (a crash of a crashed replica).
//!
//! The fault vocabulary mirrors the failure modes §3.3 claims robustness
//! to:
//!
//! * [`FaultEvent::ReplicaCrash`] — the replica stops mid-batch; its
//!   running and queued work is re-routed to surviving stage peers and it
//!   receives no new assignments until a [`FaultEvent::DelayedRecovery`];
//! * [`FaultEvent::TransientSlowdown`] — the replica's service time is
//!   multiplied by a factor over a time window (the straggler model);
//! * [`FaultEvent::StageStall`] — no replica of a stage may begin a batch
//!   during the window (an interconnect or driver hiccup); queued batches
//!   wait and dispatch resumes when the stall lifts;
//! * [`FaultEvent::DelayedRecovery`] — a crashed replica (in the batch
//!   kernel, also a straggler-excluded one) rejoins with
//!   fresh service statistics;
//! * [`FaultEvent::LinkDown`] — the interconnect out of a stage drops
//!   transfers over a time window; the kernel retries them with
//!   exponential backoff and aborts (dropping the samples) when the
//!   transfer runs out of retry attempts.

use e3_simcore::{SimQueue, SimTime};

use super::accounting::RunAccumulator;
use super::observer::{KernelEvent, RunObserver};

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Replica `replica` fails at `at`: its running batch is lost and
    /// re-executed elsewhere, its queue is re-routed, and it is excluded
    /// from assignment until recovered.
    ReplicaCrash {
        /// Global replica id.
        replica: usize,
        /// Crash instant.
        at: SimTime,
    },
    /// Replica `replica` runs `factor` times slower between `from` and
    /// `until` (batches started inside the window carry the factor for
    /// their whole execution).
    TransientSlowdown {
        /// Global replica id.
        replica: usize,
        /// Multiplicative service-time factor (> 1 slows the replica).
        factor: f64,
        /// Slowdown onset.
        from: SimTime,
        /// Slowdown end.
        until: SimTime,
    },
    /// No replica of `stage` may begin executing a batch between `from`
    /// and `until`; routed batches queue and start when the stall lifts.
    StageStall {
        /// Stalled stage index.
        stage: usize,
        /// Stall onset.
        from: SimTime,
        /// Stall end.
        until: SimTime,
    },
    /// Replica `replica` rejoins at `at`: its crash/exclusion flags are
    /// cleared and its service statistics reset so the straggler policy
    /// judges it afresh.
    DelayedRecovery {
        /// Global replica id.
        replica: usize,
        /// Recovery instant.
        at: SimTime,
    },
    /// Transfers out of `from_stage` fail between `from` and `until`:
    /// each affected transfer is retried with exponential backoff
    /// (`engine::backoff_for`) and dropped after `MAX_TRANSFER_ATTEMPTS`
    /// failed attempts.
    LinkDown {
        /// Sending stage whose outbound link is down.
        from_stage: usize,
        /// Outage onset.
        from: SimTime,
        /// Outage end.
        until: SimTime,
    },
}

impl FaultEvent {
    /// The replica the fault targets, if replica-scoped.
    pub fn replica(&self) -> Option<usize> {
        match self {
            FaultEvent::ReplicaCrash { replica, .. }
            | FaultEvent::TransientSlowdown { replica, .. }
            | FaultEvent::DelayedRecovery { replica, .. } => Some(*replica),
            FaultEvent::StageStall { .. } | FaultEvent::LinkDown { .. } => None,
        }
    }

    /// The stage the fault targets, if stage-scoped.
    pub fn stage(&self) -> Option<usize> {
        match self {
            FaultEvent::StageStall { stage, .. } => Some(*stage),
            FaultEvent::LinkDown { from_stage, .. } => Some(*from_stage),
            _ => None,
        }
    }

    /// When the fault first takes effect.
    pub(crate) fn starts_at(&self) -> SimTime {
        match self {
            FaultEvent::ReplicaCrash { at, .. } | FaultEvent::DelayedRecovery { at, .. } => *at,
            FaultEvent::TransientSlowdown { from, .. }
            | FaultEvent::StageStall { from, .. }
            | FaultEvent::LinkDown { from, .. } => *from,
        }
    }

    /// When a windowed fault is lifted; `None` for the instantaneous
    /// crash and recovery.
    pub(crate) fn ends_at(&self) -> Option<SimTime> {
        match self {
            FaultEvent::ReplicaCrash { .. } | FaultEvent::DelayedRecovery { .. } => None,
            FaultEvent::TransientSlowdown { until, .. }
            | FaultEvent::StageStall { until, .. }
            | FaultEvent::LinkDown { until, .. } => Some(*until),
        }
    }
}

/// A deterministic schedule of faults for one kernel run.
///
/// Construct with the builder methods, then hand the plan to
/// [`crate::engine::ServingConfig::fault_plan`] (or
/// `DeploymentBuilder::with_fault_plan` / `HarnessOpts::fault_plan` one
/// layer up). An empty plan is the default and costs nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a crash of `replica` at `at`.
    pub fn crash(mut self, replica: usize, at: SimTime) -> Self {
        self.events.push(FaultEvent::ReplicaCrash { replica, at });
        self
    }

    /// Schedules a `factor`× slowdown of `replica` over `[from, until)`.
    pub fn slowdown(mut self, replica: usize, factor: f64, from: SimTime, until: SimTime) -> Self {
        self.events.push(FaultEvent::TransientSlowdown {
            replica,
            factor,
            from,
            until,
        });
        self
    }

    /// Schedules a dispatch stall of `stage` over `[from, until)`.
    pub fn stall(mut self, stage: usize, from: SimTime, until: SimTime) -> Self {
        self.events
            .push(FaultEvent::StageStall { stage, from, until });
        self
    }

    /// Schedules a recovery of `replica` at `at`.
    pub fn recover(mut self, replica: usize, at: SimTime) -> Self {
        self.events
            .push(FaultEvent::DelayedRecovery { replica, at });
        self
    }

    /// Schedules an outage of the link out of `from_stage` over
    /// `[from, until)`.
    pub fn link_down(mut self, from_stage: usize, from: SimTime, until: SimTime) -> Self {
        self.events.push(FaultEvent::LinkDown {
            from_stage,
            from,
            until,
        });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Replicas crashed by this plan that never receive a
    /// [`FaultEvent::DelayedRecovery`] afterwards — the set the control
    /// loop must treat as permanently lost when it re-plans.
    pub fn permanently_crashed(&self) -> Vec<usize> {
        let mut lost: Vec<usize> = Vec::new();
        for e in &self.events {
            if let FaultEvent::ReplicaCrash { replica, at } = e {
                let recovered = self.events.iter().any(|o| {
                    matches!(o, FaultEvent::DelayedRecovery { replica: r, at: t }
                             if r == replica && t >= at)
                });
                if !recovered && !lost.contains(replica) {
                    lost.push(*replica);
                }
            }
        }
        lost
    }

    /// Checks the plan against a deployment's shape.
    ///
    /// # Panics
    ///
    /// Panics when a fault names a replica `>= num_replicas` or a stage
    /// `>= num_stages`, when a window has `until < from`, or when a
    /// slowdown factor is not positive — all of which would make the
    /// fault silently inert or non-causal.
    pub fn validate(&self, num_replicas: usize, num_stages: usize) {
        for e in &self.events {
            if let Some(r) = e.replica() {
                assert!(
                    r < num_replicas,
                    "fault targets replica {r} but the deployment has {num_replicas}"
                );
            }
            if let Some(s) = e.stage() {
                assert!(
                    s < num_stages,
                    "fault targets stage {s} but the deployment has {num_stages}"
                );
            }
            if let Some(until) = e.ends_at() {
                assert!(until >= e.starts_at(), "fault window ends before it starts");
            }
            match *e {
                FaultEvent::TransientSlowdown { factor, .. } => {
                    assert!(factor > 0.0, "slowdown factor must be positive");
                }
                FaultEvent::LinkDown { from_stage, .. } => {
                    assert!(
                        from_stage + 1 < num_stages,
                        "link-down fault targets stage {from_stage}, which has no outbound link"
                    );
                }
                _ => {}
            }
        }
    }
}

/// One edge of a plan entry on a loop's event queue: the entry's start,
/// or a windowed entry's end. Each indexes the plan.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultAction {
    Start(usize),
    End(usize),
}

/// What a loop must react to once [`FaultState::apply`] has updated the
/// window state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultReaction {
    /// The replica crashed (possibly again).
    Crash(usize),
    /// The replica was told to recover (possibly while already live).
    Recover(usize),
    /// The stage's last stall window ended: kick its replicas.
    StallLifted(usize),
    /// The link out of the stage came back from its last outage.
    LinkRestored(usize),
}

/// The one fault model of the event loop: it schedules a [`FaultPlan`],
/// counts and narrates each entry, and holds the windows in effect. The
/// loop keeps each replica's crash state, and each discipline its own
/// reactions (the two react to a crash differently).
pub(crate) struct FaultState<'a> {
    plan: &'a [FaultEvent],
    /// Per-stage count of active [`FaultEvent::StageStall`] windows.
    stalls: Vec<u32>,
    /// Per-stage count of active [`FaultEvent::LinkDown`] windows on the
    /// stage's outbound link.
    outages: Vec<u32>,
    /// Per-replica `(entry, factor)` of active slowdowns, in start order.
    slowdowns: Vec<Vec<(usize, f64)>>,
}

impl<'a> FaultState<'a> {
    /// Validates `plan` against the deployment shape (see
    /// [`FaultPlan::validate`]) and starts with no window open.
    pub(crate) fn new(plan: &'a FaultPlan, num_replicas: usize, num_stages: usize) -> Self {
        plan.validate(num_replicas, num_stages);
        FaultState {
            plan: plan.events(),
            stalls: vec![0; num_stages],
            outages: vec![0; num_stages],
            slowdowns: vec![Vec::new(); num_replicas],
        }
    }

    /// Puts every entry's start, then every windowed entry's end, on `q`
    /// in plan order. Called before any other event is scheduled, so the
    /// queue's FIFO tie-break applies a fault before anything else due at
    /// the same instant, and a window opening before one closing.
    pub(crate) fn schedule<E, Q: SimQueue<E>>(&self, q: &mut Q, wrap: impl Fn(FaultAction) -> E) {
        for (i, f) in self.plan.iter().enumerate() {
            q.schedule(f.starts_at(), wrap(FaultAction::Start(i)));
        }
        for (i, f) in self.plan.iter().enumerate() {
            if let Some(until) = f.ends_at() {
                q.schedule(until, wrap(FaultAction::End(i)));
            }
        }
    }

    /// Applies one action at `now`. A start is counted and narrated as
    /// [`KernelEvent::FaultInjected`]; the return value is what the loop
    /// must react to, if anything.
    pub(crate) fn apply(
        &mut self,
        action: FaultAction,
        now: SimTime,
        acc: &mut RunAccumulator,
        obs: &mut dyn RunObserver,
    ) -> Option<FaultReaction> {
        match action {
            FaultAction::Start(i) => {
                let fault = self.plan[i];
                acc.record_fault();
                obs.on_event(now, &KernelEvent::FaultInjected { fault });
                match fault {
                    FaultEvent::ReplicaCrash { replica, .. } => {
                        return Some(FaultReaction::Crash(replica))
                    }
                    FaultEvent::DelayedRecovery { replica, .. } => {
                        return Some(FaultReaction::Recover(replica))
                    }
                    FaultEvent::TransientSlowdown {
                        replica, factor, ..
                    } => self.slowdowns[replica].push((i, factor)),
                    FaultEvent::StageStall { stage, .. } => self.stalls[stage] += 1,
                    FaultEvent::LinkDown { from_stage, .. } => self.outages[from_stage] += 1,
                }
                None
            }
            // An end lifts its own entry's factor, not the first equal
            // one, so the rest keep the start order token serving
            // multiplies in.
            FaultAction::End(i) => match self.plan[i] {
                FaultEvent::TransientSlowdown { replica, .. } => {
                    self.slowdowns[replica].retain(|&(e, _)| e != i);
                    None
                }
                FaultEvent::StageStall { stage, .. } => {
                    self.stalls[stage] -= 1;
                    (self.stalls[stage] == 0).then_some(FaultReaction::StallLifted(stage))
                }
                FaultEvent::LinkDown { from_stage, .. } => {
                    self.outages[from_stage] -= 1;
                    (self.outages[from_stage] == 0)
                        .then_some(FaultReaction::LinkRestored(from_stage))
                }
                FaultEvent::ReplicaCrash { .. } | FaultEvent::DelayedRecovery { .. } => {
                    unreachable!("instantaneous faults have no end")
                }
            },
        }
    }

    /// True while a stall window holds `stage`: no batch may begin there.
    pub(crate) fn stalled(&self, stage: usize) -> bool {
        self.stalls[stage] > 0
    }

    /// True while an outage holds the link out of `from_stage`.
    pub(crate) fn link_down(&self, from_stage: usize) -> bool {
        self.outages[from_stage] > 0
    }

    /// `replica`'s active slowdown factors, in start order.
    pub(crate) fn slowdowns(&self, replica: usize) -> impl Iterator<Item = f64> + '_ {
        self.slowdowns[replica].iter().map(|&(_, f)| f)
    }
}

/// Decodes raw entropy words into a fault plan valid for `replicas`
/// replicas over `stages` stages: each word yields a crash, a crash with
/// a delayed recovery, a slowdown, a stage stall or (with two stages or
/// more) a link outage out of stage 0, starting on a millisecond grid
/// inside `horizon_ms`, so any word vector makes a well-formed plan and
/// ties abound.
#[cfg(test)]
pub(crate) fn decoded_fault_plan(
    words: &[u64],
    replicas: usize,
    stages: usize,
    horizon_ms: u64,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &w in words {
        let replica = ((w >> 3) % replicas as u64) as usize;
        let stage = ((w >> 7) % stages as u64) as usize;
        let from = SimTime::from_millis((w >> 16) % horizon_ms);
        let until = from + e3_simcore::SimDuration::from_millis(1 + (w >> 24) % 60);
        plan = match w % 5 {
            0 => plan.crash(replica, from),
            1 => plan.crash(replica, from).recover(replica, until),
            2 => plan.slowdown(replica, 1.5 + ((w >> 32) % 5) as f64 * 0.5, from, until),
            3 if stages >= 2 => plan.link_down(0, from, until),
            _ => plan.stall(stage, from, until),
        };
    }
    plan
}

/// Why a replica was excluded from assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionReason {
    /// The straggler policy flagged it.
    Straggler,
    /// An injected [`FaultEvent::ReplicaCrash`].
    Crash,
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_simcore::SimDuration;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn builder_accumulates_in_order() {
        let plan = FaultPlan::new()
            .crash(2, ms(10))
            .slowdown(1, 4.0, ms(5), ms(50))
            .stall(0, ms(20), ms(30))
            .recover(2, ms(40));
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.events()[0].replica(), Some(2));
        assert_eq!(plan.events()[2].stage(), Some(0));
        assert_eq!(plan.events()[1].starts_at(), ms(5));
        assert!(!plan.is_empty());
    }

    #[test]
    fn permanently_crashed_respects_recovery() {
        let plan = FaultPlan::new()
            .crash(0, ms(10))
            .crash(1, ms(10))
            .recover(1, ms(20));
        assert_eq!(plan.permanently_crashed(), vec![0]);
        // A recovery *before* the crash does not save the replica.
        let early = FaultPlan::new().recover(3, ms(1)).crash(3, ms(10));
        assert_eq!(early.permanently_crashed(), vec![3]);
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        FaultPlan::new()
            .crash(0, ms(1))
            .slowdown(1, 2.0, ms(1), ms(2))
            .stall(1, ms(3), ms(4))
            .validate(2, 2);
        FaultPlan::new().validate(0, 0); // empty plan fits anything
    }

    #[test]
    #[should_panic(expected = "targets replica")]
    fn validate_rejects_out_of_range_replica() {
        FaultPlan::new().crash(5, ms(1)).validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "targets stage")]
    fn validate_rejects_out_of_range_stage() {
        FaultPlan::new().stall(3, ms(1), ms(2)).validate(8, 2);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn validate_rejects_nonpositive_factor() {
        FaultPlan::new()
            .slowdown(0, 0.0, ms(1), ms(2))
            .validate(1, 1);
    }

    #[test]
    fn link_down_is_stage_scoped() {
        let plan = FaultPlan::new().link_down(0, ms(5), ms(25));
        assert_eq!(plan.events()[0].stage(), Some(0));
        assert_eq!(plan.events()[0].replica(), None);
        assert_eq!(plan.events()[0].starts_at(), ms(5));
        plan.validate(4, 2);
    }

    #[test]
    #[should_panic(expected = "no outbound link")]
    fn validate_rejects_link_down_on_last_stage() {
        FaultPlan::new().link_down(1, ms(1), ms(2)).validate(4, 2);
    }

    #[test]
    fn an_end_lifts_its_own_factor_and_keeps_start_order() {
        use crate::kernel::NullObserver;
        // Three overlapping slowdowns; the last-started one ends first.
        let plan = FaultPlan::new()
            .slowdown(0, 2.0, ms(0), ms(90))
            .slowdown(0, 3.0, ms(0), ms(90))
            .slowdown(0, 2.0, ms(0), ms(60));
        let mut state = FaultState::new(&plan, 1, 1);
        let mut acc = RunAccumulator::new(1, 1, SimDuration::from_secs(1), true);
        for (at, action) in [
            (ms(0), FaultAction::Start(0)),
            (ms(0), FaultAction::Start(1)),
            (ms(0), FaultAction::Start(2)),
            (ms(60), FaultAction::End(2)),
        ] {
            assert_eq!(state.apply(action, at, &mut acc, &mut NullObserver), None);
        }
        assert_eq!(state.slowdowns(0).collect::<Vec<_>>(), vec![2.0, 3.0]);
    }
}
