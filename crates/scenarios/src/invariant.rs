//! Online invariant checking over the typed kernel event stream.
//!
//! The [`InvariantChecker`] is a [`RunObserver`]: compose it into any
//! kernel run (directly, or alongside a recording observer via
//! [`e3_runtime::kernel::TeeObserver`]) and it validates the event stream
//! as it happens, accumulating structured [`Violation`]s instead of
//! panicking. Observers cannot perturb scheduling, so checking is free of
//! Heisenbugs: a checked run and an unchecked run are bit-identical.
//!
//! Every rule is derived from the kernel's documented emission contract
//! (see DESIGN.md "Invariants"); the checker is deliberately exact — a
//! single false positive on a legal stream is a checker bug, which is why
//! the legality edge cases (lone-sequence KV overcommit, straggler
//! drain, crash-stale residency, window-id reuse) are first-class here.

use std::collections::HashMap;
use std::fmt;

use e3_runtime::kernel::{EventLog, ExclusionReason, KernelEvent, RunObserver, TaggedEventLog};
use e3_simcore::SimTime;

/// The invariant families the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantClass {
    /// Every terminal event (Completion / Dropped) closes an open arrival;
    /// no sample terminates twice or out of thin air.
    SampleConservation,
    /// Token indices per sequence are strictly sequential from zero —
    /// preemption and crash rebuilds may re-run compute but never re-emit
    /// or skip a token.
    TokenConservation,
    /// KV admissions respect the capacity budget (modulo the lone-runner
    /// overcommit rule), never double-admit a resident sequence, and only
    /// preempt sequences that are actually cache-resident.
    KvAccounting,
    /// Guarded-reconfiguration epochs are monotone and every
    /// ReconfigStarted is closed by exactly one CanaryPromoted or
    /// RolledBack before the next transition begins.
    ReconfigEpochs,
    /// Exclusion/recovery pairing: no recovery without a prior exclusion,
    /// no double exclusion (except a crash upgrading a straggler verdict),
    /// and no execution on a crash-excluded replica.
    ReplicaLifecycle,
    /// Batches are shed only when a queue bound is configured, and the
    /// reported peak replica queue depth stays under it.
    QueueBound,
    /// Continuous-batching residency: a sequence joins a replica at most
    /// once at a time and only leaves a replica it lives on (or was
    /// crash-evicted from).
    SequenceResidency,
    /// Observed timestamps never move backwards.
    ClockMonotonic,
}

impl fmt::Display for InvariantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantClass::SampleConservation => "sample-conservation",
            InvariantClass::TokenConservation => "token-conservation",
            InvariantClass::KvAccounting => "kv-accounting",
            InvariantClass::ReconfigEpochs => "reconfig-epochs",
            InvariantClass::ReplicaLifecycle => "replica-lifecycle",
            InvariantClass::QueueBound => "queue-bound",
            InvariantClass::SequenceResidency => "sequence-residency",
            InvariantClass::ClockMonotonic => "clock-monotonic",
        };
        f.write_str(s)
    }
}

/// One detected invariant breach.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stream time of the offending event (end-of-stream checks use the
    /// last observed timestamp).
    pub at: SimTime,
    /// Which invariant family was breached.
    pub class: InvariantClass,
    /// Human-readable description with the offending ids.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} at {:?}", self.class, self.detail, self.at)
    }
}

/// What kind of stream the checker is watching. The kernel's emission
/// contract differs between a single kernel run and a windowed control
/// loop, so the checker must know which rules are strict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamScope {
    /// One kernel run: sample ids are unique, replica state persists for
    /// the whole stream, exclusions pair strictly with recoveries.
    #[default]
    SingleRun,
    /// A windowed control loop (possibly many kernel runs re-based onto
    /// one clock, as the tenancy layer produces): sample ids repeat
    /// across windows and replica state silently resets between kernel
    /// runs, so re-arrival and re-exclusion are legal.
    Windowed,
}

/// Checker configuration, mirroring the run's own limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckerConfig {
    /// Stream shape (see [`StreamScope`]).
    pub scope: StreamScope,
    /// The run's KV budget ([`e3_runtime::kernel::KvPlan::capacity_tokens`]),
    /// when one is configured. `None` skips the capacity bound but still
    /// checks admission/preemption pairing.
    pub kv_capacity_tokens: Option<usize>,
    /// The run's per-replica queue bound
    /// ([`e3_runtime::ServingConfig::queue_cap`]). With `None`, any
    /// `BatchShed` event is itself a violation.
    pub queue_cap: Option<usize>,
}

#[derive(Debug, Default)]
struct SampleState {
    /// Arrivals minus terminal events; a terminal with nothing open is a
    /// conservation breach.
    open: u32,
    /// Next expected `TokenGenerated` index.
    next_token: u32,
    /// The replica this sequence currently lives on (SequenceJoined
    /// without a matching Left).
    resident_on: Option<usize>,
    /// Cache-resident on `resident_on` (KvAdmitted without a Left).
    kv_resident: bool,
    /// Evicted by a replica crash without an explicit SequenceLeft; a
    /// later Left/Join/Completion for it is legal.
    crash_stale: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct ReplicaState {
    excluded: Option<ExclusionReason>,
    /// Number of cache-resident sequences (for the lone-runner
    /// overcommit exemption).
    kv_population: usize,
}

/// The composable invariant-checking observer.
///
/// Feed it a stream (as a [`RunObserver`], or replay a recorded log via
/// [`InvariantChecker::check_log`] /
/// [`InvariantChecker::check_tagged`]), call
/// [`InvariantChecker::finish`] at end of stream, and read the
/// violations.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    cfg: CheckerConfig,
    violations: Vec<Violation>,
    samples: HashMap<u64, SampleState>,
    replicas: HashMap<usize, ReplicaState>,
    /// Open reconfiguration epoch, if any.
    open_epoch: Option<u32>,
    /// Last epoch that completed (promoted or rolled back).
    last_epoch: u32,
    last_now: SimTime,
    events_seen: u64,
}

impl InvariantChecker {
    /// A checker for a stream with the given limits.
    pub fn new(cfg: CheckerConfig) -> Self {
        InvariantChecker {
            cfg,
            ..Default::default()
        }
    }

    /// Violations found so far (stream order).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Runs the end-of-stream check (unclosed reconfiguration epochs)
    /// and returns all violations. Residual in-flight samples are *not*
    /// flagged: a run may legally end stranded.
    pub fn finish(mut self) -> Vec<Violation> {
        if let Some(e) = self.open_epoch {
            self.report(
                self.last_now,
                InvariantClass::ReconfigEpochs,
                format!("epoch {e} started but never promoted or rolled back"),
            );
        }
        self.violations
    }

    /// Replays a recorded log through a fresh checker.
    pub fn check_log(cfg: CheckerConfig, log: &EventLog) -> Vec<Violation> {
        let mut c = InvariantChecker::new(cfg);
        for (at, e) in &log.events {
            c.on_event(*at, e);
        }
        c.finish()
    }

    /// Replays one tag's stream of a tenant-tagged log through a fresh
    /// checker (each tenant is an independent windowed control loop).
    pub fn check_tagged(cfg: CheckerConfig, log: &TaggedEventLog, tag: u32) -> Vec<Violation> {
        let mut c = InvariantChecker::new(cfg);
        for (_, at, e) in log.for_tag(tag).into_iter() {
            c.on_event(*at, e);
        }
        c.finish()
    }

    fn report(&mut self, at: SimTime, class: InvariantClass, detail: String) {
        self.violations.push(Violation { at, class, detail });
    }

    fn sample(&mut self, id: u64) -> &mut SampleState {
        self.samples.entry(id).or_default()
    }

    fn replica(&mut self, r: usize) -> &mut ReplicaState {
        self.replicas.entry(r).or_default()
    }

    fn on_arrival(&mut self, at: SimTime, id: u64) {
        let windowed = self.cfg.scope == StreamScope::Windowed;
        let s = self.sample(id);
        if s.open > 0 && !windowed {
            let open = s.open;
            self.report(
                at,
                InvariantClass::SampleConservation,
                format!("sample {id} re-arrived with {open} arrival(s) still open"),
            );
        }
        let s = self.sample(id);
        s.open += 1;
        if windowed {
            // A new window re-uses ids; its sequences restart from
            // token zero.
            s.next_token = 0;
        }
    }

    fn on_terminal(&mut self, at: SimTime, id: u64, what: &str) {
        let s = self.sample(id);
        if s.open == 0 {
            self.report(
                at,
                InvariantClass::SampleConservation,
                format!("sample {id} {what} with no open arrival"),
            );
        } else {
            s.open -= 1;
        }
    }

    fn on_token(&mut self, at: SimTime, id: u64, index: u32) {
        let s = self.sample(id);
        let expected = s.next_token;
        if index != expected {
            self.report(
                at,
                InvariantClass::TokenConservation,
                format!("sample {id} generated token {index}, expected {expected}"),
            );
            // Resynchronize past the breach so one gap reports once.
            self.sample(id).next_token = index + 1;
        } else {
            s.next_token += 1;
        }
    }

    fn on_joined(&mut self, at: SimTime, r: usize, id: u64) {
        let s = self.sample(id);
        if let Some(prev) = s.resident_on {
            self.report(
                at,
                InvariantClass::SequenceResidency,
                format!("sample {id} joined replica {r} while still resident on {prev}"),
            );
        }
        let s = self.sample(id);
        s.resident_on = Some(r);
        s.crash_stale = false;
    }

    fn on_left(&mut self, at: SimTime, r: usize, id: u64) {
        let s = self.sample(id);
        match s.resident_on {
            Some(prev) if prev == r => {
                let was_kv = s.kv_resident;
                s.resident_on = None;
                s.kv_resident = false;
                if was_kv {
                    let rep = self.replica(r);
                    rep.kv_population = rep.kv_population.saturating_sub(1);
                }
            }
            _ if s.crash_stale => {
                // Crash eviction already tore residency down; the
                // kernel's explicit Left for formerly-running sequences
                // arrives after the exclusion event.
                s.crash_stale = false;
            }
            Some(prev) => {
                self.report(
                    at,
                    InvariantClass::SequenceResidency,
                    format!("sample {id} left replica {r} but is resident on {prev}"),
                );
            }
            None => {
                self.report(
                    at,
                    InvariantClass::SequenceResidency,
                    format!("sample {id} left replica {r} without being resident"),
                );
            }
        }
    }

    fn on_kv_admitted(&mut self, at: SimTime, r: usize, id: u64, resident_tokens: usize) {
        let was_empty = self.replica(r).kv_population == 0;
        let s = self.sample(id);
        if s.kv_resident {
            self.report(
                at,
                InvariantClass::KvAccounting,
                format!("sample {id} KV-admitted on replica {r} while already admitted"),
            );
            return;
        }
        self.sample(id).kv_resident = true;
        self.replica(r).kv_population += 1;
        if let Some(cap) = self.cfg.kv_capacity_tokens {
            // A lone sequence may overcommit an empty cache (otherwise a
            // long sequence could never run); any other admission must
            // leave the replica within budget.
            if !was_empty && resident_tokens > cap {
                self.report(
                    at,
                    InvariantClass::KvAccounting,
                    format!(
                        "replica {r} holds {resident_tokens} KV tokens after admitting \
                         sample {id}, over the {cap}-token budget"
                    ),
                );
            }
        }
    }

    fn on_kv_preempted(&mut self, at: SimTime, r: usize, id: u64) {
        let s = self.sample(id);
        if !s.kv_resident || s.resident_on != Some(r) {
            self.report(
                at,
                InvariantClass::KvAccounting,
                format!("sample {id} KV-preempted on replica {r} without being cache-resident"),
            );
        }
        // Residency itself tears down at the paired SequenceLeft that the
        // kernel emits immediately after.
    }

    fn on_excluded(&mut self, at: SimTime, r: usize, reason: ExclusionReason) {
        let windowed = self.cfg.scope == StreamScope::Windowed;
        // A crash may land on a straggler-excluded replica without an
        // intervening recovery (the kernel guards on `crashed`, not
        // `excluded`); any other re-exclusion is a pairing breach in a
        // single run. Windowed streams reset replica state between
        // kernel runs, so re-exclusion there is a fresh run, not a
        // breach.
        if let Some(p) = self.replica(r).excluded {
            let upgrade = p == ExclusionReason::Straggler && reason == ExclusionReason::Crash;
            if !windowed && !upgrade {
                self.report(
                    at,
                    InvariantClass::ReplicaLifecycle,
                    format!("replica {r} excluded ({reason:?}) while already excluded ({p:?})"),
                );
            }
        }
        self.replica(r).excluded = Some(reason);
        if reason == ExclusionReason::Crash {
            // Crash eviction: everything resident on r is torn down
            // without per-sequence events (running sequences get an
            // explicit Left right after; blocked ones silently re-queue).
            for s in self.samples.values_mut() {
                if s.resident_on == Some(r) {
                    s.resident_on = None;
                    s.kv_resident = false;
                    s.crash_stale = true;
                }
            }
            self.replica(r).kv_population = 0;
        }
    }

    fn on_recovered(&mut self, at: SimTime, r: usize) {
        let windowed = self.cfg.scope == StreamScope::Windowed;
        if self.replica(r).excluded.is_none() && !windowed {
            self.report(
                at,
                InvariantClass::ReplicaLifecycle,
                format!("replica {r} recovered without a prior exclusion"),
            );
        }
        self.replica(r).excluded = None;
    }

    fn on_exec_start(&mut self, at: SimTime, r: usize) {
        // A straggler-excluded replica may legally drain work already
        // queued on it; a *crashed* replica must never execute. Windowed
        // streams reset replica state between kernel runs, so a start
        // there is evidence of a fresh run.
        if let Some(ExclusionReason::Crash) = self.replica(r).excluded {
            if self.cfg.scope == StreamScope::Windowed {
                self.replica(r).excluded = None;
            } else {
                self.report(
                    at,
                    InvariantClass::ReplicaLifecycle,
                    format!("replica {r} started a batch while crash-excluded"),
                );
            }
        }
    }

    fn on_shed(&mut self, at: SimTime, stage: usize, size: usize) {
        if self.cfg.queue_cap.is_none() {
            self.report(
                at,
                InvariantClass::QueueBound,
                format!("stage {stage} shed {size} sample(s) with no queue cap configured"),
            );
        }
    }

    fn on_reconfig_started(&mut self, at: SimTime, epoch: u32) {
        if let Some(open) = self.open_epoch {
            self.report(
                at,
                InvariantClass::ReconfigEpochs,
                format!("epoch {epoch} started while epoch {open} is still open"),
            );
        }
        // Epochs are monotone within one control loop; a reset to 1 is a
        // control-loop restart (the tenancy layer cold-starts a tenant's
        // loop when its partition changes).
        let expected = self.last_epoch + 1;
        if epoch != expected && epoch != 1 {
            self.report(
                at,
                InvariantClass::ReconfigEpochs,
                format!("epoch {epoch} started, expected {expected} (or a restart at 1)"),
            );
        }
        self.open_epoch = Some(epoch);
    }

    fn on_reconfig_closed(&mut self, at: SimTime, epoch: u32, what: &str) {
        match self.open_epoch {
            Some(open) if open == epoch => {
                self.open_epoch = None;
                self.last_epoch = epoch;
            }
            Some(open) => {
                self.report(
                    at,
                    InvariantClass::ReconfigEpochs,
                    format!("{what} for epoch {epoch} while epoch {open} is open"),
                );
                self.open_epoch = None;
                self.last_epoch = epoch;
            }
            None => {
                self.report(
                    at,
                    InvariantClass::ReconfigEpochs,
                    format!("{what} for epoch {epoch} with no transition in flight"),
                );
                self.last_epoch = epoch;
            }
        }
    }
}

impl RunObserver for InvariantChecker {
    fn on_event(&mut self, now: SimTime, event: &KernelEvent) {
        self.events_seen += 1;
        if now < self.last_now {
            self.report(
                now,
                InvariantClass::ClockMonotonic,
                format!("clock moved backwards: {:?} after {:?}", now, self.last_now),
            );
        }
        self.last_now = self.last_now.max(now);
        match *event {
            KernelEvent::Arrival { sample } => self.on_arrival(now, sample),
            KernelEvent::Completion { sample, .. } => self.on_terminal(now, sample, "completed"),
            KernelEvent::Dropped { sample, .. } => self.on_terminal(now, sample, "dropped"),
            KernelEvent::TokenGenerated { sample, index } => self.on_token(now, sample, index),
            KernelEvent::SequenceJoined { replica, sample } => self.on_joined(now, replica, sample),
            KernelEvent::SequenceLeft { replica, sample } => self.on_left(now, replica, sample),
            KernelEvent::KvAdmitted {
                replica,
                sample,
                resident_tokens,
            } => self.on_kv_admitted(now, replica, sample, resident_tokens),
            KernelEvent::KvPreempted {
                replica, sample, ..
            } => self.on_kv_preempted(now, replica, sample),
            KernelEvent::ReplicaExcluded { replica, reason } => {
                self.on_excluded(now, replica, reason)
            }
            KernelEvent::ReplicaRecovered { replica } => self.on_recovered(now, replica),
            KernelEvent::ExecStart { replica, .. } => self.on_exec_start(now, replica),
            KernelEvent::BatchShed { stage, size } => self.on_shed(now, stage, size),
            KernelEvent::ReconfigStarted { epoch } => self.on_reconfig_started(now, epoch),
            KernelEvent::CanaryPromoted { epoch } => {
                self.on_reconfig_closed(now, epoch, "CanaryPromoted")
            }
            KernelEvent::RolledBack { epoch } => self.on_reconfig_closed(now, epoch, "RolledBack"),
            // Batch-granularity bookkeeping events carry no per-sample
            // obligations the stream can contradict.
            KernelEvent::Admitted { .. }
            | KernelEvent::BatchFormed { .. }
            | KernelEvent::Fusion { .. }
            | KernelEvent::ExecDone { .. }
            | KernelEvent::StageTransfer { .. }
            | KernelEvent::FaultInjected { .. }
            | KernelEvent::TransferRetried { .. }
            | KernelEvent::TransferAborted { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn classes(v: &[Violation]) -> Vec<InvariantClass> {
        v.iter().map(|x| x.class).collect()
    }

    #[test]
    fn clean_lifecycle_passes() {
        let mut c = InvariantChecker::new(CheckerConfig {
            kv_capacity_tokens: Some(100),
            ..Default::default()
        });
        c.on_event(t(0), &KernelEvent::Arrival { sample: 0 });
        c.on_event(
            t(1),
            &KernelEvent::SequenceJoined {
                replica: 0,
                sample: 0,
            },
        );
        c.on_event(
            t(1),
            &KernelEvent::KvAdmitted {
                replica: 0,
                sample: 0,
                resident_tokens: 4,
            },
        );
        c.on_event(
            t(2),
            &KernelEvent::TokenGenerated {
                sample: 0,
                index: 0,
            },
        );
        c.on_event(
            t(3),
            &KernelEvent::TokenGenerated {
                sample: 0,
                index: 1,
            },
        );
        c.on_event(
            t(4),
            &KernelEvent::SequenceLeft {
                replica: 0,
                sample: 0,
            },
        );
        c.on_event(
            t(4),
            &KernelEvent::Completion {
                sample: 0,
                within_slo: true,
            },
        );
        assert!(c.finish().is_empty());
    }

    #[test]
    fn lone_runner_may_overcommit_but_second_admission_may_not() {
        let mut c = InvariantChecker::new(CheckerConfig {
            kv_capacity_tokens: Some(10),
            ..Default::default()
        });
        // First admission on an empty cache may exceed the budget.
        c.on_event(
            t(0),
            &KernelEvent::SequenceJoined {
                replica: 0,
                sample: 0,
            },
        );
        c.on_event(
            t(0),
            &KernelEvent::KvAdmitted {
                replica: 0,
                sample: 0,
                resident_tokens: 50,
            },
        );
        // A second admission over budget is a breach.
        c.on_event(
            t(1),
            &KernelEvent::SequenceJoined {
                replica: 0,
                sample: 1,
            },
        );
        c.on_event(
            t(1),
            &KernelEvent::KvAdmitted {
                replica: 0,
                sample: 1,
                resident_tokens: 55,
            },
        );
        let v = c.finish();
        assert_eq!(classes(&v), vec![InvariantClass::KvAccounting]);
    }

    #[test]
    fn crash_eviction_is_not_a_residency_breach() {
        let mut c = InvariantChecker::new(CheckerConfig::default());
        c.on_event(t(0), &KernelEvent::Arrival { sample: 0 });
        c.on_event(t(0), &KernelEvent::Arrival { sample: 1 });
        c.on_event(
            t(1),
            &KernelEvent::SequenceJoined {
                replica: 0,
                sample: 0,
            },
        );
        c.on_event(
            t(1),
            &KernelEvent::SequenceJoined {
                replica: 0,
                sample: 1,
            },
        );
        // Crash: running sample 0 gets an explicit Left after the
        // exclusion; blocked sample 1 silently re-queues and later
        // re-joins elsewhere without an intervening Left.
        c.on_event(
            t(2),
            &KernelEvent::ReplicaExcluded {
                replica: 0,
                reason: ExclusionReason::Crash,
            },
        );
        c.on_event(
            t(2),
            &KernelEvent::SequenceLeft {
                replica: 0,
                sample: 0,
            },
        );
        c.on_event(
            t(3),
            &KernelEvent::SequenceJoined {
                replica: 1,
                sample: 1,
            },
        );
        c.on_event(t(4), &KernelEvent::ReplicaRecovered { replica: 0 });
        assert!(c.finish().is_empty());
    }

    #[test]
    fn straggler_may_drain_but_crashed_may_not_execute() {
        let mut c = InvariantChecker::new(CheckerConfig::default());
        c.on_event(
            t(0),
            &KernelEvent::ReplicaExcluded {
                replica: 0,
                reason: ExclusionReason::Straggler,
            },
        );
        c.on_event(
            t(1),
            &KernelEvent::ExecStart {
                replica: 0,
                stage: 0,
                size: 4,
            },
        );
        assert!(c.violations().is_empty(), "straggler drain is legal");
        // A crash may upgrade the straggler verdict...
        c.on_event(
            t(2),
            &KernelEvent::ReplicaExcluded {
                replica: 0,
                reason: ExclusionReason::Crash,
            },
        );
        assert!(c.violations().is_empty(), "crash upgrade is legal");
        // ...after which execution is a breach.
        c.on_event(
            t(3),
            &KernelEvent::ExecStart {
                replica: 0,
                stage: 0,
                size: 4,
            },
        );
        let v = c.finish();
        assert_eq!(classes(&v), vec![InvariantClass::ReplicaLifecycle]);
    }

    #[test]
    fn windowed_scope_allows_id_reuse_and_replica_resets() {
        let mut c = InvariantChecker::new(CheckerConfig {
            scope: StreamScope::Windowed,
            ..Default::default()
        });
        // Window 1: sample 0 is stranded by a crash (no terminal event).
        c.on_event(t(0), &KernelEvent::Arrival { sample: 0 });
        c.on_event(
            t(1),
            &KernelEvent::ReplicaExcluded {
                replica: 0,
                reason: ExclusionReason::Crash,
            },
        );
        // Window 2: the id arrives again (fresh kernel run) and the
        // replica is implicitly healthy again.
        c.on_event(t(2), &KernelEvent::Arrival { sample: 0 });
        c.on_event(
            t(3),
            &KernelEvent::ExecStart {
                replica: 0,
                stage: 0,
                size: 1,
            },
        );
        c.on_event(
            t(4),
            &KernelEvent::Completion {
                sample: 0,
                within_slo: true,
            },
        );
        // ...and a fresh crash in the new run is a fresh exclusion.
        c.on_event(
            t(5),
            &KernelEvent::ReplicaExcluded {
                replica: 0,
                reason: ExclusionReason::Crash,
            },
        );
        assert!(c.finish().is_empty());
    }

    #[test]
    fn epoch_restart_at_one_is_legal() {
        let mut c = InvariantChecker::new(CheckerConfig {
            scope: StreamScope::Windowed,
            ..Default::default()
        });
        c.on_event(t(0), &KernelEvent::ReconfigStarted { epoch: 1 });
        c.on_event(t(1), &KernelEvent::CanaryPromoted { epoch: 1 });
        c.on_event(t(2), &KernelEvent::ReconfigStarted { epoch: 2 });
        c.on_event(t(3), &KernelEvent::RolledBack { epoch: 2 });
        // Partition change restarts the control loop: epochs reset to 1.
        c.on_event(t(4), &KernelEvent::ReconfigStarted { epoch: 1 });
        c.on_event(t(5), &KernelEvent::CanaryPromoted { epoch: 1 });
        assert!(c.finish().is_empty());
    }

    #[test]
    fn unclosed_epoch_is_flagged_at_finish() {
        let mut c = InvariantChecker::new(CheckerConfig::default());
        c.on_event(t(0), &KernelEvent::ReconfigStarted { epoch: 1 });
        let v = c.finish();
        assert_eq!(classes(&v), vec![InvariantClass::ReconfigEpochs]);
    }
}
