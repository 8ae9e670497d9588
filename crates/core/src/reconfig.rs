//! Guarded reconfiguration: segment sizing and per-window verdicts.
//!
//! The naive control loop swaps to each window's freshly optimized plan
//! instantly and unconditionally. The guarded loop
//! ([`crate::config::E3Config::guarded`]) treats a plan change as a
//! hazard to be contained:
//!
//! 1. **Probe** — the incumbent plan serves a small slice of the window's
//!    requests, establishing a same-workload baseline.
//! 2. **Canary** — the candidate plan serves an equal slice. Between
//!    segments the kernel drains completely (a segment's event queue
//!    empties before the next starts), so no batch straddles two plans.
//! 3. **Verdict** — the candidate is promoted only if its canary did not
//!    regress against the probe (`should_promote`); otherwise the loop
//!    rolls back to the incumbent deterministically.
//! 4. **Remainder** — the winner serves the rest of the window.
//!
//! Because probe and canary face the *same window's* workload, the
//! comparison is paired: a candidate built from a stale forecast loses
//! the canary and never touches the bulk of the traffic, which is
//! exactly the failure mode fig. 21/22 shows naive re-planning walking
//! into.

use e3_runtime::RunReport;

/// Fraction of a window's requests given to the probe segment and to
/// the canary segment (each).
const CANARY_FRAC: f64 = 0.08;
/// Floor on the probe/canary segment size in requests (small windows
/// still need a statistically meaningful comparison).
const MIN_CANARY: usize = 256;
/// Relative goodput / SLO-attainment slack the canary is allowed before
/// it counts as a regression.
const REGRESSION_TOL: f64 = 0.05;

/// Requests per probe/canary segment for a window of `n` requests:
/// `CANARY_FRAC` of the window, at least `MIN_CANARY`, but never more
/// than a third of the window (the remainder must dominate). Returns 0
/// when the window is too small to guard at all.
pub(crate) fn segment_len(n: usize) -> usize {
    ((n as f64 * CANARY_FRAC).ceil() as usize)
        .max(MIN_CANARY)
        .min(n / 3)
}

/// The promotion criterion: the canary must hold the probe's goodput and
/// SLO attainment to within `REGRESSION_TOL` (relative): promote iff
/// `canary_goodput >= (1 - tol) * probe_goodput` and attainment holds
/// likewise. Both sides are measured on slices of the same window's
/// workload, so the comparison is paired and deterministic.
pub(crate) fn should_promote(probe: &RunReport, canary: &RunReport) -> bool {
    let keep = 1.0 - REGRESSION_TOL;
    let goodput_ok = canary.goodput() >= keep * probe.goodput();
    let attainment_ok = attainment(canary) >= keep * attainment(probe);
    goodput_ok && attainment_ok
}

fn attainment(r: &RunReport) -> f64 {
    let offered = r.completed + r.dropped;
    if offered == 0 {
        return 1.0;
    }
    r.within_slo as f64 / offered as f64
}

/// How a guarded plan transition ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigDecision {
    /// The candidate plan survived its canary and took the window.
    Promoted,
    /// The candidate regressed; the incumbent plan was restored.
    RolledBack,
}

/// The record of one guarded plan transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigReport {
    /// Reconfiguration epoch (monotone across the control loop's life).
    pub epoch: u32,
    /// The verdict.
    pub decision: ReconfigDecision,
    /// Goodput of the incumbent's probe segment (samples/s).
    pub probe_goodput: f64,
    /// Goodput of the candidate's canary segment (samples/s).
    pub canary_goodput: f64,
    /// SLO attainment over the probe's offered requests.
    pub probe_attainment: f64,
    /// SLO attainment over the canary's offered requests.
    pub canary_attainment: f64,
    /// Requests in the probe segment (the canary got the same number).
    pub segment_len: usize,
}

impl ReconfigReport {
    /// Builds the record from the two segment reports and the verdict.
    pub fn new(
        epoch: u32,
        decision: ReconfigDecision,
        probe: &RunReport,
        canary: &RunReport,
        segment_len: usize,
    ) -> Self {
        ReconfigReport {
            epoch,
            decision,
            probe_goodput: probe.goodput(),
            canary_goodput: canary.goodput(),
            probe_attainment: attainment(probe),
            canary_attainment: attainment(canary),
            segment_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_simcore::metrics::DurationHistogram;
    use e3_simcore::SimDuration;

    fn report(within_slo: u64, completed: u64, secs: u64) -> RunReport {
        RunReport {
            duration: SimDuration::from_secs(secs),
            completed,
            within_slo,
            dropped: 0,
            correct: completed,
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
            robustness: Default::default(),
        }
    }

    #[test]
    fn promotion_tolerates_small_regressions() {
        let probe = report(1000, 1000, 1);
        // 3% slower: within the 5% tolerance.
        let close = report(970, 1000, 1);
        assert!(should_promote(&probe, &close));
        // 20% slower: regression.
        let bad = report(800, 1000, 1);
        assert!(!should_promote(&probe, &bad));
    }

    #[test]
    fn promotion_requires_attainment_too() {
        let probe = report(1000, 1000, 1);
        // Same goodput rate but over twice the time with half the
        // attainment: the throughput criterion alone would let a
        // latency-degrading plan through.
        let sloppy = report(2000, 4000, 2);
        assert!(!should_promote(&probe, &sloppy));
    }

    #[test]
    fn defaults_keep_the_guard_off() {
        assert!(!crate::E3Config::default().guarded);
        const { assert!(CANARY_FRAC > 0.0 && CANARY_FRAC < 0.5) };
    }
}
