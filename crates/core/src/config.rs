//! Top-level E3 configuration: the settings of the windowed control
//! loop ([`crate::E3System`]). Serving runs with every ramp enabled and
//! unbounded replica queues; the exit-wrapper (§3.4) is an option of
//! the one-shot harness ([`crate::harness::HarnessOpts`], fig. 25).

use e3_simcore::SimDuration;

/// Configuration of a full E3 deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct E3Config {
    /// Experiment seed; everything derives from it.
    pub seed: u64,
    /// Latency SLO (paper default: 100 ms).
    pub slo: SimDuration,
    /// Input batch size E3 maintains across every split.
    pub batch: usize,
    /// Maximum number of splits the optimizer may create.
    pub max_splits: usize,
    /// Requests processed per scheduling window in closed-loop mode: the
    /// profiler observes one window and the optimizer re-plans for the
    /// next.
    pub requests_per_window: usize,
    /// Guarded reconfiguration (see [`crate::reconfig`]): drift watchdog,
    /// probe/canary plan transitions with automatic rollback. Off by
    /// default — the naive instant-swap loop is preserved bit-for-bit.
    pub guarded: bool,
}

impl Default for E3Config {
    fn default() -> Self {
        E3Config {
            seed: 0,
            slo: SimDuration::from_millis(100),
            batch: 8,
            max_splits: 4,
            requests_per_window: 10_000,
            guarded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = E3Config::default();
        assert_eq!(c.slo, SimDuration::from_millis(100));
        assert!(!c.guarded, "guarded reconfiguration is opt-in");
    }
}
