//! The drift watchdog: hysteresis and confirmation around the raw
//! per-window drift signal.
//!
//! [`crate::BatchProfileEstimator::drift_exceeds`] is a one-shot
//! comparison: a single noisy window over the threshold triggers an
//! estimator reset and an immediate re-plan. That is the right reflex for
//! the paper's fig. 22 sweep, but as a production trigger it is twitchy —
//! one outlier window can throw away a healthy trend, and a forecast that
//! silently stops receiving observations (e.g. every sample dropped
//! during an outage) never trips it at all.
//!
//! [`DriftWatchdog`] wraps the raw signal with three guards:
//!
//! * **Hysteresis** — drift must exceed `TRIGGER` (0.12) to count
//!   against the system but fall below the lower `CLEAR` (0.06) to count
//!   for it; the dead band between the two holds the current state
//!   instead of flapping.
//! * **Consecutive-window confirmation** — only `CONFIRM_WINDOWS` (2)
//!   *successive* over-trigger windows confirm a regime change and enter
//!   safe mode; an isolated spike decays back to nominal.
//! * **Staleness** — `STALE_AFTER` (3) windows without any usable
//!   observation also force safe mode: a forecast nobody has
//!   corroborated recently must not steer the optimizer.
//!
//! In safe mode the control loop plans against
//! [`DriftWatchdog::safe_profile`] — the pessimistic "no early exits"
//! profile under which E3 degenerates to a stock deployment, the same
//! conservative stance the estimator itself takes before its first
//! observation (§3.1).

use e3_model::BatchProfile;

/// Drift above this counts toward confirmation (the estimator's
/// one-shot drift threshold).
const TRIGGER: f64 = 0.12;
/// Drift below this clears suspicion / safe mode. Below `TRIGGER`; the
/// gap is the hysteresis dead band.
const CLEAR: f64 = 0.06;
/// Consecutive over-`TRIGGER` windows required to confirm drift and
/// enter safe mode.
const CONFIRM_WINDOWS: usize = 2;
/// Windows without a usable observation before the forecast is
/// declared stale and safe mode entered.
const STALE_AFTER: usize = 3;

/// Where the watchdog currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogState {
    /// Forecasts look healthy.
    Nominal,
    /// Recent windows exceeded the trigger but drift is not yet
    /// confirmed.
    Suspect,
    /// Drift confirmed or forecast stale: plan pessimistically.
    SafeMode,
}

/// Why safe mode was entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeModeReason {
    /// `CONFIRM_WINDOWS` consecutive windows exceeded the trigger.
    ConfirmedDrift,
    /// `STALE_AFTER` windows passed without a usable observation.
    StaleForecast,
}

/// The outcome of feeding one window's drift to the watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogVerdict {
    /// State after this window.
    pub state: WatchdogState,
    /// True when this window entered safe mode (transition edge).
    pub entered_safe_mode: Option<SafeModeReason>,
    /// True when this window left safe mode or suspicion.
    pub cleared: bool,
    /// True when the caller should reset the estimator — fires
    /// exactly once per confirmed-drift entry, not on every noisy window.
    pub reset_estimator: bool,
}

/// Hysteretic, confirmation-gated drift detector. One instance per
/// control loop; feed it [`DriftWatchdog::observe`] once per window.
#[derive(Debug, Clone)]
pub struct DriftWatchdog {
    state: WatchdogState,
    consecutive_over: usize,
    windows_without_obs: usize,
}

impl Default for DriftWatchdog {
    /// A watchdog in the nominal state.
    fn default() -> Self {
        DriftWatchdog {
            state: WatchdogState::Nominal,
            consecutive_over: 0,
            windows_without_obs: 0,
        }
    }
}

impl DriftWatchdog {
    /// Feeds the drift measured at the end of a window. `None` means the
    /// window produced no usable observation (counts toward staleness);
    /// `Some(d)` is the estimator's mean absolute survival error for the
    /// window.
    pub fn observe(&mut self, drift: Option<f64>) -> WatchdogVerdict {
        let mut entered = None;
        let mut cleared = false;
        let mut reset = false;
        match drift {
            None => {
                self.windows_without_obs += 1;
                if self.windows_without_obs >= STALE_AFTER && self.state != WatchdogState::SafeMode
                {
                    self.state = WatchdogState::SafeMode;
                    entered = Some(SafeModeReason::StaleForecast);
                }
            }
            Some(d) => {
                self.windows_without_obs = 0;
                if d > TRIGGER {
                    self.consecutive_over += 1;
                    if self.consecutive_over >= CONFIRM_WINDOWS {
                        if self.state != WatchdogState::SafeMode {
                            self.state = WatchdogState::SafeMode;
                            entered = Some(SafeModeReason::ConfirmedDrift);
                            reset = true;
                        }
                    } else if self.state == WatchdogState::Nominal {
                        self.state = WatchdogState::Suspect;
                    }
                } else if d < CLEAR {
                    self.consecutive_over = 0;
                    if self.state != WatchdogState::Nominal {
                        cleared = true;
                    }
                    self.state = WatchdogState::Nominal;
                }
                // Dead band [clear, trigger]: hold state and count.
            }
        }
        WatchdogVerdict {
            state: self.state,
            entered_safe_mode: entered,
            cleared,
            reset_estimator: reset,
        }
    }

    /// Current state.
    pub fn state(&self) -> WatchdogState {
        self.state
    }

    /// True while planning must use the pessimistic profile.
    pub fn in_safe_mode(&self) -> bool {
        self.state == WatchdogState::SafeMode
    }

    /// The pessimistic planning profile: every sample survives every
    /// layer (no early exits), under which the optimizer produces the
    /// stock single-split deployment.
    pub fn safe_profile(num_layers: usize) -> BatchProfile {
        BatchProfile::new(vec![1.0; num_layers + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wd() -> DriftWatchdog {
        DriftWatchdog::default()
    }

    #[test]
    fn single_spike_does_not_confirm() {
        let mut w = wd();
        let v = w.observe(Some(0.3));
        assert_eq!(v.state, WatchdogState::Suspect);
        assert!(v.entered_safe_mode.is_none());
        assert!(!v.reset_estimator);
        // Next window is healthy: back to nominal.
        let v = w.observe(Some(0.01));
        assert_eq!(v.state, WatchdogState::Nominal);
        assert!(v.cleared);
    }

    #[test]
    fn consecutive_windows_confirm_and_reset_once() {
        let mut w = wd();
        assert!(w.observe(Some(0.2)).entered_safe_mode.is_none());
        let v = w.observe(Some(0.25));
        assert_eq!(v.entered_safe_mode, Some(SafeModeReason::ConfirmedDrift));
        assert!(v.reset_estimator);
        // Staying over the trigger keeps safe mode but never re-resets.
        let v = w.observe(Some(0.4));
        assert_eq!(v.state, WatchdogState::SafeMode);
        assert!(v.entered_safe_mode.is_none());
        assert!(!v.reset_estimator);
    }

    #[test]
    fn dead_band_holds_state() {
        let mut w = wd();
        w.observe(Some(0.2));
        w.observe(Some(0.2)); // confirmed -> safe mode
        assert!(w.in_safe_mode());
        // Drift inside [clear, trigger]: neither clears nor re-arms.
        let v = w.observe(Some(0.09));
        assert_eq!(v.state, WatchdogState::SafeMode);
        assert!(!v.cleared);
        // Only dropping below `clear` recovers.
        let v = w.observe(Some(0.03));
        assert_eq!(v.state, WatchdogState::Nominal);
        assert!(v.cleared);
    }

    #[test]
    fn interrupted_streak_does_not_confirm() {
        let mut w = wd();
        // One window short of confirmation, then a healthy window breaks
        // the streak.
        for _ in 1..CONFIRM_WINDOWS {
            w.observe(Some(0.2));
        }
        w.observe(Some(0.01));
        // A fresh streak one window short stays suspect: the windows
        // before the break do not count toward it.
        for _ in 1..CONFIRM_WINDOWS {
            w.observe(Some(0.2));
        }
        assert_eq!(w.state(), WatchdogState::Suspect);
        // Its confirming window is exactly the streak's CONFIRM_WINDOWS-th.
        let v = w.observe(Some(0.2));
        assert_eq!(v.entered_safe_mode, Some(SafeModeReason::ConfirmedDrift));
    }

    #[test]
    fn stale_forecast_enters_safe_mode() {
        let mut w = wd();
        assert!(w.observe(None).entered_safe_mode.is_none());
        assert!(w.observe(None).entered_safe_mode.is_none());
        let v = w.observe(None);
        assert_eq!(v.entered_safe_mode, Some(SafeModeReason::StaleForecast));
        // Staleness does not reset the estimator (there is nothing newer
        // to re-learn from).
        assert!(!v.reset_estimator);
        // A healthy observation recovers.
        let v = w.observe(Some(0.02));
        assert_eq!(v.state, WatchdogState::Nominal);
        assert!(v.cleared);
    }

    #[test]
    fn safe_profile_is_all_survival() {
        let p = DriftWatchdog::safe_profile(4);
        assert_eq!(p.survival(), &[1.0; 5]);
    }

    #[test]
    fn hysteresis_band_is_not_empty() {
        // Checked when the test compiles: a band with `CLEAR >= TRIGGER`
        // or a zero window count would make the hysteresis vacuous.
        const { assert!(CLEAR < TRIGGER) };
        const { assert!(CONFIRM_WINDOWS > 0 && STALE_AFTER > 0) };
    }
}
