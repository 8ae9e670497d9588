//! The exit-wrapper (§3.4): E3's optional hook into the EE-DNN's exit
//! logic.
//!
//! By default E3 assumes nothing about the exit mechanism and every ramp
//! runs. If the model developer wraps the exit-checking logic with the
//! `exit-wrapper`, E3 may *disable* ramps it deems not useful (e.g. ramps
//! in the interior of a split whose exits barely fire), saving the ramp's
//! checking cost. Fig. 25 measures this: up to 16% extra goodput.
//!
//! The paper distinguishes two ramp architectures:
//! * **independent** ramps decide from their own logits only — a disabled
//!   ramp can be skipped entirely (zero cost);
//! * **dependent** ramps (patience counters, voting) consume state from
//!   earlier ramps — their logic must still execute to keep the state
//!   consistent, so disabling one only suppresses the *exit action*, not
//!   its compute.

/// How ramps relate to each other; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RampStyle {
    /// Each ramp decides independently; disabled ramps are free.
    Independent,
    /// Ramps feed cross-ramp state; disabled ramps still pay compute.
    Dependent,
}

/// Controls which of a model's ramps are active.
///
/// One controller is attached to an execution strategy; the runtime
/// consults it for (a) whether samples may exit at a ramp and (b) whether
/// the ramp's checking cost is paid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RampController {
    enabled: Vec<bool>,
    style: RampStyle,
}

impl RampController {
    /// All `num_ramps` ramps enabled — E3's default operating mode (the
    /// wrapper is *not* required; evaluation defaults match the paper).
    pub fn all_enabled(num_ramps: usize, style: RampStyle) -> Self {
        RampController {
            enabled: vec![true; num_ramps],
            style,
        }
    }

    /// Controller with an explicit enable mask.
    pub fn with_mask(enabled: Vec<bool>, style: RampStyle) -> Self {
        RampController { enabled, style }
    }

    /// Ramp interdependence style.
    pub fn style(&self) -> RampStyle {
        self.style
    }

    /// Number of ramps under control.
    pub fn num_ramps(&self) -> usize {
        self.enabled.len()
    }

    /// Whether samples may exit at ramp `i`.
    pub(crate) fn can_exit_at(&self, i: usize) -> bool {
        self.enabled[i]
    }

    /// Whether ramp `i`'s checking compute is paid.
    ///
    /// Independent disabled ramps are skipped; dependent disabled ramps
    /// still execute (their state must advance).
    pub fn pays_cost_at(&self, i: usize) -> bool {
        match self.style {
            RampStyle::Independent => self.enabled[i],
            RampStyle::Dependent => true,
        }
    }

    /// The ramps whose checking cost a sample pays when it exits at ramp
    /// `exit` (`None`: it ran to completion) — every paid ramp up to and
    /// including the exit ramp, in order.
    pub fn paid_through(&self, exit: Option<usize>) -> impl Iterator<Item = usize> + '_ {
        let end = exit.map_or(self.num_ramps(), |r| r + 1);
        (0..end).filter(|&i| self.pays_cost_at(i))
    }

    /// Disables ramp `i`.
    pub fn disable(&mut self, i: usize) {
        self.enabled[i] = false;
    }

    /// Disables every ramp except those in `keep` (the §3.4 use case:
    /// keep only the ramps at split boundaries, which are required for the
    /// batch profile to hold).
    pub fn keep_only(&mut self, keep: &[usize]) {
        for (i, e) in self.enabled.iter_mut().enumerate() {
            *e = keep.contains(&i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_all_enabled() {
        let c = RampController::all_enabled(3, RampStyle::Independent);
        assert_eq!(c.num_ramps(), 3);
        assert!((0..3).all(|i| c.can_exit_at(i) && c.pays_cost_at(i)));
    }

    #[test]
    fn independent_disabled_ramp_is_free() {
        let mut c = RampController::all_enabled(3, RampStyle::Independent);
        c.disable(1);
        assert!(!c.can_exit_at(1));
        assert!(!c.pays_cost_at(1));
        assert!(c.pays_cost_at(0));
    }

    #[test]
    fn dependent_disabled_ramp_still_pays() {
        let mut c = RampController::all_enabled(3, RampStyle::Dependent);
        c.disable(1);
        assert!(!c.can_exit_at(1));
        assert!(c.pays_cost_at(1), "dependent ramps must keep running");
    }

    #[test]
    fn keep_only_boundary_ramps() {
        let mut c = RampController::all_enabled(12, RampStyle::Independent);
        c.keep_only(&[5, 11]);
        let enabled: Vec<usize> = (0..12).filter(|&i| c.can_exit_at(i)).collect();
        assert_eq!(enabled, vec![5, 11]);
        assert!(!c.can_exit_at(0));
        assert!(c.can_exit_at(5));
    }

    #[test]
    fn paid_through_stops_at_the_exit_ramp() {
        let mut c = RampController::all_enabled(4, RampStyle::Independent);
        c.disable(1);
        assert_eq!(c.paid_through(Some(2)).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(c.paid_through(None).collect::<Vec<_>>(), vec![0, 2, 3]);
        let mut d = RampController::all_enabled(4, RampStyle::Dependent);
        d.disable(1);
        assert_eq!(d.paid_through(Some(1)).collect::<Vec<_>>(), vec![0, 1]);
    }
}
