//! Exit policies — the decision rule evaluated at each ramp.
//!
//! The paper's related-work section (§6) taxonomizes the exit criteria the
//! ML literature has proposed; E3 supports all of them because it never
//! inspects the decision, only its batch-size consequences. We implement
//! the five families so the reproduction can exercise E3's generality
//! claim (§5.6) across genuinely different decision dynamics:
//!
//! * **Entropy** (DeeBERT, BERxiT): exit when prediction entropy drops
//!   below a threshold. Independent per ramp.
//! * **Confidence** (FastBERT, CALM): exit when top-class softmax
//!   probability exceeds a threshold. Independent per ramp.
//! * **Patience** (PABEE): exit after `patience` consecutive ramps agree
//!   on the prediction. *Dependent* across ramps.
//! * **Voting** (ensemble internal classifiers): exit once `quorum` of the
//!   ramps seen so far agree. Dependent across ramps.
//! * **Learned** (learn-to-exit): a trained gate; modeled as a noisy
//!   oracle on the sample's true stabilization depth.

use crate::wrapper::RampStyle;

/// Observation produced by the synthetic inference semantics at one ramp,
/// consumed by the policy. Fields are what a real ramp classifier would
/// expose.
#[derive(Debug, Clone, Copy)]
pub struct RampObservation {
    /// Normalized prediction entropy in `[0, 1]` (1 = uniform).
    pub entropy: f64,
    /// Top-class probability in `[1/C, 1]`.
    pub confidence: f64,
    /// The arg-max class predicted at this ramp.
    pub predicted_class: usize,
    /// A learned-gate score in `[0, 1]` (higher = safer to exit).
    pub gate_score: f64,
}

/// The exit decision rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitPolicy {
    /// Exit when normalized entropy `<= threshold` (DeeBERT-style).
    /// The paper's default threshold is 0.4 (§5, "Comparison & Metrics").
    Entropy {
        /// Normalized-entropy threshold in `[0, 1]`.
        threshold: f64,
    },
    /// Exit when top-class probability `>= threshold` (CALM-style; the
    /// CALM paper's default is 0.25 for calibrated token confidence).
    Confidence {
        /// Confidence threshold in `[0, 1]`.
        threshold: f64,
    },
    /// Exit after `patience` consecutive ramps predict the same class
    /// (PABEE-style). Dependent across ramps.
    Patience {
        /// Number of consecutive agreements required.
        patience: usize,
    },
    /// Exit once at least `quorum` of all ramps evaluated so far agree on
    /// one class. Dependent across ramps.
    Voting {
        /// Number of agreeing ramps required.
        quorum: usize,
    },
    /// Exit when a learned gate's score exceeds `threshold`.
    Learned {
        /// Gate-score threshold in `[0, 1]`.
        threshold: f64,
    },
}

impl ExitPolicy {
    /// The ramp interdependence style of this policy — determines what the
    /// exit-wrapper may skip (§3.4): independent ramps can be skipped
    /// entirely; dependent ramps must still execute their logic to keep
    /// their cross-ramp state correct.
    pub fn ramp_style(&self) -> RampStyle {
        match self {
            ExitPolicy::Entropy { .. }
            | ExitPolicy::Confidence { .. }
            | ExitPolicy::Learned { .. } => RampStyle::Independent,
            ExitPolicy::Patience { .. } | ExitPolicy::Voting { .. } => RampStyle::Dependent,
        }
    }

    /// A human-readable label.
    pub fn label(&self) -> String {
        match self {
            ExitPolicy::Entropy { threshold } => format!("entropy({threshold})"),
            ExitPolicy::Confidence { threshold } => format!("confidence({threshold})"),
            ExitPolicy::Patience { patience } => format!("patience({patience})"),
            ExitPolicy::Voting { quorum } => format!("voting({quorum})"),
            ExitPolicy::Learned { threshold } => format!("learned({threshold})"),
        }
    }
}

/// Per-sample, cross-ramp state for dependent policies.
///
/// Create one per sample, feed it every evaluated ramp's observation in
/// order, and it reports whether the sample exits.
#[derive(Debug, Clone, Default)]
pub struct SampleExitState {
    /// Consecutive-agreement run length (patience).
    streak: usize,
    /// Last predicted class seen.
    last_class: Option<usize>,
    /// Votes per class seen so far (voting). Class ids are small.
    votes: Vec<usize>,
}

impl SampleExitState {
    /// Fresh state for a new sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates the policy at one ramp. Returns `true` if the sample
    /// exits here.
    pub fn observe(&mut self, policy: &ExitPolicy, obs: &RampObservation) -> bool {
        match *policy {
            ExitPolicy::Entropy { threshold } => obs.entropy <= threshold,
            ExitPolicy::Confidence { threshold } => obs.confidence >= threshold,
            ExitPolicy::Learned { threshold } => obs.gate_score >= threshold,
            ExitPolicy::Patience { .. } | ExitPolicy::Voting { .. } => {
                self.observe_class(policy, obs.predicted_class)
            }
        }
    }

    /// Evaluates a class-reading policy (patience or voting) at one ramp
    /// from the ramp's predicted class alone. Returns `true` if the
    /// sample exits here; always `false` for the threshold policies,
    /// which read no class.
    pub(crate) fn observe_class(&mut self, policy: &ExitPolicy, predicted_class: usize) -> bool {
        match *policy {
            ExitPolicy::Patience { patience } => {
                if self.last_class == Some(predicted_class) {
                    self.streak += 1;
                } else {
                    self.streak = 1;
                    self.last_class = Some(predicted_class);
                }
                self.streak >= patience
            }
            ExitPolicy::Voting { quorum } => {
                if predicted_class >= self.votes.len() {
                    self.votes.resize(predicted_class + 1, 0);
                }
                self.votes[predicted_class] += 1;
                self.votes[predicted_class] >= quorum
            }
            ExitPolicy::Entropy { .. }
            | ExitPolicy::Confidence { .. }
            | ExitPolicy::Learned { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(entropy: f64, confidence: f64, class: usize, gate: f64) -> RampObservation {
        RampObservation {
            entropy,
            confidence,
            predicted_class: class,
            gate_score: gate,
        }
    }

    #[test]
    fn entropy_policy_thresholds() {
        let p = ExitPolicy::Entropy { threshold: 0.4 };
        let mut s = SampleExitState::new();
        assert!(!s.observe(&p, &obs(0.9, 0.5, 0, 0.0)));
        assert!(s.observe(&p, &obs(0.39, 0.5, 0, 0.0)));
        assert!(s.observe(&p, &obs(0.4, 0.5, 0, 0.0)), "boundary inclusive");
    }

    #[test]
    fn confidence_policy_thresholds() {
        let p = ExitPolicy::Confidence { threshold: 0.9 };
        let mut s = SampleExitState::new();
        assert!(!s.observe(&p, &obs(0.1, 0.89, 0, 0.0)));
        assert!(s.observe(&p, &obs(0.1, 0.91, 0, 0.0)));
    }

    #[test]
    fn patience_requires_consecutive_agreement() {
        let p = ExitPolicy::Patience { patience: 3 };
        let mut s = SampleExitState::new();
        assert!(!s.observe(&p, &obs(0.0, 1.0, 1, 1.0))); // streak 1
        assert!(!s.observe(&p, &obs(0.0, 1.0, 1, 1.0))); // streak 2
        assert!(!s.observe(&p, &obs(0.0, 1.0, 0, 1.0))); // reset -> streak 1
        assert!(!s.observe(&p, &obs(0.0, 1.0, 0, 1.0))); // streak 2
        assert!(s.observe(&p, &obs(0.0, 1.0, 0, 1.0))); // streak 3 -> exit
                                                        // A disagreement anywhere restarts the count entirely.
        let mut s2 = SampleExitState::new();
        s2.observe(&p, &obs(0.0, 1.0, 0, 1.0));
        s2.observe(&p, &obs(0.0, 1.0, 0, 1.0));
        assert!(s2.observe(&p, &obs(0.0, 1.0, 0, 1.0)));
    }

    #[test]
    fn voting_counts_nonconsecutive_agreement() {
        let p = ExitPolicy::Voting { quorum: 2 };
        let mut s = SampleExitState::new();
        assert!(!s.observe(&p, &obs(0.0, 1.0, 3, 1.0)));
        assert!(!s.observe(&p, &obs(0.0, 1.0, 1, 1.0)));
        assert!(
            s.observe(&p, &obs(0.0, 1.0, 3, 1.0)),
            "two votes for class 3"
        );
    }

    #[test]
    fn learned_gate() {
        let p = ExitPolicy::Learned { threshold: 0.7 };
        let mut s = SampleExitState::new();
        assert!(!s.observe(&p, &obs(0.0, 0.0, 0, 0.6)));
        assert!(s.observe(&p, &obs(0.0, 0.0, 0, 0.8)));
    }

    #[test]
    fn ramp_styles() {
        assert_eq!(
            ExitPolicy::Entropy { threshold: 0.4 }.ramp_style(),
            RampStyle::Independent
        );
        assert_eq!(
            ExitPolicy::Patience { patience: 2 }.ramp_style(),
            RampStyle::Dependent
        );
        assert_eq!(
            ExitPolicy::Voting { quorum: 2 }.ramp_style(),
            RampStyle::Dependent
        );
    }
}
