//! Per-request materialized outcomes.
//!
//! At ingest, each request's journey through the model is drawn once from
//! the synthetic inference semantics: how many layers it will execute
//! (its exit layer under the active policy and ramp mask) and whether its
//! final prediction is correct. Materializing up front keeps the serving
//! engine deterministic and cheap — execution merely *times* the journey.

use rand::rngs::StdRng;

use e3_model::ExitSampler;
use e3_simcore::SimTime;
use e3_workload::Request;

/// One request, with its materialized model journey.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSample {
    /// Original request id.
    pub id: u64,
    /// Arrival at the frontend (rewritten to dispatch time in closed-loop
    /// runs, where the client always has work ready).
    pub arrival: SimTime,
    /// Total layers this sample will execute before exiting (equals the
    /// model's layer count when it never exits).
    pub layers_executed: usize,
    /// Ramp index it exits at, if any.
    pub exited_at_ramp: Option<usize>,
    /// Whether the synthetic prediction is correct.
    pub correct: bool,
    /// Output tokens (1 for classification).
    pub output_tokens: u32,
}

impl SimSample {
    /// Materializes a request's journey with `sampler`, the
    /// `(model, policy, ctrl)` it was built for.
    pub fn materialize(req: &Request, sampler: &ExitSampler, rng: &mut StdRng) -> Self {
        let out = sampler.sample(req.hardness, rng);
        SimSample {
            id: req.id,
            arrival: req.arrival,
            layers_executed: out.layers_executed,
            exited_at_ramp: out.exited_at_ramp,
            correct: out.correct,
            output_tokens: req.output_tokens,
        }
    }

    /// True if this sample still needs layer `k`.
    #[cfg(test)]
    pub(crate) fn needs_layer(&self, k: usize) -> bool {
        self.layers_executed > k
    }

    /// True if the sample finishes (exits or completes) strictly before
    /// layer `end` — i.e. within a stage covering `..end`.
    pub(crate) fn finishes_before(&self, end: usize) -> bool {
        self.layers_executed <= end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_model::{zoo, ExitPolicy, InferenceSim, RampController, RampStyle};
    use rand::SeedableRng;

    #[test]
    fn materialize_is_deterministic() {
        let m = zoo::deebert();
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Independent);
        let sampler = ExitSampler::new(&sim, &m, &pol, &ctrl);
        let req = Request::classification(1, SimTime::ZERO, 0.3);
        let a = SimSample::materialize(&req, &sampler, &mut StdRng::seed_from_u64(5));
        let b = SimSample::materialize(&req, &sampler, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn needs_layer_respects_exit() {
        let s = SimSample {
            id: 0,
            arrival: SimTime::ZERO,
            layers_executed: 4,
            exited_at_ramp: Some(3),
            correct: true,
            output_tokens: 1,
        };
        assert!(s.needs_layer(3));
        assert!(!s.needs_layer(4));
        assert!(s.finishes_before(4));
        assert!(!s.finishes_before(3));
    }
}
