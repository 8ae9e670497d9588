//! Token-journey materialization for autoregressive serving (§5.1.3,
//! figs. 10–12).
//!
//! An autoregressive request is served token by token: each generated
//! token runs the decoder until it exits. [`materialize_sequences`] draws,
//! once and up front, each request's output length and every token's exit
//! depth, in the form the kernel's token serving
//! ([`crate::kernel::run_continuous`]) consumes. The paper's four serving
//! shapes (vanilla static batching, CALM-style sequential, naive batched
//! EE, and E3's split decoder) are configurations of it, assembled
//! by `e3::harness::Experiment::run_autoreg`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use e3_model::{EeModel, ExitPolicy, ExitSampler, InferenceSim, RampController};
use e3_simcore::SimTime;
use e3_workload::DatasetModel;

use crate::kernel::{SequenceSpec, TokenJourney};

/// Materializes `n_requests` requests — output length plus one journey
/// per token — exactly as the legacy simulator drew them, so seeds keep
/// their meaning across the port.
pub fn materialize_sequences(
    model: &EeModel,
    policy: &ExitPolicy,
    ctrl: &RampController,
    infer: &InferenceSim,
    dataset: &DatasetModel,
    n_requests: usize,
    seed: u64,
) -> Vec<SequenceSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ExitSampler::new(infer, model, policy, ctrl);
    let mut specs = Vec::with_capacity(n_requests);
    for i in 0..n_requests {
        let len = dataset.output_len.sample(&mut rng).max(1) as usize;
        let mut tokens = Vec::with_capacity(len);
        for _ in 0..len {
            let h = dataset.sample_hardness(&mut rng);
            let out = sampler.sample(h, &mut rng);
            tokens.push(TokenJourney {
                layers_executed: out.layers_executed,
            });
        }
        specs.push(SequenceSpec {
            id: i as u64,
            arrival: SimTime::ZERO,
            tokens,
        });
    }
    specs
}
