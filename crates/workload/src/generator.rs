//! Request-stream generation: arrivals × datasets, with phase switching.
//!
//! The adaptability experiment (fig. 16) switches the workload's easy:hard
//! mix at fixed intervals (80:20 → 50:50 → 20:80) while the system runs;
//! [`WorkloadGenerator`] models the workload as a sequence of
//! [`Phase`]s, each pairing a dataset model with a duration.

use rand::rngs::StdRng;

use e3_simcore::{SimDuration, SimTime};

use crate::arrival::ArrivalProcess;
use crate::dataset::DatasetModel;
use crate::request::Request;

/// One workload phase: a dataset active for a duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// The dataset (hardness mixture) active during this phase.
    pub dataset: DatasetModel,
    /// How long the phase lasts.
    pub duration: SimDuration,
}

/// Deterministic request-stream generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    arrival: ArrivalProcess,
    phases: Vec<Phase>,
}

impl WorkloadGenerator {
    /// Single-phase workload.
    pub fn new(arrival: ArrivalProcess, dataset: DatasetModel, duration: SimDuration) -> Self {
        WorkloadGenerator {
            arrival,
            phases: vec![Phase { dataset, duration }],
        }
    }

    /// Multi-phase workload (fig. 16 style).
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn with_phases(arrival: ArrivalProcess, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        WorkloadGenerator { arrival, phases }
    }

    /// Total workload duration.
    pub fn horizon(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// The arrival process.
    pub fn arrival(&self) -> &ArrivalProcess {
        &self.arrival
    }

    /// The dataset active at time `t`.
    pub fn dataset_at(&self, t: SimTime) -> &DatasetModel {
        let mut start = SimTime::ZERO;
        for p in &self.phases {
            let end = start + p.duration;
            if t < end {
                return &p.dataset;
            }
            start = end;
        }
        &self.phases.last().expect("nonempty phases").dataset
    }

    /// Materializes the full request stream.
    ///
    /// For closed-loop processes this produces `closed_loop_len` requests
    /// all stamped at time zero, with hardness drawn from the first
    /// phase's dataset (closed-loop experiments are single-phase); the
    /// runtime feeds them back-to-back.
    pub fn generate(&self, closed_loop_len: usize, rng: &mut StdRng) -> Vec<Request> {
        match &self.arrival {
            ArrivalProcess::ClosedLoop { .. } => {
                let ds = &self.phases[0].dataset;
                (0..closed_loop_len as u64)
                    .map(|id| Request {
                        id,
                        arrival: SimTime::ZERO,
                        hardness: ds.sample_hardness(rng),
                        output_tokens: ds.output_len.sample(rng),
                    })
                    .collect()
            }
            open_loop => {
                let times = open_loop.generate(self.horizon(), rng);
                times
                    .into_iter()
                    .enumerate()
                    .map(|(i, arrival)| {
                        let ds = self.dataset_at(arrival);
                        Request {
                            id: i as u64,
                            arrival,
                            hardness: ds.sample_hardness(rng),
                            output_tokens: ds.output_len.sample(rng),
                        }
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_simcore::stats::mean;
    use rand::SeedableRng;

    #[test]
    fn closed_loop_requests_at_time_zero() {
        let g = WorkloadGenerator::new(
            ArrivalProcess::ClosedLoop { concurrency: 8 },
            DatasetModel::sst2(),
            SimDuration::from_secs(60),
        );
        let reqs = g.generate(100, &mut StdRng::seed_from_u64(1));
        assert_eq!(reqs.len(), 100);
        assert!(reqs.iter().all(|r| r.arrival == SimTime::ZERO));
        assert!(reqs.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn open_loop_respects_horizon_and_rate() {
        let g = WorkloadGenerator::new(
            ArrivalProcess::Poisson { rate: 500.0 },
            DatasetModel::qnli(),
            SimDuration::from_secs(10),
        );
        let reqs = g.generate(0, &mut StdRng::seed_from_u64(2));
        let rate = reqs.len() as f64 / 10.0;
        assert!((rate - 500.0).abs() < 60.0, "rate={rate}");
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn phases_switch_hardness_mix() {
        // 80:20 easy for 30s then 20:80 for 30s: mean hardness of the
        // second half must exceed the first.
        let g = WorkloadGenerator::with_phases(
            ArrivalProcess::Poisson { rate: 1000.0 },
            vec![
                Phase {
                    dataset: DatasetModel::with_mix(0.8),
                    duration: SimDuration::from_secs(30),
                },
                Phase {
                    dataset: DatasetModel::with_mix(0.2),
                    duration: SimDuration::from_secs(30),
                },
            ],
        );
        assert_eq!(g.horizon(), SimDuration::from_secs(60));
        let reqs = g.generate(0, &mut StdRng::seed_from_u64(3));
        let cut = SimTime::from_secs(30);
        let first: Vec<f64> = reqs
            .iter()
            .filter(|r| r.arrival < cut)
            .map(|r| r.hardness)
            .collect();
        let second: Vec<f64> = reqs
            .iter()
            .filter(|r| r.arrival >= cut)
            .map(|r| r.hardness)
            .collect();
        assert!(mean(&second) > mean(&first) + 0.1);
    }

    #[test]
    fn dataset_at_clamps_to_last_phase() {
        let g = WorkloadGenerator::new(
            ArrivalProcess::Poisson { rate: 1.0 },
            DatasetModel::sst2(),
            SimDuration::from_secs(1),
        );
        assert_eq!(g.dataset_at(SimTime::from_secs(100)).name(), "SST-2");
    }

    #[test]
    fn generation_deterministic() {
        let g = WorkloadGenerator::new(
            ArrivalProcess::Poisson { rate: 100.0 },
            DatasetModel::wmt(),
            SimDuration::from_secs(5),
        );
        let a = g.generate(0, &mut StdRng::seed_from_u64(4));
        let b = g.generate(0, &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }
}
