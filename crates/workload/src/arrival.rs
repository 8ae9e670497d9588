//! Arrival processes.
//!
//! The evaluation uses closed-loop clients (§5.1, always-saturated),
//! Poisson arrivals, and the bursty Twitter trace (§5.7). All open-loop
//! processes materialize a full arrival-time vector up front, which
//! keeps the serving simulation a simple deterministic event replay.

use rand::rngs::StdRng;

use e3_simcore::rng::exp_sample;
use e3_simcore::{SimDuration, SimTime};

use crate::trace::BurstyTraceConfig;

/// How requests arrive at the frontend.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: the client keeps `concurrency` requests outstanding;
    /// there are no arrival timestamps — the system is always saturated.
    ClosedLoop {
        /// Number of in-flight requests the client maintains.
        concurrency: usize,
    },
    /// Memoryless Poisson arrivals at `rate` requests/second.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
    },
    /// Markov-modulated bursty arrivals mimicking the Twitter trace.
    Bursty(BurstyTraceConfig),
}

impl ArrivalProcess {
    /// Materializes arrival times in `[0, horizon)`.
    ///
    /// Returns an empty vector for closed-loop processes (the runtime
    /// synthesizes work on demand instead).
    pub fn generate(&self, horizon: SimDuration, rng: &mut StdRng) -> Vec<SimTime> {
        match self {
            ArrivalProcess::ClosedLoop { .. } => Vec::new(),
            ArrivalProcess::Poisson { rate } => {
                assert!(*rate > 0.0, "poisson rate must be positive");
                let mut out = Vec::new();
                let mut t = 0.0f64;
                let horizon_s = horizon.as_secs_f64();
                loop {
                    t += exp_sample(rng, *rate);
                    if t >= horizon_s {
                        break;
                    }
                    out.push(SimTime::from_secs_f64(t));
                }
                out
            }
            ArrivalProcess::Bursty(cfg) => cfg.generate(horizon, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn closed_loop_generates_nothing() {
        let p = ArrivalProcess::ClosedLoop { concurrency: 64 };
        let mut rng = StdRng::seed_from_u64(1);
        assert!(p.generate(SimDuration::from_secs(10), &mut rng).is_empty());
    }

    #[test]
    fn poisson_rate_achieved() {
        let p = ArrivalProcess::Poisson { rate: 500.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let ts = p.generate(SimDuration::from_secs(20), &mut rng);
        let rate = ts.len() as f64 / 20.0;
        assert!((rate - 500.0).abs() < 25.0, "rate={rate}");
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        let p = ArrivalProcess::Poisson { rate: 200.0 };
        let mut rng = StdRng::seed_from_u64(4);
        let ts = p.generate(SimDuration::from_secs(60), &mut rng);
        let gaps: Vec<f64> = ts.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let m = e3_simcore::stats::mean(&gaps);
        let sd = e3_simcore::stats::std_dev(&gaps);
        let cv = sd / m;
        assert!((cv - 1.0).abs() < 0.1, "cv={cv}");
    }

    #[test]
    fn generation_is_deterministic() {
        let p = ArrivalProcess::Poisson { rate: 100.0 };
        let a = p.generate(SimDuration::from_secs(5), &mut StdRng::seed_from_u64(6));
        let b = p.generate(SimDuration::from_secs(5), &mut StdRng::seed_from_u64(6));
        assert_eq!(a, b);
    }
}
