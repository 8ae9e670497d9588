//! Arrival processes.
//!
//! The evaluation uses closed-loop clients (§5.1, always-saturated),
//! uniform arrivals matching production statistics, and the bursty
//! Twitter trace (§5.7). All open-loop processes materialize a full
//! arrival-time vector up front, which keeps the serving simulation a
//! simple deterministic event replay.

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
    /// Deterministic, evenly spaced arrivals at `rate` requests/second
    /// (the paper's "uniform arrivals" production emulation, ~5% CV is
    /// added by the generator's jitter parameter).
    Uniform {
        /// Mean arrival rate, requests per second.
        rate: f64,
        /// Relative jitter (0.05 = ±5% spacing noise).
        jitter: f64,
    },
    /// Memoryless Poisson arrivals at `rate` requests/second.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
    },
    /// Markov-modulated bursty arrivals mimicking the Twitter trace.
    Bursty(BurstyTraceConfig),
    /// Replay of recorded arrival timestamps (sorted ascending). Lets
    /// users drive the simulator with real traces they *do* have.
    Replay(Vec<SimTime>),
}

impl ArrivalProcess {
    /// Materializes arrival times in `[0, horizon)`.
    ///
    /// Returns an empty vector for closed-loop processes (the runtime
    /// synthesizes work on demand instead).
    pub fn generate(&self, horizon: SimDuration, rng: &mut StdRng) -> Vec<SimTime> {
        match self {
            ArrivalProcess::ClosedLoop { .. } => Vec::new(),
            ArrivalProcess::Uniform { rate, jitter } => {
                assert!(*rate > 0.0, "uniform rate must be positive");
                let period = 1.0 / rate;
                let mut out = Vec::new();
                let mut t = 0.0f64;
                let horizon_s = horizon.as_secs_f64();
                while t < horizon_s {
                    out.push(SimTime::from_secs_f64(t));
                    let j = 1.0 + jitter * (2.0 * rand::Rng::gen::<f64>(rng) - 1.0);
                    t += period * j.max(0.0);
                }
                out
            }
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
            ArrivalProcess::Replay(ts) => {
                debug_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "replay must be sorted");
                let end = SimTime::ZERO + horizon;
                ts.iter().copied().filter(|t| *t < end).collect()
            }
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
    fn uniform_rate_achieved() {
        let p = ArrivalProcess::Uniform {
            rate: 1000.0,
            jitter: 0.05,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let ts = p.generate(SimDuration::from_secs(10), &mut rng);
        let rate = ts.len() as f64 / 10.0;
        assert!((rate - 1000.0).abs() < 30.0, "rate={rate}");
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted");
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
    fn uniform_is_smoother_than_poisson() {
        let mut rng = StdRng::seed_from_u64(5);
        let u = ArrivalProcess::Uniform {
            rate: 200.0,
            jitter: 0.05,
        }
        .generate(SimDuration::from_secs(30), &mut rng);
        let gaps: Vec<f64> = u.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let cv = e3_simcore::stats::std_dev(&gaps) / e3_simcore::stats::mean(&gaps);
        assert!(cv < 0.1, "cv={cv}");
    }

    #[test]
    fn replay_filters_to_horizon() {
        let ts = vec![
            SimTime::from_millis(10),
            SimTime::from_millis(500),
            SimTime::from_secs(2),
        ];
        let p = ArrivalProcess::Replay(ts);
        let mut rng = StdRng::seed_from_u64(8);
        let out = p.generate(SimDuration::from_secs(1), &mut rng);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = ArrivalProcess::Poisson { rate: 100.0 };
        let a = p.generate(SimDuration::from_secs(5), &mut StdRng::seed_from_u64(6));
        let b = p.generate(SimDuration::from_secs(5), &mut StdRng::seed_from_u64(6));
        assert_eq!(a, b);
    }
}
