//! Bursty trace generation.
//!
//! The paper's §5.7 replays the open ArchiveTeam Twitter stream scaled to
//! an average of 1,000 req/s, noting "extreme bursts and long periods of
//! inactivity" that keep GPU utilization under 50%. We cannot ship the
//! trace, so we generate arrivals from a two-state Markov-modulated
//! Poisson process (burst / lull) with a slow diurnal modulation, then
//! rescale to the target mean rate — reproducing the statistics that
//! matter to the serving system: a high peak-to-mean ratio and idle gaps
//! much longer than an SLO.

use rand::rngs::StdRng;
use rand::Rng;

use e3_simcore::rng::exp_sample;
use e3_simcore::{SimDuration, SimTime};

/// Parameters of the bursty generator.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyTraceConfig {
    /// Target mean rate, requests/second (the paper scales to 1,000).
    pub mean_rate: f64,
    /// Rate multiplier while bursting (relative to the overall mean).
    pub burst_factor: f64,
    /// Rate multiplier while in a lull.
    pub lull_factor: f64,
    /// Mean burst length, seconds.
    pub mean_burst_secs: f64,
    /// Mean lull length, seconds.
    pub mean_lull_secs: f64,
    /// Amplitude of the diurnal sinusoid in `[0, 1)` (0 = none).
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid, seconds.
    pub diurnal_period_secs: f64,
}

impl BurstyTraceConfig {
    /// The configuration used to emulate the Twitter trace at 1,000 req/s
    /// mean (fig. 19): short intense bursts, lulls several SLOs long.
    pub fn twitter_like(mean_rate: f64) -> Self {
        BurstyTraceConfig {
            mean_rate,
            burst_factor: 4.0,
            lull_factor: 0.08,
            mean_burst_secs: 2.0,
            mean_lull_secs: 4.5,
            diurnal_amplitude: 0.3,
            diurnal_period_secs: 240.0,
        }
    }

    /// Expected rate multiplier before normalization (used to rescale so
    /// the realized mean matches `mean_rate`).
    fn raw_mean_factor(&self) -> f64 {
        let p_burst = self.mean_burst_secs / (self.mean_burst_secs + self.mean_lull_secs);
        p_burst * self.burst_factor + (1.0 - p_burst) * self.lull_factor
    }

    /// Generates arrival times over `[0, horizon)` via state-dependent
    /// thinning of a Poisson process.
    pub fn generate(&self, horizon: SimDuration, rng: &mut StdRng) -> Vec<SimTime> {
        assert!(self.mean_rate > 0.0, "mean rate must be positive");
        assert!(
            self.burst_factor > self.lull_factor,
            "burst factor must exceed lull factor"
        );
        let horizon_s = horizon.as_secs_f64();
        let norm = 1.0 / self.raw_mean_factor();
        // Peak instantaneous rate bounds the proposal process.
        let peak = self.mean_rate * norm * self.burst_factor * (1.0 + self.diurnal_amplitude);

        let mut out = Vec::new();
        let mut t = 0.0f64;
        let mut bursting =
            rng.gen::<f64>() < self.mean_burst_secs / (self.mean_burst_secs + self.mean_lull_secs);
        let mut state_end = exp_sample(
            rng,
            1.0 / if bursting {
                self.mean_burst_secs
            } else {
                self.mean_lull_secs
            },
        );
        loop {
            t += exp_sample(rng, peak);
            if t >= horizon_s {
                break;
            }
            while t > state_end {
                bursting = !bursting;
                state_end += exp_sample(
                    rng,
                    1.0 / if bursting {
                        self.mean_burst_secs
                    } else {
                        self.mean_lull_secs
                    },
                );
            }
            let state_factor = if bursting {
                self.burst_factor
            } else {
                self.lull_factor
            };
            let diurnal = 1.0
                + self.diurnal_amplitude
                    * (std::f64::consts::TAU * t / self.diurnal_period_secs).sin();
            let rate = self.mean_rate * norm * state_factor * diurnal;
            if rng.gen::<f64>() < rate / peak {
                out.push(SimTime::from_secs_f64(t));
            }
        }
        out
    }
}

/// Per-second arrival counts of a trace — used to characterize burstiness.
pub fn per_second_counts(arrivals: &[SimTime], horizon: SimDuration) -> Vec<f64> {
    let secs = horizon.as_secs_f64().ceil() as usize;
    let mut counts = vec![0.0; secs.max(1)];
    for a in arrivals {
        let s = a.as_secs_f64().floor() as usize;
        if s < counts.len() {
            counts[s] += 1.0;
        }
    }
    counts
}

/// Peak-to-mean ratio of per-second counts.
pub fn peak_to_mean(counts: &[f64]) -> f64 {
    let m = e3_simcore::stats::mean(counts);
    if m == 0.0 {
        return 0.0;
    }
    counts.iter().cloned().fold(0.0, f64::max) / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mean_rate_is_respected() {
        // Burstiness makes short-window rates noisy; average over a long
        // horizon and several seeds to test the calibration, not the luck.
        let cfg = BurstyTraceConfig::twitter_like(1000.0);
        let horizon = SimDuration::from_secs(600);
        let mut total = 0usize;
        let seeds = 4u64;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            total += cfg.generate(horizon, &mut rng).len();
        }
        let rate = total as f64 / (600.0 * seeds as f64);
        assert!(
            (rate - 1000.0).abs() < 120.0,
            "realized mean rate {rate} too far from 1000"
        );
    }

    #[test]
    fn trace_is_bursty() {
        let cfg = BurstyTraceConfig::twitter_like(1000.0);
        let mut rng = StdRng::seed_from_u64(2);
        let horizon = SimDuration::from_secs(120);
        let ts = cfg.generate(horizon, &mut rng);
        let counts = per_second_counts(&ts, horizon);
        let p2m = peak_to_mean(&counts);
        assert!(p2m > 2.0, "peak-to-mean {p2m} not bursty enough");
        // Long lulls: a meaningful fraction of seconds nearly idle.
        let idle = counts.iter().filter(|&&c| c < 200.0).count() as f64 / counts.len() as f64;
        assert!(idle > 0.3, "idle fraction {idle}");
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        let cfg = BurstyTraceConfig::twitter_like(500.0);
        let mut rng = StdRng::seed_from_u64(3);
        let horizon = SimDuration::from_secs(30);
        let ts = cfg.generate(horizon, &mut rng);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert!(ts.iter().all(|t| *t < SimTime::ZERO + horizon));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = BurstyTraceConfig::twitter_like(800.0);
        let a = cfg.generate(SimDuration::from_secs(10), &mut StdRng::seed_from_u64(4));
        let b = cfg.generate(SimDuration::from_secs(10), &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn diurnal_trace_is_smoother_than_twitter() {
        let horizon = SimDuration::from_secs(240);
        let twitter = per_second_counts(
            &BurstyTraceConfig::twitter_like(1000.0)
                .generate(horizon, &mut StdRng::seed_from_u64(9)),
            horizon,
        );
        let diurnal = per_second_counts(
            // A gentler, datacenter-style shape: pronounced diurnal
            // swing, mild bursts.
            &BurstyTraceConfig {
                burst_factor: 1.6,
                lull_factor: 0.7,
                mean_burst_secs: 8.0,
                mean_lull_secs: 8.0,
                diurnal_amplitude: 0.6,
                diurnal_period_secs: 120.0,
                ..BurstyTraceConfig::twitter_like(1000.0)
            }
            .generate(horizon, &mut StdRng::seed_from_u64(9)),
            horizon,
        );
        assert!(peak_to_mean(&diurnal) < peak_to_mean(&twitter));
        // ... but still meaningfully time-varying.
        assert!(peak_to_mean(&diurnal) > 1.3, "{}", peak_to_mean(&diurnal));
    }

    #[test]
    fn burstier_config_has_higher_peak_to_mean() {
        let mild = BurstyTraceConfig {
            burst_factor: 1.5,
            lull_factor: 0.8,
            ..BurstyTraceConfig::twitter_like(1000.0)
        };
        let wild = BurstyTraceConfig::twitter_like(1000.0);
        let horizon = SimDuration::from_secs(120);
        let a = per_second_counts(
            &mild.generate(horizon, &mut StdRng::seed_from_u64(5)),
            horizon,
        );
        let b = per_second_counts(
            &wild.generate(horizon, &mut StdRng::seed_from_u64(5)),
            horizon,
        );
        assert!(peak_to_mean(&b) > peak_to_mean(&a));
    }
}
