//! Deterministic random number derivation.
//!
//! Every experiment in the reproduction takes a single `u64` seed. Each
//! simulation component (arrival process, per-sample hardness draws,
//! straggler injection, ...) derives its own independent [`rand::rngs::StdRng`]
//! from that seed plus a string label, so adding a new consumer of
//! randomness never perturbs the streams seen by existing components.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives independent, reproducible RNG streams from one experiment seed.
///
/// # Examples
///
/// ```
/// use e3_simcore::SeedSplitter;
/// use rand::Rng;
///
/// let splitter = SeedSplitter::new(42);
/// let mut a = splitter.rng("arrivals");
/// let mut b = splitter.rng("hardness");
/// // Streams are independent but each is reproducible:
/// let mut a2 = SeedSplitter::new(42).rng("arrivals");
/// assert_eq!(a.gen::<u64>(), a2.gen::<u64>());
/// let _ = b.gen::<u64>();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SeedSplitter {
    seed: u64,
}

impl SeedSplitter {
    /// Creates a splitter for the given experiment seed.
    pub fn new(seed: u64) -> Self {
        SeedSplitter { seed }
    }

    /// The root experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the sub-seed for `label` without constructing an RNG.
    pub fn derive(&self, label: &str) -> u64 {
        // FNV-1a over the label, mixed with the root seed via SplitMix64
        // finalization. Not cryptographic; just well-distributed and stable.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        splitmix64(h)
    }

    /// Derives a sub-seed for `label` plus an integer index, for per-entity
    /// streams (e.g., one stream per GPU replica).
    pub fn derive_indexed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.derive(label) ^ splitmix64(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
    }

    /// Builds an RNG for `label`.
    pub fn rng(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.derive(label))
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Samples an exponentially distributed duration with the given `rate`
/// (events per second), returned in seconds.
///
/// Returns `f64::INFINITY` for a zero rate (no events).
pub fn exp_sample<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Samples a standard-normal variate via Box–Muller.
pub fn normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    box_muller(u1, u2)
}

/// The Box–Muller transform [`normal_sample`] applies to its two
/// uniforms, for callers that draw them themselves (and may skip the
/// transcendentals when a bound on the result suffices).
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Relative slack the Marsaglia–Tsang squeeze in [`gamma_sample`] keeps
/// below its bound: far above the ~1e-13 float error of the exact test at
/// shapes up to 1000, far below any difference a draw could resolve.
const SQUEEZE_MARGIN: f64 = 1e-9;

/// Samples from a Gamma(shape, scale) distribution (Marsaglia–Tsang for
/// shape >= 1, boost trick for shape < 1). Used to build Beta samples.
///
/// Most candidates are accepted by the squeeze `u < 1 − 0.0331x⁴`, which
/// lies inside the exact acceptance region for every shape >= 1 and
/// skips its two `ln`s. The squeeze keeps a relative margin of
/// [`SQUEEZE_MARGIN`], so it accepts only draws the exact test accepts:
/// the draws, and every sample, are those of the exact test alone.
pub(crate) fn gamma_sample<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0 && scale > 0.0, "gamma parameters must be > 0");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma_sample(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal_sample(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let x2 = x * x;
        if u < (1.0 - 0.0331 * x2 * x2) * (1.0 - SQUEEZE_MARGIN)
            || u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln()
        {
            return d * v3 * scale;
        }
    }
}

/// Samples from a Beta(alpha, beta) distribution in `[0, 1]`.
///
/// The workload crate uses Beta mixtures to model per-dataset input
/// hardness (the latent that drives early-exit depth).
pub fn beta_sample<R: Rng + ?Sized>(rng: &mut R, alpha: f64, beta: f64) -> f64 {
    let x = gamma_sample(rng, alpha, 1.0);
    let y = gamma_sample(rng, beta, 1.0);
    x / (x + y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn same_seed_same_label_same_stream() {
        let s = SeedSplitter::new(7);
        assert_eq!(s.derive("x"), SeedSplitter::new(7).derive("x"));
        assert_ne!(s.derive("x"), s.derive("y"));
        assert_ne!(s.derive("x"), SeedSplitter::new(8).derive("x"));
    }

    #[test]
    fn indexed_streams_differ() {
        let s = SeedSplitter::new(7);
        let a = s.derive_indexed("gpu", 0);
        let b = s.derive_indexed("gpu", 1);
        assert_ne!(a, b);
        assert_eq!(a, s.derive_indexed("gpu", 0));
    }

    #[test]
    fn exp_sample_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let rate = 100.0;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.0005, "mean={mean}");
    }

    #[test]
    fn exp_sample_zero_rate_is_infinite() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(exp_sample(&mut rng, 0.0).is_infinite());
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| normal_sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn beta_sample_in_unit_interval_and_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let (a, b) = (2.0, 5.0);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = beta_sample(&mut rng, a, b);
            assert!((0.0..=1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        let expect = a / (a + b);
        assert!((mean - expect).abs() < 0.01, "mean={mean} expect={expect}");
    }

    /// The full Marsaglia–Tsang test [`gamma_sample`] must reproduce.
    fn gamma_sample_reference<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
        if shape < 1.0 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            return gamma_sample_reference(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = normal_sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            if u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln() {
                return d * v3 * scale;
            }
        }
    }

    /// Every α and β of `e3_workload::DatasetModel`'s mixture components;
    /// that crate's tests check the list stays complete.
    const DATASET_SHAPES: [f64; 7] = [1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0];

    #[test]
    fn gamma_squeeze_matches_reference_draw_for_draw() {
        let mut meta = StdRng::seed_from_u64(0xE3);
        let mut draws = 0;
        let mut check = |shape: f64, seed: u64, n: usize| {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..n {
                let got = gamma_sample(&mut a, shape, 1.0);
                let want = gamma_sample_reference(&mut b, shape, 1.0);
                assert_eq!(got.to_bits(), want.to_bits(), "shape {shape}");
                assert_eq!(a.clone().next_u64(), b.clone().next_u64(), "shape {shape}");
            }
            draws += n;
        };
        for (k, &shape) in DATASET_SHAPES.iter().enumerate() {
            check(shape, k as u64, 100_000);
        }
        // Shape 1 is where the squeeze sits closest to the exact bound.
        check(1.0, 99, 100_000);
        for _ in 0..200 {
            let shape = meta.gen_range(1.0..50.0);
            check(shape, meta.gen(), 1_000);
        }
        assert!(draws >= 1_000_000);
    }

    #[test]
    fn gamma_small_shape_is_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x = gamma_sample(&mut rng, 0.3, 2.0);
            assert!(x >= 0.0 && x.is_finite());
        }
    }
}
