//! Dataset hardness models.
//!
//! A dataset is modeled by (1) a mixture of Beta distributions over
//! hardness — the "easy" component puts mass at low hardness (samples
//! whose predictions stabilize in the first layers), the "hard" component
//! at high hardness — (2) a base accuracy ceiling, and (3) an output
//! length distribution for generation tasks.
//!
//! The paper bins GLUE inputs into easy/hard and reports that its
//! production workloads look like an 80:20 easy:hard mix (§5,
//! "Workloads"); [`DatasetModel::with_mix`] exposes exactly that knob for
//! the adaptability study (fig. 16).

use rand::rngs::StdRng;
use rand::Rng;

use e3_simcore::rng::{beta_sample, normal_sample};

/// Output-length distribution for autoregressive tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDist {
    /// Every request emits exactly `n` tokens (BoolQ's yes/no answers).
    Fixed(u32),
    /// Truncated normal over token counts (translation, summarization).
    Normal {
        /// Mean token count.
        mean: f64,
        /// Standard deviation.
        sd: f64,
        /// Minimum length (inclusive).
        min: u32,
        /// Maximum length (inclusive).
        max: u32,
    },
}

impl LengthDist {
    /// Draws an output length.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            LengthDist::Fixed(n) => n,
            LengthDist::Normal { mean, sd, min, max } => {
                let x = mean + sd * normal_sample(rng);
                (x.round() as i64).clamp(i64::from(min), i64::from(max)) as u32
            }
        }
    }

    /// The distribution's mean (after truncation effects are ignored).
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDist::Fixed(n) => f64::from(n),
            LengthDist::Normal { mean, .. } => mean,
        }
    }
}

/// One Beta mixture component over hardness.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Component {
    weight: f64,
    alpha: f64,
    beta: f64,
    /// Affine map of the Beta draw into [lo, hi].
    lo: f64,
    hi: f64,
}

/// A dataset's statistical model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetModel {
    name: String,
    components: Vec<Component>,
    /// Accuracy of the full (non-EE) model on this dataset.
    pub base_accuracy: f64,
    /// Output length distribution (classification tasks emit one token).
    pub output_len: LengthDist,
}

impl DatasetModel {
    fn new(
        name: &str,
        components: Vec<Component>,
        base_accuracy: f64,
        output_len: LengthDist,
    ) -> Self {
        let total: f64 = components.iter().map(|c| c.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "component weights must sum to 1"
        );
        DatasetModel {
            name: name.to_string(),
            components,
            base_accuracy,
            output_len,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Draws one hardness value.
    pub fn sample_hardness(&self, rng: &mut StdRng) -> f64 {
        let mut u: f64 = rng.gen();
        for c in &self.components {
            if u < c.weight {
                let x = beta_sample(rng, c.alpha, c.beta);
                return (c.lo + (c.hi - c.lo) * x).clamp(0.0, 1.0);
            }
            u -= c.weight;
        }
        // Floating-point slack: fall back to the last component.
        let c = self.components.last().expect("nonempty mixture");
        let x = beta_sample(rng, c.alpha, c.beta);
        (c.lo + (c.hi - c.lo) * x).clamp(0.0, 1.0)
    }

    /// Draws `n` hardness values.
    pub fn sample_hardnesses(&self, n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n).map(|_| self.sample_hardness(rng)).collect()
    }

    /// A generic easy/hard mixture with the given easy fraction — the
    /// fig. 16 knob. Easy inputs stabilize in the first ~40% of the
    /// model; hard inputs need ≥70% of it.
    pub fn with_mix(easy_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&easy_frac), "easy_frac in [0,1]");
        let name = format!(
            "mix-{:.0}E/{:.0}H",
            easy_frac * 100.0,
            (1.0 - easy_frac) * 100.0
        );
        DatasetModel::new(
            &name,
            vec![
                Component {
                    weight: easy_frac,
                    alpha: 2.0,
                    beta: 4.0,
                    lo: 0.0,
                    hi: 0.75,
                },
                Component {
                    weight: 1.0 - easy_frac,
                    alpha: 3.0,
                    beta: 1.5,
                    lo: 0.6,
                    hi: 1.0,
                },
            ],
            0.92,
            LengthDist::Fixed(1),
        )
    }

    /// SST-2 sentiment classification (GLUE) — mostly easy inputs; the
    /// paper's fig. 3 shows roughly half of a batch exiting by mid-model.
    pub fn sst2() -> Self {
        let mut d = Self::with_mix(0.8);
        d.name = "SST-2".into();
        d.base_accuracy = 0.924;
        d
    }

    /// QNLI question answering (GLUE) — slightly harder than SST-2.
    pub fn qnli() -> Self {
        let mut d = Self::with_mix(0.72);
        d.name = "QNLI".into();
        d.base_accuracy = 0.915;
        d
    }

    /// ImageNet classification for the vision experiments.
    pub fn imagenet() -> Self {
        let mut d = Self::with_mix(0.75);
        d.name = "ImageNet".into();
        d.base_accuracy = 0.76;
        d
    }

    /// WMT machine translation (fig. 10). Token hardness is low — CALM
    /// observes ~70% of tokens exiting by decoder layer 2 of 8.
    pub fn wmt() -> Self {
        DatasetModel::new(
            "WMT",
            vec![
                Component {
                    weight: 0.75,
                    alpha: 1.2,
                    beta: 4.0,
                    lo: 0.0,
                    hi: 0.5,
                },
                Component {
                    weight: 0.25,
                    alpha: 2.0,
                    beta: 2.0,
                    lo: 0.4,
                    hi: 1.0,
                },
            ],
            0.90,
            LengthDist::Normal {
                mean: 25.0,
                sd: 7.0,
                min: 4,
                max: 64,
            },
        )
    }

    /// SAMSum dialogue summarization (fig. 11): average output length 18
    /// tokens (reported in the paper) with high variance — the straggler
    /// effect that amplifies E3's win on this task.
    pub fn samsum() -> Self {
        DatasetModel::new(
            "SAMSum",
            vec![
                Component {
                    weight: 0.75,
                    alpha: 1.2,
                    beta: 4.0,
                    lo: 0.0,
                    hi: 0.5,
                },
                Component {
                    weight: 0.25,
                    alpha: 2.0,
                    beta: 2.0,
                    lo: 0.4,
                    hi: 1.0,
                },
            ],
            0.88,
            LengthDist::Normal {
                mean: 18.0,
                sd: 10.0,
                min: 2,
                max: 64,
            },
        )
    }

    /// MNLI natural-language inference (GLUE): three-way classification,
    /// harder than SST-2/QNLI — entailment needs deeper reasoning.
    pub fn mnli() -> Self {
        let mut d = Self::with_mix(0.55);
        d.name = "MNLI".into();
        d.base_accuracy = 0.845;
        d
    }

    /// CIFAR-10 image classification — the small-image benchmark
    /// BranchyNet was originally evaluated on; mostly easy inputs.
    pub fn cifar10() -> Self {
        let mut d = Self::with_mix(0.85);
        d.name = "CIFAR-10".into();
        d.base_accuracy = 0.93;
        d
    }

    /// BoolQ yes/no QA (fig. 12): single-token outputs; ~50% of inputs
    /// exit only after layer 25 of Llama-3.1-8B's 32 — a hard dataset.
    pub fn boolq() -> Self {
        DatasetModel::new(
            "BoolQ",
            vec![
                Component {
                    weight: 0.55,
                    alpha: 4.0,
                    beta: 1.8,
                    lo: 0.45,
                    hi: 1.0,
                },
                Component {
                    weight: 0.45,
                    alpha: 2.0,
                    beta: 2.5,
                    lo: 0.2,
                    hi: 0.8,
                },
            ],
            0.86,
            LengthDist::Fixed(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_simcore::stats::mean;
    use rand::SeedableRng;

    fn mean_hardness(d: &DatasetModel, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        mean(&d.sample_hardnesses(20_000, &mut rng))
    }

    #[test]
    fn hardness_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in [
            DatasetModel::sst2(),
            DatasetModel::qnli(),
            DatasetModel::imagenet(),
            DatasetModel::wmt(),
            DatasetModel::samsum(),
            DatasetModel::boolq(),
        ] {
            for _ in 0..1000 {
                let h = d.sample_hardness(&mut rng);
                assert!((0.0..=1.0).contains(&h), "{}: {h}", d.name());
            }
        }
    }

    #[test]
    fn component_shapes_are_squeeze_tested() {
        // `e3_simcore::rng`'s gamma squeeze test replays these shapes
        // against the exact Marsaglia–Tsang test; a new shape goes there.
        const SQUEEZE_TESTED: [f64; 7] = [1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0];
        for d in [
            DatasetModel::sst2(),
            DatasetModel::qnli(),
            DatasetModel::imagenet(),
            DatasetModel::wmt(),
            DatasetModel::samsum(),
            DatasetModel::mnli(),
            DatasetModel::cifar10(),
            DatasetModel::boolq(),
            DatasetModel::with_mix(0.5),
        ] {
            for c in &d.components {
                for shape in [c.alpha, c.beta] {
                    assert!(SQUEEZE_TESTED.contains(&shape), "{}: {shape}", d.name());
                }
            }
        }
    }

    #[test]
    fn extra_datasets_order_by_difficulty() {
        let sst2 = mean_hardness(&DatasetModel::sst2(), 9);
        let mnli = mean_hardness(&DatasetModel::mnli(), 9);
        let cifar = mean_hardness(&DatasetModel::cifar10(), 9);
        assert!(mnli > sst2, "MNLI must be harder than SST-2");
        assert!(cifar < sst2, "CIFAR-10 must be easier than SST-2");
        assert!(DatasetModel::mnli().base_accuracy < DatasetModel::sst2().base_accuracy);
    }

    #[test]
    fn mix_knob_orders_mean_hardness() {
        let easy = mean_hardness(&DatasetModel::with_mix(0.8), 2);
        let balanced = mean_hardness(&DatasetModel::with_mix(0.5), 2);
        let hard = mean_hardness(&DatasetModel::with_mix(0.2), 2);
        assert!(
            easy < balanced && balanced < hard,
            "{easy} {balanced} {hard}"
        );
    }

    #[test]
    fn wmt_tokens_are_mostly_easy() {
        // ~70% of WMT tokens must stabilize within the first quarter of
        // the decoder (CALM's layer-2-of-8 observation).
        let d = DatasetModel::wmt();
        let mut rng = StdRng::seed_from_u64(3);
        let hs = d.sample_hardnesses(20_000, &mut rng);
        let frac = hs.iter().filter(|&&h| h <= 0.3).count() as f64 / hs.len() as f64;
        assert!((0.55..0.85).contains(&frac), "frac={frac}");
    }

    #[test]
    fn boolq_is_hard() {
        let b = mean_hardness(&DatasetModel::boolq(), 4);
        let s = mean_hardness(&DatasetModel::sst2(), 4);
        assert!(b > s + 0.2, "boolq={b} sst2={s}");
    }

    #[test]
    fn length_distributions() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(LengthDist::Fixed(1).sample(&mut rng), 1);
        let d = LengthDist::Normal {
            mean: 18.0,
            sd: 10.0,
            min: 2,
            max: 64,
        };
        let lens: Vec<f64> = (0..20_000).map(|_| f64::from(d.sample(&mut rng))).collect();
        let m = mean(&lens);
        assert!((16.0..21.0).contains(&m), "mean={m}");
        assert!(lens.iter().all(|&l| (2.0..=64.0).contains(&l)));
    }

    #[test]
    fn samsum_matches_paper_mean_length() {
        let d = DatasetModel::samsum();
        let mut rng = StdRng::seed_from_u64(6);
        let lens: Vec<f64> = (0..20_000)
            .map(|_| f64::from(d.output_len.sample(&mut rng)))
            .collect();
        // Paper: "average output length: 18 tokens".
        assert!((mean(&lens) - 18.0).abs() < 1.5);
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = DatasetModel::sst2();
        let a = d.sample_hardnesses(10, &mut StdRng::seed_from_u64(7));
        let b = d.sample_hardnesses(10, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
