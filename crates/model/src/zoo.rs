//! The model zoo: calibrated definitions of every model in the paper's
//! evaluation, stock and early-exit variants.
//!
//! All compute costs are in the workspace's reference unit — microseconds
//! at batch size 1 on a V100 — chosen so the serving simulator reproduces
//! the paper's goodput anchors (see `DESIGN.md`):
//!
//! * BERT-BASE: ≈10.5 ms per batch up to b=4, ≈19.7 ms at b=8 on a V100,
//!   matching fig. 7's 1632/3088/6025/6484 samples/s on 16 V100s.
//! * ResNet-50: ≈5.5 ms up to b=4, ≈26.5 ms at b=32, matching fig. 8.
//! * T5: ≈120 ms per translation request at b=1 on an A6000 (fig. 10).
//! * Llama-3.1-8B: ≈38 ms per single-token request at b=1 on an A6000,
//!   with a large lm-head ramp cost that makes naive per-layer exit
//!   checking slower than the vanilla model (fig. 12).

use crate::model::{AutoRegSpec, EeModel, LayerSpec, RampSpec, Task};
use crate::policy::ExitPolicy;

/// The paper's default DeeBERT entropy threshold (§5, <2% error).
pub(crate) const DEFAULT_ENTROPY_THRESHOLD: f64 = 0.4;
/// CALM's default softmax-confidence threshold (§5.1.3).
pub(crate) const CALM_CONFIDENCE_THRESHOLD: f64 = 0.25;
/// PABEE's default patience (consecutive agreeing ramps).
pub(crate) const PABEE_PATIENCE: usize = 4;

fn uniform_layers(n: usize, work_us: f64, fixed_us: f64, bytes: u64) -> Vec<LayerSpec> {
    vec![
        LayerSpec {
            work_us,
            fixed_us,
            output_bytes: bytes,
        };
        n
    ]
}

fn ramps_after_every_layer(num_layers: usize, work_us: f64, fixed_us: f64) -> Vec<RampSpec> {
    (0..num_layers - 1)
        .map(|l| RampSpec {
            after_layer: l,
            work_us,
            fixed_us,
        })
        .collect()
}

/// Stock BERT-BASE: 12 encoder layers, no exits.
pub fn bert_base() -> EeModel {
    EeModel::new(
        "BERT-BASE",
        uniform_layers(12, 767.0, 98.0, 128 * 768 * 4),
        vec![],
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// DeeBERT: BERT-BASE with an entropy ramp after each of the first 11
/// encoder layers (Xin et al., ACL 2020). Ramp = pooler + dropout + FC.
pub fn deebert() -> EeModel {
    EeModel::new(
        "DeeBERT",
        uniform_layers(12, 767.0, 98.0, 128 * 768 * 4),
        ramps_after_every_layer(12, 120.0, 12.0),
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// Stock BERT-LARGE: 24 encoder layers with 1024-wide hidden states.
pub fn bert_large() -> EeModel {
    EeModel::new(
        "BERT-LARGE",
        uniform_layers(24, 1365.0, 120.0, 128 * 1024 * 4),
        vec![],
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// PABEE: BERT-LARGE with a ramp after each layer; intended to be paired
/// with [`ExitPolicy::Patience`] (Zhou et al., NeurIPS 2020). Fig. 18.
pub fn pabee() -> EeModel {
    EeModel::new(
        "PABEE",
        uniform_layers(24, 1365.0, 120.0, 128 * 1024 * 4),
        ramps_after_every_layer(24, 160.0, 14.0),
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// Stock DistilBERT: 6 encoder layers (Sanh et al.).
pub fn distilbert() -> EeModel {
    EeModel::new(
        "DistilBERT",
        uniform_layers(6, 767.0, 98.0, 128 * 768 * 4),
        vec![],
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// DistilBERT-EE: the in-house EE variant the paper builds (§2.2) using
/// DeeBERT's methodology — a pooler+dropout+FC ramp after each encoder
/// block.
pub fn distilbert_ee() -> EeModel {
    EeModel::new(
        "DistilBERT-EE",
        uniform_layers(6, 767.0, 98.0, 128 * 768 * 4),
        ramps_after_every_layer(6, 120.0, 12.0),
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// Stock ResNet-50, modeled as its 16 residual blocks in 4 stages.
/// Activation sizes follow the 224×224 ImageNet feature-map shapes.
pub fn resnet50() -> EeModel {
    let stages: [(usize, u64); 4] = [
        (3, 56 * 56 * 256 * 4),
        (4, 28 * 28 * 512 * 4),
        (6, 14 * 14 * 1024 * 4),
        (3, 7 * 7 * 2048 * 4),
    ];
    let mut layers = Vec::new();
    for (blocks, bytes) in stages {
        for _ in 0..blocks {
            layers.push(LayerSpec {
                work_us: 187.0,
                fixed_us: 150.0,
                output_bytes: bytes,
            });
        }
    }
    EeModel::new(
        "ResNet50",
        layers,
        vec![],
        Task::Classification { num_classes: 1000 },
        None,
    )
    .expect("static model definition")
}

/// B-ResNet50: BranchyNet-style ResNet-50 with an exit branch (small conv
/// + FC) after each residual block (Teerapittayanon et al.). Fig. 8.
pub fn branchy_resnet50() -> EeModel {
    let stock = resnet50();
    let ramps = ramps_after_every_layer(stock.num_layers(), 45.0, 25.0);
    EeModel::new(
        "B-ResNet50",
        stock.layers().to_vec(),
        ramps,
        Task::Classification { num_classes: 1000 },
        None,
    )
    .expect("static model definition")
}

/// Stock T5 (the CALM paper's 8-decoder-layer configuration): an
/// 8-layer encoder prefix followed by 8 decoder layers, run once per
/// generated token, plus an lm head.
pub fn t5() -> EeModel {
    let mut layers = uniform_layers(8, 520.0, 60.0, 128 * 512 * 4); // encoder
    layers.extend(uniform_layers(8, 520.0, 60.0, 512 * 4)); // decoder (per token)
    EeModel::new(
        "T5",
        layers,
        vec![],
        Task::Generation { vocab_size: 32_128 },
        Some(AutoRegSpec {
            encoder_layers: 8,
            lm_head: LayerSpec {
                work_us: 600.0,
                fixed_us: 40.0,
                output_bytes: 4,
            },
            // 8 decoder layers x 2 attention blocks (self + cross) x
            // K,V x 768 hidden x fp16: ~48 KiB per generated token.
            kv_bytes_per_token: 49_152.0,
        }),
    )
    .expect("static model definition")
}

/// CALM: T5 with a confidence ramp after each of the first 7 decoder
/// layers (Schuster et al., NeurIPS 2022). CALM's calibrated softmax
/// confidence avoids materializing the full lm head at each ramp, so the
/// per-ramp cost is a fraction of the head's.
pub fn calm_t5() -> EeModel {
    let stock = t5();
    let ramps = (8..15)
        .map(|l| RampSpec {
            after_layer: l,
            work_us: 150.0,
            fixed_us: 20.0,
        })
        .collect();
    EeModel::new(
        "CALM",
        stock.layers().to_vec(),
        ramps,
        Task::Generation { vocab_size: 32_128 },
        stock.autoreg().copied(),
    )
    .expect("static model definition")
}

/// Stock Llama-3.1-8B: 32 decoder layers, large lm head (128k vocab).
/// Evaluated on single-token (BoolQ yes/no) outputs in the paper.
pub fn llama31_8b() -> EeModel {
    EeModel::new(
        "Llama3.1-8b",
        uniform_layers(32, 1200.0, 130.0, 2048 * 4096 / 2), // activations per token context
        vec![],
        Task::Generation {
            vocab_size: 128_256,
        },
        Some(AutoRegSpec {
            encoder_layers: 0,
            lm_head: LayerSpec {
                work_us: 2000.0,
                fixed_us: 200.0,
                output_bytes: 4,
            },
            // 32 decoder layers x K,V x 4096 hidden x fp16: 512 KiB per
            // generated (or cached prompt) token.
            kv_bytes_per_token: 524_288.0,
        }),
    )
    .expect("static model definition")
}

/// Llama-3.1-8B-EE: the paper's §5.1.3 construction — the final-layer
/// lm head replicated as an exit ramp after every decoder layer. The
/// ramp cost equals the lm head's, which is why naive per-layer checking
/// underperforms even the vanilla model (fig. 12).
pub fn llama31_8b_ee() -> EeModel {
    let stock = llama31_8b();
    let ramps = ramps_after_every_layer(stock.num_layers(), 2000.0, 200.0);
    EeModel::new(
        "Llama3.1-8b-EE",
        stock.layers().to_vec(),
        ramps,
        Task::Generation {
            vocab_size: 128_256,
        },
        stock.autoreg().copied(),
    )
    .expect("static model definition")
}

/// FastBERT: BERT-BASE with self-distilled *confidence* ramps (Liu et
/// al., ACL 2020) — the confidence-threshold family of §6, distinct from
/// DeeBERT's entropy rule. Its student classifiers are slightly heavier
/// than DeeBERT's poolers.
pub fn fastbert() -> EeModel {
    EeModel::new(
        "FastBERT",
        uniform_layers(12, 767.0, 98.0, 128 * 768 * 4),
        ramps_after_every_layer(12, 150.0, 14.0),
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// BERxiT: BERT-BASE with a *learned*, single-FC exit gate shared across
/// ramps (Xin et al., EACL 2021) — the learn-to-exit family of §6. The
/// shared gate is cheaper than a full pooler ramp.
pub fn berxit() -> EeModel {
    EeModel::new(
        "BERxiT",
        uniform_layers(12, 767.0, 98.0, 128 * 768 * 4),
        ramps_after_every_layer(12, 60.0, 8.0),
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// Stock ALBERT: a parameter-shared 12-layer encoder whose layers are
/// cheaper than BERT's (the backbone ELBERT adds exits to).
pub fn albert() -> EeModel {
    EeModel::new(
        "ALBERT",
        uniform_layers(12, 620.0, 80.0, 128 * 768 * 4),
        vec![],
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// ELBERT: ALBERT with confidence-window exits (Xie et al., ICASSP
/// 2021) — a parameter-shared backbone whose layers are cheaper than
/// BERT's, paired with the voting-style window criterion.
pub fn elbert() -> EeModel {
    EeModel::new(
        "ELBERT",
        uniform_layers(12, 620.0, 80.0, 128 * 768 * 4),
        ramps_after_every_layer(12, 90.0, 10.0),
        Task::Classification { num_classes: 2 },
        None,
    )
    .expect("static model definition")
}

/// The paper's default exit policy for a given EE model.
pub fn default_policy(model_name: &str) -> ExitPolicy {
    match model_name {
        "PABEE" => ExitPolicy::Patience {
            patience: PABEE_PATIENCE,
        },
        "CALM" | "Llama3.1-8b-EE" => ExitPolicy::Confidence {
            threshold: CALM_CONFIDENCE_THRESHOLD,
        },
        "FastBERT" => ExitPolicy::Confidence { threshold: 0.85 },
        "BERxiT" => ExitPolicy::Learned { threshold: 0.6 },
        "ELBERT" => ExitPolicy::Voting { quorum: 4 },
        _ => ExitPolicy::Entropy {
            threshold: DEFAULT_ENTROPY_THRESHOLD,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total layer work, excluding ramps.
    fn work(m: &EeModel) -> f64 {
        m.layers().iter().map(|l| l.work_us).sum()
    }

    #[test]
    fn all_models_construct_and_validate() {
        for m in [
            bert_base(),
            deebert(),
            bert_large(),
            pabee(),
            distilbert(),
            distilbert_ee(),
            resnet50(),
            branchy_resnet50(),
            t5(),
            calm_t5(),
            llama31_8b(),
            llama31_8b_ee(),
        ] {
            assert!(m.num_layers() > 0, "{}", m.name());
        }
    }

    #[test]
    fn layer_counts_match_paper() {
        assert_eq!(bert_base().num_layers(), 12);
        assert_eq!(bert_large().num_layers(), 24);
        assert_eq!(distilbert().num_layers(), 6);
        assert_eq!(resnet50().num_layers(), 16);
        assert_eq!(t5().num_layers(), 16);
        assert_eq!(llama31_8b().num_layers(), 32);
    }

    #[test]
    fn ee_variants_have_ramps_stock_do_not() {
        assert!(!bert_base().has_exits());
        assert_eq!(deebert().num_ramps(), 11);
        assert_eq!(pabee().num_ramps(), 23);
        assert_eq!(distilbert_ee().num_ramps(), 5);
        assert_eq!(branchy_resnet50().num_ramps(), 15);
        assert_eq!(calm_t5().num_ramps(), 7);
        assert_eq!(llama31_8b_ee().num_ramps(), 31);
    }

    #[test]
    fn distillation_shrinks_bert() {
        // DistilBERT ~40% smaller / 60% faster than BERT (§1).
        let ratio = work(&distilbert()) / work(&bert_base());
        assert!((0.4..0.6).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn bert_large_is_roughly_3_5x_base() {
        let ratio = work(&bert_large()) / work(&bert_base());
        assert!((3.0..4.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn calm_ramps_live_in_decoder() {
        let m = calm_t5();
        let enc = m.autoreg().unwrap().encoder_layers;
        assert!(m.ramps().iter().all(|r| r.after_layer >= enc));
    }

    #[test]
    fn llama_ramp_cost_dominates_layer_cost() {
        // The fig. 12 effect requires ramp (lm head) cost to exceed a
        // decoder layer's cost.
        let m = llama31_8b_ee();
        assert!(m.ramps()[0].work_us > m.layers()[0].work_us);
        // Total naive ramp overhead must exceed the model's own work so
        // Llama-EE at b=1 underperforms vanilla Llama.
        let ramp_work: f64 = m.ramps().iter().map(|r| r.work_us).sum();
        assert!(ramp_work > work(&m));
    }

    #[test]
    fn related_work_architectures_construct() {
        for (m, expected_ramps) in [(fastbert(), 11), (berxit(), 11), (elbert(), 11)] {
            assert_eq!(m.num_ramps(), expected_ramps, "{}", m.name());
            assert_eq!(m.num_layers(), 12);
        }
        // BERxiT's shared gate is the cheapest ramp; FastBERT's student
        // classifiers the heaviest of the BERT-BASE family.
        assert!(berxit().ramps()[0].work_us < deebert().ramps()[0].work_us);
        assert!(fastbert().ramps()[0].work_us > deebert().ramps()[0].work_us);
        // ELBERT's shared-parameter layers are cheaper than BERT's and
        // match its ALBERT backbone's.
        assert!(work(&elbert()) < work(&bert_base()));
        assert_eq!(work(&elbert()), work(&albert()));
    }

    #[test]
    fn default_policies() {
        assert_eq!(
            default_policy("DeeBERT"),
            ExitPolicy::Entropy { threshold: 0.4 }
        );
        assert_eq!(
            default_policy("PABEE"),
            ExitPolicy::Patience { patience: 4 }
        );
        assert_eq!(
            default_policy("CALM"),
            ExitPolicy::Confidence { threshold: 0.25 }
        );
        assert_eq!(
            default_policy("BERxiT"),
            ExitPolicy::Learned { threshold: 0.6 }
        );
        assert_eq!(default_policy("ELBERT"), ExitPolicy::Voting { quorum: 4 });
    }

    #[test]
    fn llm_kv_growth_is_calibrated() {
        // Llama-3.1-8B: 2 x 32 layers x 4096 x fp16 = 512 KiB/token.
        let llama = llama31_8b().autoreg().copied().expect("autoreg");
        assert_eq!(llama.kv_bytes_per_token, 524_288.0);
        // T5/CALM share the same (much smaller) decoder cache.
        let t5_ar = t5().autoreg().copied().expect("autoreg");
        assert_eq!(t5_ar.kv_bytes_per_token, 49_152.0);
        assert_eq!(
            calm_t5().autoreg().expect("autoreg").kv_bytes_per_token,
            t5_ar.kv_bytes_per_token
        );
    }
}
