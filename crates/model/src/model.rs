//! The EE-DNN structure: layers, exit ramps, and task metadata.

use std::fmt;

/// One contiguous block of computation ("layer" in the paper's sense — for
/// transformers an encoder/decoder block, for ResNet a residual stage).
///
/// Costs are expressed in the workspace's calibrated unit: microseconds of
/// execution at batch size 1 on a reference V100 (see `e3-hardware`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// Compute cost that scales with batch size past device saturation.
    pub work_us: f64,
    /// Fixed cost per invocation (kernel scheduling, small ops) that does
    /// not scale with batch size.
    pub fixed_us: f64,
    /// Activation bytes *per sample* at this layer's output — the payload
    /// shipped across a split boundary placed after this layer.
    pub output_bytes: u64,
}

/// An exit ramp attached after a layer.
///
/// A ramp is the classifier + decision logic that may let samples leave.
/// Checking it costs compute; for models with large output vocabularies
/// (Llama-3.1-8B, fig. 12) this cost is substantial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSpec {
    /// The layer index (0-based) after which this ramp runs. A sample that
    /// exits here has executed layers `0..=after_layer` plus this ramp.
    pub after_layer: usize,
    /// Batch-scaling compute cost of evaluating the ramp, µs @ b=1 on V100.
    pub work_us: f64,
    /// Fixed per-invocation cost of the ramp.
    pub fixed_us: f64,
}

/// What the model computes; drives the synthetic accuracy model and the
/// runtime's execution mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Task {
    /// Single forward pass producing a class label.
    Classification {
        /// Number of output classes (sets the maximum entropy).
        num_classes: usize,
    },
    /// Autoregressive generation: the decoder part of the model runs once
    /// per generated token.
    Generation {
        /// Output vocabulary size; drives the confidence floor (`1/V`)
        /// and makes large-vocabulary ramps (Llama) behave realistically.
        vocab_size: usize,
    },
}

/// Extra structure for autoregressive models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoRegSpec {
    /// Number of leading layers forming the encoder / prompt-processing
    /// prefix. These run once per request and contain no ramps.
    /// Zero for decoder-only models whose prompt pass we fold into the
    /// first token.
    pub encoder_layers: usize,
    /// Cost of the final language-model head, paid once per token on top
    /// of the decoder layers (and at every ramp for EE variants, which is
    /// what makes naive Llama-EE slow — fig. 12).
    pub lm_head: LayerSpec,
    /// KV-cache bytes a sequence accumulates per generated token across
    /// the whole decoder (keys + values, every attention layer); the
    /// runtime prices cache swaps with it. Zero means "not modeled".
    pub kv_bytes_per_token: f64,
}

/// Errors raised while constructing or validating a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The model has no layers.
    Empty,
    /// A ramp references a layer outside the model.
    RampOutOfRange {
        /// Index of the offending ramp.
        ramp: usize,
    },
    /// Ramps are not sorted strictly by layer position.
    RampsUnsorted,
    /// A ramp is attached after the final layer (the final classifier is
    /// implicit, not a ramp).
    RampAfterFinalLayer,
    /// A cost or size field is negative or non-finite.
    InvalidCost {
        /// Which entity had the bad cost.
        what: &'static str,
    },
    /// The autoregressive encoder prefix exceeds the layer count.
    EncoderTooLong,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Empty => write!(f, "model has no layers"),
            ModelError::RampOutOfRange { ramp } => {
                write!(f, "ramp {ramp} references a layer outside the model")
            }
            ModelError::RampsUnsorted => {
                write!(f, "ramps must be strictly ordered by layer position")
            }
            ModelError::RampAfterFinalLayer => {
                write!(f, "a ramp may not follow the final layer")
            }
            ModelError::InvalidCost { what } => write!(f, "invalid cost for {what}"),
            ModelError::EncoderTooLong => {
                write!(f, "encoder prefix exceeds the model's layer count")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A (possibly early-exit) DNN.
///
/// Invariants, enforced at construction:
/// * at least one layer;
/// * ramps strictly ordered by `after_layer`, each before the final layer;
/// * all costs finite and non-negative.
///
/// A model with no ramps is a "stock" model (BERT-BASE, ResNet-50, ...);
/// the same structure is reused for both EE and non-EE variants so that
/// baselines and E3 run on identical cost foundations.
#[derive(Debug, Clone, PartialEq)]
pub struct EeModel {
    name: String,
    layers: Vec<LayerSpec>,
    ramps: Vec<RampSpec>,
    task: Task,
    autoreg: Option<AutoRegSpec>,
}

impl EeModel {
    /// Builds and validates a model.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] describing the first violated invariant.
    pub fn new(
        name: impl Into<String>,
        layers: Vec<LayerSpec>,
        ramps: Vec<RampSpec>,
        task: Task,
        autoreg: Option<AutoRegSpec>,
    ) -> Result<Self, ModelError> {
        if layers.is_empty() {
            return Err(ModelError::Empty);
        }
        for l in &layers {
            if !(l.work_us >= 0.0
                && l.work_us.is_finite()
                && l.fixed_us >= 0.0
                && l.fixed_us.is_finite())
            {
                return Err(ModelError::InvalidCost { what: "layer" });
            }
        }
        for (i, r) in ramps.iter().enumerate() {
            if r.after_layer >= layers.len() {
                return Err(ModelError::RampOutOfRange { ramp: i });
            }
            if r.after_layer == layers.len() - 1 {
                return Err(ModelError::RampAfterFinalLayer);
            }
            if !(r.work_us >= 0.0
                && r.work_us.is_finite()
                && r.fixed_us >= 0.0
                && r.fixed_us.is_finite())
            {
                return Err(ModelError::InvalidCost { what: "ramp" });
            }
            if i > 0 && ramps[i - 1].after_layer >= r.after_layer {
                return Err(ModelError::RampsUnsorted);
            }
        }
        if let Some(ar) = &autoreg {
            if ar.encoder_layers > layers.len() {
                return Err(ModelError::EncoderTooLong);
            }
            if !(ar.lm_head.work_us >= 0.0 && ar.lm_head.work_us.is_finite()) {
                return Err(ModelError::InvalidCost { what: "lm head" });
            }
            if !(ar.kv_bytes_per_token >= 0.0 && ar.kv_bytes_per_token.is_finite()) {
                return Err(ModelError::InvalidCost { what: "kv cache" });
            }
        }
        Ok(EeModel {
            name: name.into(),
            layers,
            ramps,
            task,
            autoreg,
        })
    }

    /// Model name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers, in execution order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// All ramps, ordered by position.
    pub fn ramps(&self) -> &[RampSpec] {
        &self.ramps
    }

    /// Number of ramps.
    pub fn num_ramps(&self) -> usize {
        self.ramps.len()
    }

    /// Whether this model has any exit ramps.
    pub fn has_exits(&self) -> bool {
        !self.ramps.is_empty()
    }

    /// The task metadata.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Autoregressive structure, if any.
    pub fn autoreg(&self) -> Option<&AutoRegSpec> {
        self.autoreg.as_ref()
    }

    /// Number of output classes: label count for classification, the
    /// vocabulary size for generation.
    pub fn num_classes(&self) -> usize {
        match self.task {
            Task::Classification { num_classes } => num_classes,
            Task::Generation { vocab_size } => vocab_size,
        }
    }

    /// The ramp (index) directly after `layer`, if one exists.
    pub fn ramp_after(&self, layer: usize) -> Option<usize> {
        self.ramps.iter().position(|r| r.after_layer == layer)
    }

    /// Activation bytes per sample crossing the boundary *after* `layer`.
    pub fn boundary_bytes(&self, layer: usize) -> u64 {
        self.layers[layer].output_bytes
    }

    /// Returns a copy of this model with all ramps removed — a stock
    /// variant for tests.
    #[cfg(test)]
    pub(crate) fn without_exits(&self) -> EeModel {
        EeModel {
            name: format!("{}-stock", self.name),
            layers: self.layers.clone(),
            ramps: Vec::new(),
            task: self.task,
            autoreg: self.autoreg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> LayerSpec {
        LayerSpec {
            work_us: 100.0,
            fixed_us: 10.0,
            output_bytes: 1024,
        }
    }

    fn ramp(after: usize) -> RampSpec {
        RampSpec {
            after_layer: after,
            work_us: 10.0,
            fixed_us: 1.0,
        }
    }

    fn classification() -> Task {
        Task::Classification { num_classes: 2 }
    }

    #[test]
    fn valid_model_constructs() {
        let m = EeModel::new(
            "m",
            vec![layer(); 4],
            vec![ramp(0), ramp(1), ramp(2)],
            classification(),
            None,
        )
        .unwrap();
        assert_eq!(m.num_layers(), 4);
        assert_eq!(m.num_ramps(), 3);
        assert!(m.has_exits());
        assert_eq!(m.layers().iter().map(|l| l.work_us).sum::<f64>(), 400.0);
        assert_eq!(m.ramps().iter().map(|r| r.work_us).sum::<f64>(), 30.0);
    }

    #[test]
    fn empty_model_rejected() {
        assert_eq!(
            EeModel::new("m", vec![], vec![], classification(), None),
            Err(ModelError::Empty)
        );
    }

    #[test]
    fn ramp_after_final_layer_rejected() {
        assert_eq!(
            EeModel::new("m", vec![layer(); 2], vec![ramp(1)], classification(), None),
            Err(ModelError::RampAfterFinalLayer)
        );
    }

    #[test]
    fn out_of_range_ramp_rejected() {
        assert_eq!(
            EeModel::new("m", vec![layer(); 2], vec![ramp(9)], classification(), None),
            Err(ModelError::RampOutOfRange { ramp: 0 })
        );
    }

    #[test]
    fn unsorted_ramps_rejected() {
        assert_eq!(
            EeModel::new(
                "m",
                vec![layer(); 4],
                vec![ramp(2), ramp(1)],
                classification(),
                None
            ),
            Err(ModelError::RampsUnsorted)
        );
        assert_eq!(
            EeModel::new(
                "m",
                vec![layer(); 4],
                vec![ramp(1), ramp(1)],
                classification(),
                None
            ),
            Err(ModelError::RampsUnsorted)
        );
    }

    #[test]
    fn invalid_costs_rejected() {
        let mut bad = layer();
        bad.work_us = f64::NAN;
        assert_eq!(
            EeModel::new("m", vec![bad], vec![], classification(), None),
            Err(ModelError::InvalidCost { what: "layer" })
        );
    }

    #[test]
    fn ramps_in_range_query() {
        let m = EeModel::new(
            "m",
            vec![layer(); 6],
            vec![ramp(0), ramp(2), ramp(4)],
            classification(),
            None,
        )
        .unwrap();
        assert_eq!(m.ramp_after(2), Some(1));
        assert_eq!(m.ramp_after(3), None);
    }

    #[test]
    fn without_exits_strips_ramps() {
        let m = EeModel::new("m", vec![layer(); 4], vec![ramp(1)], classification(), None).unwrap();
        let stock = m.without_exits();
        assert!(!stock.has_exits());
        assert_eq!(stock.num_layers(), 4);
        assert_eq!(stock.name(), "m-stock");
    }

    #[test]
    fn encoder_prefix_validated() {
        let ar = AutoRegSpec {
            encoder_layers: 5,
            lm_head: layer(),
            kv_bytes_per_token: 0.0,
        };
        assert_eq!(
            EeModel::new(
                "m",
                vec![layer(); 4],
                vec![],
                Task::Generation { vocab_size: 32_000 },
                Some(ar)
            ),
            Err(ModelError::EncoderTooLong)
        );
    }
}
