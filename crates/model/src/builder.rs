//! Fluent construction of custom EE-DNNs.
//!
//! The zoo covers the paper's evaluation models; downstream users bring
//! their own. [`EeModelBuilder`] assembles a model layer by layer with
//! the usual conveniences (uniform blocks, ramps after every layer,
//! autoregressive structure) while funneling everything through
//! [`EeModel::new`]'s validation.
//!
//! # Examples
//!
//! ```
//! use e3_model::builder::EeModelBuilder;
//! use e3_model::Task;
//!
//! // A 6-layer encoder with a cheap exit ramp after each hidden layer.
//! let model = EeModelBuilder::new("my-encoder", Task::Classification { num_classes: 4 })
//!     .uniform_layers(6, 500.0, 40.0, 64 * 1024)
//!     .ramps_after_each_layer(60.0, 5.0)
//!     .build()
//!     .expect("valid model");
//! assert_eq!(model.num_layers(), 6);
//! assert_eq!(model.num_ramps(), 5);
//! ```

use crate::model::{AutoRegSpec, EeModel, LayerSpec, ModelError, RampSpec, Task};

/// Builder for [`EeModel`]; see the module docs for an example.
#[derive(Debug, Clone)]
pub struct EeModelBuilder {
    name: String,
    task: Task,
    layers: Vec<LayerSpec>,
    ramps: Vec<RampSpec>,
    autoreg: Option<AutoRegSpec>,
}

impl EeModelBuilder {
    /// Starts a builder for a model with the given name and task.
    pub fn new(name: impl Into<String>, task: Task) -> Self {
        EeModelBuilder {
            name: name.into(),
            task,
            layers: Vec::new(),
            ramps: Vec::new(),
            autoreg: None,
        }
    }

    /// Appends one layer.
    pub fn layer(mut self, work_us: f64, fixed_us: f64, output_bytes: u64) -> Self {
        self.layers.push(LayerSpec {
            work_us,
            fixed_us,
            output_bytes,
        });
        self
    }

    /// Appends `n` identical layers.
    pub fn uniform_layers(mut self, n: usize, work_us: f64, fixed_us: f64, bytes: u64) -> Self {
        self.layers.extend(vec![
            LayerSpec {
                work_us,
                fixed_us,
                output_bytes: bytes,
            };
            n
        ]);
        self
    }

    /// Adds a ramp after the layer at `after_layer`.
    pub fn ramp(mut self, after_layer: usize, work_us: f64, fixed_us: f64) -> Self {
        self.ramps.push(RampSpec {
            after_layer,
            work_us,
            fixed_us,
        });
        self
    }

    /// Adds a ramp after every layer currently added except the last
    /// (the final classifier is implicit).
    pub fn ramps_after_each_layer(mut self, work_us: f64, fixed_us: f64) -> Self {
        let n = self.layers.len();
        for l in 0..n.saturating_sub(1) {
            self.ramps.push(RampSpec {
                after_layer: l,
                work_us,
                fixed_us,
            });
        }
        self
    }

    /// Marks the model autoregressive with an `encoder_layers`-long
    /// prefix and the given lm-head cost.
    pub fn autoregressive(
        mut self,
        encoder_layers: usize,
        head_work_us: f64,
        head_fixed_us: f64,
    ) -> Self {
        self.autoreg = Some(AutoRegSpec {
            encoder_layers,
            lm_head: LayerSpec {
                work_us: head_work_us,
                fixed_us: head_fixed_us,
                output_bytes: 4,
            },
            kv_bytes_per_token: 0.0,
        });
        self
    }

    /// Sets the KV-cache growth per generated token (bytes across the
    /// whole decoder). Requires [`EeModelBuilder::autoregressive`] first.
    ///
    /// # Panics
    ///
    /// Panics if the model was not marked autoregressive yet.
    pub fn kv_bytes_per_token(mut self, bytes: f64) -> Self {
        self.autoreg
            .as_mut()
            .expect("call autoregressive() before kv_bytes_per_token()")
            .kv_bytes_per_token = bytes;
        self
    }

    /// Validates and builds the model.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`EeModel::new`]; ramps added out of
    /// order are sorted first (duplicates still error).
    pub fn build(mut self) -> Result<EeModel, ModelError> {
        self.ramps.sort_by_key(|r| r.after_layer);
        EeModel::new(self.name, self.layers, self.ramps, self.task, self.autoreg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_equivalent_of_zoo_deebert() {
        let built = EeModelBuilder::new("DeeBERT", Task::Classification { num_classes: 2 })
            .uniform_layers(12, 767.0, 98.0, 128 * 768 * 4)
            .ramps_after_each_layer(120.0, 12.0)
            .build()
            .expect("valid");
        let zoo = crate::zoo::deebert();
        assert_eq!(built.layers(), zoo.layers());
        assert_eq!(built.ramps(), zoo.ramps());
    }

    #[test]
    fn ramps_sorted_automatically() {
        let m = EeModelBuilder::new("m", Task::Classification { num_classes: 2 })
            .uniform_layers(5, 100.0, 10.0, 64)
            .ramp(3, 10.0, 1.0)
            .ramp(1, 10.0, 1.0)
            .build()
            .expect("valid");
        assert_eq!(m.ramps()[0].after_layer, 1);
        assert_eq!(m.ramps()[1].after_layer, 3);
    }

    #[test]
    fn duplicate_ramps_rejected() {
        let r = EeModelBuilder::new("m", Task::Classification { num_classes: 2 })
            .uniform_layers(5, 100.0, 10.0, 64)
            .ramp(1, 10.0, 1.0)
            .ramp(1, 10.0, 1.0)
            .build();
        assert_eq!(r, Err(ModelError::RampsUnsorted));
    }

    #[test]
    fn autoregressive_structure_carries() {
        let m = EeModelBuilder::new("g", Task::Generation { vocab_size: 1000 })
            .uniform_layers(4, 100.0, 10.0, 64)
            .uniform_layers(4, 100.0, 10.0, 64)
            .ramp(4, 20.0, 2.0)
            .ramp(5, 20.0, 2.0)
            .ramp(6, 20.0, 2.0)
            .autoregressive(4, 50.0, 5.0)
            .build()
            .expect("valid");
        assert_eq!(m.autoreg().expect("autoreg").encoder_layers, 4);
        assert_eq!(m.num_ramps(), 3);
    }

    #[test]
    fn depth_is_capped_at_u16_max() {
        let deep = |n| {
            EeModelBuilder::new("deep", Task::Classification { num_classes: 2 })
                .uniform_layers(n, 1.0, 0.0, 4)
                .build()
        };
        assert_eq!(deep(65_536), Err(ModelError::TooDeep { layers: 65_536 }));
        assert_eq!(deep(65_535).expect("fits").num_layers(), 65_535);
    }

    #[test]
    fn empty_builder_errors() {
        let r = EeModelBuilder::new("m", Task::Classification { num_classes: 2 }).build();
        assert_eq!(r, Err(ModelError::Empty));
    }
}
