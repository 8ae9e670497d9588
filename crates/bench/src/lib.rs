//! The E3 paper's evaluation (§5) as one experiment registry.
//!
//! Every table and figure is a deterministic `fn() -> String` in
//! [`figs`], listed by name in [`FIGURES`]. The `figures` binary runs the
//! registry in-process, all of it or the entries named on its command
//! line:
//!
//! ```text
//! cargo run --release -p e3-bench --bin figures                     # every experiment
//! cargo run --release -p e3-bench --bin figures -- fig07_nlp_goodput
//! ```
//!
//! Fixed-batch figures describe their runs as an [`e3::harness::Experiment`]
//! built by [`exp::experiment`], which applies the registry's defaults
//! ([`RUN_N`] requests per point, root seed [`SEED`]); the windowed
//! figures drive `E3System::run_windows_observed`.
//!
//! `tests/golden.rs` pins every entry's report byte-for-byte against
//! `golden/<name>.txt`. The two experiments that measure host time
//! (`fig20_optimizer_overhead`, `fig_scale`) carry that part as a separate
//! wall-clock section, printed after the report and never pinned.
//!
//! Absolute values are not expected to match the paper — the substrate is
//! a calibrated simulator, not the authors' testbed — but the *shape*
//! (who wins, by what rough factor, where crossovers fall) should, and
//! `EXPERIMENTS.md` records both.

use std::fmt::Write as _;

pub mod figs;
pub mod par;

/// Default request count per closed-loop measurement point.
pub const RUN_N: usize = 20_000;
/// Root seed for all experiments.
pub const SEED: u64 = 0xE3;

/// One registry entry: an experiment and the name it runs under.
#[derive(Debug)]
pub struct Figure {
    /// Registry name; also the golden file stem (`golden/<name>.txt`).
    pub name: &'static str,
    /// Renders the deterministic, golden-pinned report.
    pub report: fn() -> String,
    /// Renders host wall-clock measurements, printed after the report
    /// and never pinned.
    pub wall_clock: Option<fn() -> String>,
}

impl Figure {
    const fn new(name: &'static str, report: fn() -> String) -> Self {
        Figure {
            name,
            report,
            wall_clock: None,
        }
    }

    const fn with_wall_clock(mut self, wall_clock: fn() -> String) -> Self {
        self.wall_clock = Some(wall_clock);
        self
    }
}

/// Every experiment, in the order `figures` runs them.
pub const FIGURES: &[Figure] = &[
    Figure::new("fig02_ee_savings", figs::fig02_report),
    Figure::new("fig03_batch_shrinkage", figs::fig03_report),
    Figure::new("fig07_nlp_goodput", figs::fig07_report),
    Figure::new("fig08_vision_goodput", figs::fig08_report),
    Figure::new("fig09_compressed_goodput", figs::fig09_report),
    Figure::new("fig10_llm_translation", figs::fig10_report),
    Figure::new("fig11_llm_summarization", figs::fig11_report),
    Figure::new("fig12_llama_boolq", figs::fig12_report),
    Figure::new("fig_kv_pressure", figs::fig_kv_pressure_report),
    Figure::new("fig13_heterogeneous", figs::fig13_report),
    Figure::new("fig14_gpu_count", figs::fig14_report),
    Figure::new("fig15_cost", figs::fig15_report),
    Figure::new("fig16_adaptability", figs::fig16_report),
    Figure::new("fig17_latency", figs::fig17_report),
    Figure::new("fig18_pabee", figs::fig18_report),
    Figure::new("fig19_bursty", figs::fig19_report),
    Figure::new("fig20_optimizer_overhead", figs::fig20_report)
        .with_wall_clock(figs::fig20_wall_clock),
    Figure::new("fig21_profile_accuracy", figs::fig21_report),
    Figure::new("fig22_misprediction", figs::fig22_report),
    Figure::new("fig23_entropy", figs::fig23_report),
    Figure::new("fig24_slo", figs::fig24_report),
    Figure::new("fig25_wrapper", figs::fig25_report),
    Figure::new("fig26_model_parallelism", figs::fig26_report),
    Figure::new("generality_policies", figs::generality_policies_report),
    Figure::new("ablations", figs::ablations_report),
    Figure::new("fig_degradation", figs::fig_degradation_report),
    Figure::new("fig_reconfig", figs::fig_reconfig_report),
    Figure::new("fig_multitenant", figs::fig_multitenant_report),
    Figure::new("fig_matrix", figs::fig_matrix_report),
    Figure::new("fig_matrix_full", figs::fig_matrix_full_report),
    Figure::new("fig_scale", figs::fig_scale_report).with_wall_clock(figs::fig_scale_wall_clock),
];

/// A simple aligned table printer for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates a table titled `title` with value columns `columns`.
    pub fn new<S: AsRef<str>>(title: impl Into<String>, columns: &[S]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row of numeric values (rendered with no decimals).
    pub fn row(&mut self, label: impl Into<String>, values: &[f64]) -> &mut Self {
        self.row_fmt(label, values, 0)
    }

    /// Adds a row rendered with `decimals` decimal places.
    pub fn row_fmt(
        &mut self,
        label: impl Into<String>,
        values: &[f64],
        decimals: usize,
    ) -> &mut Self {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((
            label.into(),
            values.iter().map(|v| format!("{v:.decimals$}")).collect(),
        ));
        self
    }

    /// Adds a row of pre-formatted strings.
    pub fn row_str(&mut self, label: impl Into<String>, values: &[String]) -> &mut Self {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values.to_vec()));
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let col_ws: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|(_, vs)| vs[i].len())
                    .chain(std::iter::once(c.len()))
                    .max()
                    .unwrap_or(c.len())
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:label_w$}", "");
        for (c, w) in self.columns.iter().zip(&col_ws) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for (v, w) in vals.iter().zip(&col_ws) {
                let _ = write!(out, "  {v:>w$}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Renders a one-line takeaway closing a section, with the blank line
/// that separates it from the next.
pub fn takeaway_line(msg: &str) -> String {
    format!("  -> {msg}\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["b=1", "b=2"]);
        t.row("BERT", &[1632.0, 3088.0]);
        t.row_fmt("ratio", &[1.0, 1.893], 2);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("1632"));
        assert!(s.contains("1.89"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.row("x", &[1.0, 2.0]);
    }
}

/// Experiment helpers shared by several figures.
pub mod exp {
    use super::{Table, RUN_N, SEED};
    use e3::harness::{Experiment, HarnessOpts, ModelFamily, SystemKind};
    use e3_hardware::ClusterSpec;
    use e3_runtime::kernel::NullObserver;
    use e3_workload::DatasetModel;

    /// An [`Experiment`] with the registry's defaults: [`RUN_N`] requests
    /// per point, root seed [`SEED`], default [`HarnessOpts`].
    pub fn experiment(
        family: ModelFamily,
        cluster: ClusterSpec,
        dataset: DatasetModel,
    ) -> Experiment {
        Experiment::new(family, cluster, dataset)
            .with_n(RUN_N)
            .with_seed(SEED)
    }

    /// Runs the three systems over a batch-size sweep; returns measured
    /// goodputs as `[(system, per-batch goodput)]` plus the rendered
    /// table.
    ///
    /// Measurement points are independent (each builds its own simulator
    /// from its own derived seed), so they run through
    /// [`crate::par::par_map`] and merge back by sweep index — the
    /// rendered bytes are identical to the sequential loop.
    pub fn goodput_sweep_report(
        title: &str,
        family: &ModelFamily,
        cluster: &ClusterSpec,
        batches: &[usize],
        dataset: &DatasetModel,
        opts: &HarnessOpts,
        paper_rows: &[(&str, &[f64])],
    ) -> (Vec<(String, Vec<f64>)>, String) {
        let exp =
            experiment(family.clone(), cluster.clone(), dataset.clone()).with_opts(opts.clone());
        let cols: Vec<String> = batches.iter().map(|b| format!("b={b}")).collect();
        let mut t = Table::new(title, &cols);
        let systems = exp.systems();
        let points: Vec<(SystemKind, usize)> = systems
            .iter()
            .flat_map(|(_, kind)| batches.iter().map(|&b| (*kind, b)))
            .collect();
        let goodputs = crate::par::par_map(points, |_, (kind, b)| {
            exp.run(kind, b, &mut NullObserver).goodput()
        });
        let mut out = Vec::new();
        for (i, (name, _)) in systems.into_iter().enumerate() {
            let gs = goodputs[i * batches.len()..(i + 1) * batches.len()].to_vec();
            t.row(&name, &gs);
            out.push((name, gs));
        }
        for (label, vals) in paper_rows {
            t.row(format!("paper:{label}"), vals);
        }
        (out, t.render())
    }
}
