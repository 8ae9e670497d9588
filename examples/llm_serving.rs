//! Autoregressive LLM serving: translation on a CALM-style early-exit
//! T5, where tokens exit decoder layers per-token, and E3 splits the
//! decoder so every pass runs full batches (the paper's fig. 10).
//!
//! ```text
//! cargo run --release -p e3-examples --example llm_serving
//! ```

use e3::harness::{AutoRegStrategy, Experiment, ModelFamily};
use e3_hardware::ClusterSpec;
use e3_model::RampController;
use e3_workload::DatasetModel;

fn main() {
    // T5 and CALM-T5 on 4 x A6000, 500 WMT requests per point.
    let exp = Experiment::new(
        ModelFamily::llm_t5(),
        ClusterSpec::paper_llm_cluster(),
        DatasetModel::wmt(),
    )
    .with_n(500)
    .with_seed(9);
    let calm = &exp.family.ee;
    let style = exp.family.policy.ramp_style();
    let ctrl0 = RampController::all_enabled(0, style);
    let ctrl = RampController::all_enabled(calm.num_ramps(), style);

    // E3 cuts the decoder where token survival drops to 50%.
    let boundary = exp.pick_autoreg_boundary(0.5);
    let enc = calm.autoreg().expect("autoregressive").encoder_layers;
    println!(
        "profiled token exits: 50% of tokens stop by decoder layer {} of {}\n",
        boundary - enc,
        calm.num_layers() - enc
    );

    println!("translation goodput on 4 x A6000 (requests/s):");
    println!("batch   T5(static)   CALM(no batching)   E3(split decoder)");
    for b in [1usize, 4, 16, 32] {
        let v = exp.run_autoreg(AutoRegStrategy::VanillaStatic, &ctrl0, b);
        let c = exp.run_autoreg(AutoRegStrategy::NaiveEeSequential, &ctrl, b);
        let e = exp.run_autoreg(AutoRegStrategy::E3 { boundary }, &ctrl, b);
        println!(
            "{b:>5}   {:>10.0}   {:>17.0}   {:>17.0}",
            v.goodput, c.goodput, e.goodput
        );
    }
    println!("\nCALM's per-token exits shine at batch 1 but it cannot batch;");
    println!("E3 keeps the exits AND the batching, so its lead grows with load.");
}
