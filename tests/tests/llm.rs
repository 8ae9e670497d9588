//! Autoregressive (LLM) integration: the fig. 10–12 orderings.

use e3::harness::{AutoRegStrategy, Experiment, ModelFamily};
use e3_hardware::ClusterSpec;
use e3_model::RampController;
use e3_workload::DatasetModel;

/// `family` serving `dataset` on 4 A6000s, 400 requests per point, with
/// `seed` for both the boundary pick and the runs.
fn experiment(family: ModelFamily, dataset: DatasetModel, seed: u64) -> Experiment {
    Experiment::new(family, ClusterSpec::paper_llm_cluster(), dataset)
        .with_n(400)
        .with_seed(seed)
}

/// Ramp controllers for the stock model (no ramps) and the EE model (all
/// ramps enabled).
fn ctrls(family: &ModelFamily) -> (RampController, RampController) {
    let style = family.policy.ramp_style();
    (
        RampController::all_enabled(0, style),
        RampController::all_enabled(family.ee.num_ramps(), style),
    )
}

#[test]
fn translation_orderings_hold() {
    let exp = experiment(ModelFamily::llm_t5(), DatasetModel::wmt(), 31);
    let (ctrl0, ctrl) = ctrls(&exp.family);
    let boundary = exp.pick_autoreg_boundary(0.5);
    let run = |c: &RampController, strat, b| exp.run_autoreg(strat, c, b).goodput;
    // b=1: CALM well ahead of T5 (paper: 2.84x).
    let t5_1 = run(&ctrl0, AutoRegStrategy::VanillaStatic, 1);
    let calm_1 = run(&ctrl, AutoRegStrategy::NaiveEeSequential, 1);
    let speedup = calm_1 / t5_1;
    assert!((1.7..4.0).contains(&speedup), "{speedup}");
    // b=32: E3 well ahead of both.
    let t5_32 = run(&ctrl0, AutoRegStrategy::VanillaStatic, 32);
    let calm_32 = run(&ctrl, AutoRegStrategy::NaiveEeSequential, 32);
    let e3_32 = run(&ctrl, AutoRegStrategy::E3 { boundary }, 32);
    assert!(e3_32 > t5_32 * 2.0, "e3 {e3_32} t5 {t5_32}");
    assert!(e3_32 > calm_32 * 2.0, "e3 {e3_32} calm {calm_32}");
}

#[test]
fn calm_stagnates_with_batch_e3_scales() {
    let exp = experiment(ModelFamily::llm_t5(), DatasetModel::wmt(), 7);
    let (_, ctrl) = ctrls(&exp.family);
    let boundary = exp.pick_autoreg_boundary(0.5);
    let exp = exp.with_seed(2);
    let run = |strat, b| exp.run_autoreg(strat, &ctrl, b).goodput;
    let calm_1 = run(AutoRegStrategy::NaiveEeSequential, 1);
    let calm_16 = run(AutoRegStrategy::NaiveEeSequential, 16);
    // Sequential processing: batch size does not help CALM.
    assert!((calm_16 / calm_1 - 1.0).abs() < 0.1, "{calm_1} {calm_16}");
    let e3_16 = run(AutoRegStrategy::E3 { boundary }, 16);
    assert!(e3_16 > calm_16 * 1.5, "e3={e3_16} calm={calm_16}");
}

#[test]
fn boundary_picker_finds_midpoint() {
    let exp = experiment(ModelFamily::llm_t5(), DatasetModel::wmt(), 5);
    let b = exp.pick_autoreg_boundary(0.5);
    let calm = &exp.family.ee;
    let enc = calm.autoreg().unwrap().encoder_layers;
    assert!(b > enc && b < calm.num_layers(), "b={b}");
}

#[test]
fn summarization_beats_translation_in_relative_win() {
    // Variable output lengths (SAMSum) make vanilla static batching pay
    // for stragglers, so E3's relative win grows (fig. 11 vs fig. 10).
    let ratio = |ds: DatasetModel| {
        let exp = experiment(ModelFamily::llm_t5(), ds, 32);
        let (ctrl0, ctrl) = ctrls(&exp.family);
        let boundary = exp.pick_autoreg_boundary(0.5);
        let v = exp.run_autoreg(AutoRegStrategy::VanillaStatic, &ctrl0, 16);
        let e = exp.run_autoreg(AutoRegStrategy::E3 { boundary }, &ctrl, 16);
        e.goodput / v.goodput
    };
    let wmt = ratio(DatasetModel::wmt());
    let samsum = ratio(DatasetModel::samsum());
    assert!(samsum > wmt, "samsum {samsum} wmt {wmt}");
}

#[test]
fn llama_ee_pathology_and_e3_rescue() {
    let exp = experiment(ModelFamily::llm_llama(), DatasetModel::boolq(), 33);
    let (ctrl0, ctrl) = ctrls(&exp.family);
    let ee = &exp.family.ee;
    let boundary = exp.pick_autoreg_boundary(0.5);
    // §5.1.3: the profiler finds ~50% exiting deep in the model.
    assert!(
        (20..30).contains(&boundary),
        "boundary {boundary} should be deep (paper: layer 25)"
    );
    // E3 checks exits only at its split boundary.
    let mut e3_ctrl = ctrl.clone();
    e3_ctrl.keep_only(&[ee.ramp_after(boundary - 1).expect("ramp at boundary")]);
    let run = |c: &RampController, strat, b| exp.run_autoreg(strat, c, b).goodput;
    // Per-layer lm-head ramps make naive EE lose to vanilla at every
    // batch size, b=1 included.
    for b in [1, 8] {
        let v = run(&ctrl0, AutoRegStrategy::VanillaStatic, b);
        let naive = run(&ctrl, AutoRegStrategy::NaiveEeBatched, b);
        assert!(
            naive < v,
            "b={b}: naive {naive} must lose to vanilla {v} (lm-head ramps)"
        );
    }
    let v = run(&ctrl0, AutoRegStrategy::VanillaStatic, 8);
    let e3 = run(&e3_ctrl, AutoRegStrategy::E3 { boundary }, 8);
    assert!(e3 > v, "e3 {e3} must beat vanilla {v}");
}
