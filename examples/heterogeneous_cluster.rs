//! Heterogeneity-aware planning: E3 places each split on the GPU kind
//! that suits it — cheap K80s for small surviving batches, V100s for the
//! full-batch front — and can minimize dollar cost for a goodput target
//! (the paper's §5.2–5.3).
//!
//! ```text
//! cargo run --release -p e3-examples --example heterogeneous_cluster
//! ```

use std::collections::BTreeMap;

use e3::harness::{Experiment, ModelFamily, SystemKind};
use e3::system::measure_profile;
use e3_hardware::{ClusterSpec, GpuKind, LatencyModel, TransferModel};
use e3_model::{InferenceSim, RampController};
use e3_optimizer::{min_cost_for_goodput, OptimizerConfig};
use e3_runtime::kernel::NullObserver;
use e3_workload::DatasetModel;

fn main() {
    let family = ModelFamily::nlp();
    let ds = DatasetModel::sst2();

    // Two equal-cost clusters ($0.013/s).
    let homo = ClusterSpec::paper_homogeneous_v100();
    let hetero = ClusterSpec::paper_heterogeneous();
    println!("equal-cost clusters: 16 x V100  vs  6 x V100 + 8 x P100 + 15 x K80\n");
    println!("goodput at fixed cost (E3, samples/s):");
    for b in [1usize, 8] {
        let goodput = |cluster: &ClusterSpec| {
            Experiment::new(family.clone(), cluster.clone(), ds.clone())
                .with_n(15_000)
                .with_seed(3)
                .run(SystemKind::E3, b, &mut NullObserver)
                .goodput()
        };
        let (gh, gx) = (goodput(&homo), goodput(&hetero));
        println!("  b={b}: homogeneous {gh:>6.0}  heterogeneous {gx:>6.0}");
    }

    // Cost minimization: cheapest GPU mix sustaining 6000 samples/s.
    let ctrl = RampController::all_enabled(family.ee.num_ramps(), family.policy.ramp_style());
    let infer = InferenceSim::with_accuracy(ds.base_accuracy);
    let profile = measure_profile(&family.ee, &family.policy, &ctrl, &infer, &ds, 4000, 3);
    let mut pool = BTreeMap::new();
    pool.insert(GpuKind::V100, 48);
    pool.insert(GpuKind::P100, 48);
    pool.insert(GpuKind::K80, 64);
    let plan = min_cost_for_goodput(
        &family.ee,
        &ctrl,
        &profile,
        &pool,
        8.0,
        6000.0,
        &TransferModel::default(),
        &LatencyModel::new(),
        &OptimizerConfig::default(),
    )
    .expect("target reachable");
    println!("\ncheapest allocation for 6000 samples/s at b=8:");
    println!("  {plan}");
    println!(
        "  cost: ${:.4}/s (${:.2}/min)",
        plan.cost_per_sec(),
        plan.cost_per_sec() * 60.0
    );
    println!("\nsmall-surviving-batch splits land on cheap GPUs; full-batch splits on fast ones.");
}
