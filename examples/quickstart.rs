//! Quickstart: serve an early-exit BERT on 16 simulated V100s and watch
//! E3 beat both the stock model and naive early-exit serving.
//!
//! ```text
//! cargo run --release -p e3-examples --example quickstart
//! ```

use e3::harness::{Experiment, ModelFamily, SystemKind};
use e3_hardware::ClusterSpec;
use e3_runtime::kernel::NullObserver;
use e3_workload::DatasetModel;

fn main() {
    // 1. Pick a model family: the stock model, its early-exit variant,
    //    and the exit policy the variant was trained with.
    let family = ModelFamily::nlp(); // BERT-BASE + DeeBERT + entropy(0.4)

    // 2. Pick hardware and a workload.
    let cluster = ClusterSpec::paper_homogeneous_v100(); // 16 x V100
    let dataset = DatasetModel::sst2(); // easy-skewed NLP inputs
    let batch = 8;

    // Default harness options: 100 ms SLO, pipelining on; 20k requests
    // per measurement point.
    let exp = Experiment::new(family, cluster, dataset).with_seed(42);

    // 3. Look at the plan E3's optimizer produces: it measures the
    //    batch-shrinkage profile, then splits and replicates the model so
    //    every layer runs at a full batch.
    let plan = exp.plan(batch);
    println!("E3 plan: {plan}\n");

    // 4. Serve 20k requests under each system and compare.
    for (name, kind) in [
        ("vanilla BERT-BASE ", SystemKind::Vanilla),
        ("naive DeeBERT     ", SystemKind::NaiveEe),
        ("E3                ", SystemKind::E3),
    ] {
        let r = exp.run(kind, batch, &mut NullObserver);
        println!(
            "{name} goodput {:>6.0}/s  median latency {:>5.1} ms  accuracy {:.1}%  mean depth {:>4.1}/12 layers",
            r.goodput(),
            r.latency_summary_ms().median,
            r.accuracy() * 100.0,
            r.mean_depth(),
        );
    }
    println!("\nE3 keeps the batch size constant across its splits, so exits save");
    println!("compute without starving the GPU — the best of both baselines.");
}
