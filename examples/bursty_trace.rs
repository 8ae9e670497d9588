//! Open-loop serving under an extremely bursty, Twitter-like arrival
//! trace (the paper's fig. 19): dynamic batching, SLO-slack admission
//! drops, and E3's split execution under low average utilization.
//!
//! ```text
//! cargo run --release -p e3-examples --example bursty_trace
//! ```

use e3::harness::{Experiment, ModelFamily, SystemKind};
use e3_hardware::{ClusterSpec, GpuKind};
use e3_runtime::kernel::NullObserver;
use e3_simcore::SimDuration;
use e3_workload::trace::{peak_to_mean, per_second_counts};
use e3_workload::{ArrivalProcess, BurstyTraceConfig, DatasetModel, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let horizon = SimDuration::from_secs(90);
    let cfg = BurstyTraceConfig::twitter_like(1000.0);
    let generator = WorkloadGenerator::new(
        ArrivalProcess::Bursty(cfg.clone()),
        DatasetModel::sst2(),
        horizon,
    );

    // Characterize the trace.
    let mut rng = StdRng::seed_from_u64(11);
    let arrivals = ArrivalProcess::Bursty(cfg).generate(horizon, &mut rng);
    let counts = per_second_counts(&arrivals, horizon);
    println!(
        "trace: {} requests over {:.0}s, mean {:.0}/s, peak-to-mean {:.1}x",
        arrivals.len(),
        horizon.as_secs_f64(),
        arrivals.len() as f64 / horizon.as_secs_f64(),
        peak_to_mean(&counts)
    );

    let exp = Experiment::new(
        ModelFamily::nlp(),
        ClusterSpec::homogeneous(GpuKind::V100, 4, 2),
        DatasetModel::sst2(),
    )
    .with_seed(11);
    println!("\nserving on 4 x V100, batch 8, 100 ms SLO:");
    for (name, kind) in [
        ("vanilla BERT", SystemKind::Vanilla),
        ("naive DeeBERT", SystemKind::NaiveEe),
        ("E3", SystemKind::E3),
    ] {
        let r = exp.run_open(kind, 8, &generator, &mut NullObserver);
        println!(
            "  {name:14} goodput {:>5.0}/s  drops {:>4.1}%  p99 latency {:>5.1} ms  util {:>4.1}%",
            r.goodput(),
            r.drop_rate() * 100.0,
            r.latency.quantile_ms(0.99),
            r.mean_effective_utilization() * 100.0
        );
    }
    println!("\nbursts force drops on everyone; E3's cheaper per-request compute");
    println!("absorbs more of each burst before the SLO forces load shedding.");
}
