//! A full E3 deployment with the online control loop: the workload's
//! easy:hard mix shifts mid-run and E3's profiler + optimizer re-plan
//! each scheduling window (the paper's fig. 16 scenario).
//!
//! ```text
//! cargo run --release -p e3-examples --example nlp_serving
//! ```

use e3::{E3Config, E3System};
use e3_hardware::ClusterSpec;
use e3_model::zoo;
use e3_runtime::kernel::NullObserver;
use e3_workload::DatasetModel;

fn main() {
    let sys = E3System::new(
        zoo::deebert(),
        zoo::default_policy("DeeBERT"),
        ClusterSpec::paper_homogeneous_v100(),
        E3Config {
            seed: 7,
            requests_per_window: 8_000,
            ..Default::default()
        },
    );

    // Three phases: mostly-easy -> balanced -> mostly-hard, three
    // scheduling windows each.
    let phases: Vec<DatasetModel> = [0.8, 0.8, 0.8, 0.5, 0.5, 0.5, 0.2, 0.2, 0.2]
        .iter()
        .map(|&e| DatasetModel::with_mix(e))
        .collect();
    let report = sys.run_windows_observed(&phases, &[], &mut NullObserver);

    println!("window  mix      splits  goodput/s  drift   plan");
    for (w, win) in report.windows.iter().enumerate() {
        println!(
            "{:>6}  {:7}  {:>6}  {:>9.0}  {:>5.3}   {}",
            w,
            phases[w].name().trim_start_matches("mix-"),
            win.plan.num_splits(),
            win.run.goodput(),
            win.drift,
            win.plan
        );
    }
    println!(
        "\noverall goodput {:.0}/s, accuracy {:.1}%, mean prediction drift {:.3}",
        report.goodput(),
        report.accuracy() * 100.0,
        report.mean_drift()
    );
    println!("E3 re-plans each window: aggressive splits on easy mixes, fewer as the");
    println!("workload hardens — and a drift spike right after each switch triggers");
    println!("the estimator's reactive reset.");
}
