//! The batch kernel checked against queueing theory, not against its own
//! earlier output.
//!
//! Vanilla BERT-base at batch 1 on one V100 is an M/D/1 queue: Poisson
//! arrivals, one server, and a deterministic service time `S` (every
//! request runs every layer, alone). A 100 s SLO keeps admission from
//! dropping anything, so every arrival is served and textbook results
//! apply:
//!
//! * the mean time in system is `S (1 + ρ / (2 (1 − ρ)))` at load
//!   `ρ = λ S` (Pollaczek–Khinchine for deterministic service);
//! * the server's busy fraction is `ρ` (the utilization law).

use e3::DeploymentBuilder;
use e3_hardware::{ClusterSpec, GpuKind};
use e3_model::{zoo, ExitPolicy};
use e3_runtime::kernel::NullObserver;
use e3_runtime::{RunReport, Strategy};
use e3_simcore::{stats, SimDuration};
use e3_workload::{ArrivalProcess, DatasetModel, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Requests offered per run, in expectation.
const REQUESTS: f64 = 50_000.0;
const SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

/// Serves Poisson arrivals at `rate` for `horizon` on one V100.
fn serve(rate: f64, horizon: SimDuration, seed: u64) -> RunReport {
    let model = zoo::bert_base();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 1, 1);
    let strategy = Strategy::Vanilla { batch: 1 };
    let sim = DeploymentBuilder::new(
        &model,
        ExitPolicy::Entropy { threshold: 0.4 },
        &strategy,
        &cluster,
    )
    .with_slo(SimDuration::from_secs(100))
    .open_loop(horizon)
    .build();
    let requests = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate },
        DatasetModel::sst2(),
        horizon,
    )
    .generate(0, &mut StdRng::seed_from_u64(seed));
    let r = sim.run(&requests, seed, &mut NullObserver);
    assert_eq!(r.dropped, 0, "a 100 s SLO admits every arrival");
    assert_eq!(r.completed, requests.len() as u64);
    r
}

/// The deterministic service time, read from a light-load run: busy
/// time per completed batch of one.
fn service_secs() -> f64 {
    let r = serve(1.0, SimDuration::from_secs(20), 1);
    r.replica_util[0].busy().as_secs_f64() / r.completed as f64
}

#[test]
fn single_server_matches_md1_and_the_utilization_law() {
    let s = service_secs();
    assert!((0.005..0.02).contains(&s), "service time {s}");
    for rho in [0.5, 0.8] {
        let rate = rho / s;
        let horizon = SimDuration::from_secs_f64(REQUESTS / rate);
        let runs: Vec<RunReport> = SEEDS
            .iter()
            .map(|&seed| serve(rate, horizon, seed))
            .collect();

        let means: Vec<f64> = runs.iter().map(|r| r.latency.mean_ms()).collect();
        let mean = stats::mean(&means);
        let sem = stats::std_dev(&means) / (means.len() as f64).sqrt();
        let theory = 1e3 * s * (1.0 + rho / (2.0 * (1.0 - rho)));
        // Five standard errors of the seed mean (t ≈ 4.6 at 99% for five
        // seeds), and the seeds must agree well enough for that band to
        // say something.
        assert!(sem < 0.02 * theory, "rho {rho}: seeds spread {sem} ms");
        assert!(
            (mean - theory).abs() <= 5.0 * sem,
            "rho {rho}: mean latency {mean:.3} ms, M/D/1 {theory:.3} ms, sem {sem:.3}"
        );

        // Utilization law: busy fraction = λ S = ρ, up to the Poisson
        // noise in how many requests arrived (about 1/√N).
        let busy: Vec<f64> = runs.iter().map(|r| r.mean_busy_fraction()).collect();
        let busy = stats::mean(&busy);
        assert!(
            (busy - rho).abs() <= 0.02 * rho,
            "rho {rho}: busy fraction {busy:.4}"
        );
    }
}
