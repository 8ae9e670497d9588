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
//!
//! On `c` V100s each request joins the least-loaded replica's private
//! queue, which sits between one central M/D/c queue and `c` independent
//! M/D/1 queues at `λ / c`. And any run that drops nothing obeys
//! Little's law, `X · R = N`, closed loop or open.

use e3::harness::{Experiment, ModelFamily, SystemKind};
use e3::DeploymentBuilder;
use e3_hardware::{ClusterSpec, GpuKind};
use e3_model::{zoo, ExitPolicy};
use e3_runtime::kernel::{EventLog, NullObserver};
use e3_runtime::{KernelEvent, RunReport, Strategy};
use e3_simcore::{stats, SimDuration, SimTime};
use e3_workload::{ArrivalProcess, BurstyTraceConfig, DatasetModel, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Requests offered per run, in expectation.
const REQUESTS: f64 = 50_000.0;
const SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

/// Serves Poisson arrivals at `rate` for `horizon` on `gpus` V100s.
fn serve(gpus: usize, rate: f64, horizon: SimDuration, seed: u64) -> RunReport {
    let model = zoo::bert_base();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, gpus, 1);
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
    let r = serve(1, 1.0, SimDuration::from_secs(20), 1);
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
            .map(|&seed| serve(1, rate, horizon, seed))
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

/// Erlang's C formula: the probability that an arrival waits in an
/// M/M/c queue offered `a = λ S` erlangs.
fn erlang_c(c: usize, a: f64) -> f64 {
    let mut term = 1.0; // a^k / k!
    let mut below = 0.0;
    for k in 0..c {
        below += term;
        term *= a / (k + 1) as f64;
    }
    let tail = term * c as f64 / (c as f64 - a);
    tail / (below + tail)
}

#[test]
fn four_servers_sit_between_central_md4_and_independent_md1_queues() {
    let s = service_secs();
    let c = 4;
    for rho in [0.5, 0.8] {
        let rate = c as f64 * rho / s;
        let horizon = SimDuration::from_secs_f64(REQUESTS / rate);
        let means: Vec<f64> = SEEDS
            .iter()
            .map(|&seed| serve(c, rate, horizon, seed).latency.mean_ms())
            .collect();
        let mean = stats::mean(&means);
        // One central queue: the M/D/c wait is about half the M/M/c
        // (Erlang-C) wait.
        let a = rate * s;
        let central = 1e3 * s * (1.0 + 0.5 * erlang_c(c, a) / (c as f64 - a));
        // Four private queues without balancing: M/D/1 at λ/4 each.
        let independent = 1e3 * s * (1.0 + rho / (2.0 * (1.0 - rho)));
        assert!(
            central < mean && mean < independent,
            "rho {rho}: mean latency {mean:.3} ms outside ({central:.3}, {independent:.3})"
        );
    }
}

#[test]
fn closed_loop_obeys_littles_law() {
    // An E3 plan with at least two splits: fusion waits at the split
    // boundary make the number in flight vary.
    let exp = Experiment::new(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    )
    .with_n(8000)
    .with_seed(3);
    assert!(exp.plan(8).num_splits() >= 2);
    let mut log = EventLog::new();
    let r = exp.run(SystemKind::E3, 8, &mut log);
    assert_eq!(r.dropped, 0);
    assert_eq!(r.completed, 8000);
    assert_littles_law(&r, &log);
}

#[test]
fn open_loop_obeys_littles_law() {
    // Bursty arrivals well under an E3 plan's capacity: bursts queue up
    // and lulls drain. Arrivals stop 2 s before the horizon, so the
    // report's duration is the horizon floor, not the last completion.
    let family = ModelFamily::nlp();
    let cluster = ClusterSpec::paper_homogeneous_v100();
    let exp = Experiment::new(family.clone(), cluster.clone(), DatasetModel::sst2());
    let strategy = Strategy::Plan(exp.plan(8));
    let horizon = SimDuration::from_secs(20);
    let sim = DeploymentBuilder::new(&family.ee, family.policy, &strategy, &cluster)
        .open_loop(horizon)
        .build();
    let last_arrival = SimTime::ZERO + SimDuration::from_secs(18);
    let requests: Vec<_> = WorkloadGenerator::new(
        ArrivalProcess::Bursty(BurstyTraceConfig::twitter_like(500.0)),
        DatasetModel::sst2(),
        horizon,
    )
    .generate(0, &mut StdRng::seed_from_u64(5))
    .into_iter()
    .filter(|r| r.arrival < last_arrival)
    .collect();
    let mut log = EventLog::new();
    let r = sim.run(&requests, 5, &mut log);
    assert_eq!(r.dropped, 0);
    assert_eq!(r.completed, requests.len() as u64);
    assert_eq!(r.duration, horizon);
    assert_littles_law(&r, &log);
}

/// Checks `X · R = N` for a run that dropped nothing: `N` integrated
/// from the log's `Arrival`/`Completion` events over the report's
/// `duration`, `X` and `R` from the report.
fn assert_littles_law(r: &RunReport, log: &EventLog) {
    // N: the time-averaged count between `Arrival` and `Completion`.
    let duration = r.duration.as_secs_f64();
    let (mut in_flight, mut area, mut last) = (0i64, 0.0, 0.0);
    let mut seen = std::collections::BTreeSet::new();
    for (at, e) in &log.events {
        let t = at.as_secs_f64();
        area += in_flight as f64 * (t - last);
        last = t;
        match e {
            KernelEvent::Arrival { .. } => in_flight += 1,
            KernelEvent::Completion { .. } => in_flight -= 1,
            _ => continue,
        }
        if (0.25..0.75).contains(&(t / duration)) {
            seen.insert(in_flight);
        }
    }
    assert_eq!(in_flight, 0);
    assert!(seen.len() > 1, "the number in flight never varied");
    let n = area / duration;
    let x = r.completed as f64 / duration;
    let latency = r.latency.mean_ms() / 1e3;
    assert!(
        (x * latency - n).abs() <= 1e-6 * n,
        "X·R = {} but N = {n}",
        x * latency
    );
}
