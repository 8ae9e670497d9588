//! Kernel event-throughput microbenchmark.
//!
//! Six sections, one JSON line each, so CI can archive the output as
//! `BENCH_kernel.json` and diff `events_per_sec` against the committed
//! baseline. Each line also carries `minor_faults`, the process's minor
//! page faults over the section's timed loop, so a rate outlier comes
//! with the allocation signal that may explain it:
//!
//! 1. `kernel` — the fixed fig. 7 E3 configuration (BERT/DeeBERT on 16
//!    V100s, b=8, 20k requests). The Monte-Carlo materialization runs
//!    *once* (`ServingSim::materialize_backlog`); the timed region is
//!    the kernel event loop alone (`run_backlog_observed`), repeated to
//!    amortize timer noise. This is the number the compact-key event heap
//!    and the allocation-free batch loops are accountable to.
//! 2. `kernel_continuous` — CALM-T5 continuous batching on SAMSum in the
//!    benchmark's `llm_kv_sweep` shape: 2000 sequences, five KV budgets
//!    x two joins (admission + preemption events included), reported as
//!    the fastest of [`REPS`] sweeps.
//!
//!    Both sections also print an FNV-1a `digest` over the time and
//!    `{:?}` text of every event of their untimed warm-up run, so a
//!    change that moves when events happen shows even when it keeps
//!    their count.
//! 3. `kernel_multi_tenant` — three NLP tenants under joint allocation
//!    on 6 V100s; events are every tenant's tagged kernel stream, and
//!    `digest` covers them as in the sections above.
//! 4. `materialize` — the Monte-Carlo materialization the `kernel`
//!    section excludes: `ServingSim::materialize_backlog` over the same
//!    20k DeeBERT/SST-2 requests, reported as the fastest of [`REPS`]
//!    passes. Its `events_per_sec` counts materialized samples. Two
//!    FNV-1a digests pin the exit sampler's outcomes over the same
//!    hardnesses: `digest` under DeeBERT's entropy threshold,
//!    `patience_digest` under PABEE's patience policy, each over every
//!    outcome (layers executed, exit ramp, correct) and the RNG's next
//!    word.
//! 5. `kernel_open` — the open-loop path, the only one that runs
//!    SLO-slack admission: DeeBERT/SST-2 on 4×2 V100s at b=8 under one
//!    Twitter-like bursty rate over a 30 s horizon, in the shape of the
//!    benchmark's `open_bursty` workload. The backlog is materialized
//!    once and the timed region is the kernel alone. Its `digest` pins
//!    the stream the arrival backlog and the event queue merge into.
//! 6. `generate` — the arrival and hardness generation the `kernel_open`
//!    section excludes, at the `open_bursty` shape: SST-2 requests under
//!    each of six Twitter-like bursty rates (400–1000 req/s) over 30 s,
//!    reported as the fastest of [`REPS`] passes. Its `events_per_sec`
//!    counts generated requests; `digest` is an FNV-1a hash of every
//!    request's arrival and hardness bits, so CI pins the exact stream.
//!
//! ```text
//! cargo run --release -p e3-bench --bin bench_kernel > BENCH_kernel.json
//! ```

use std::time::Instant;

use e3::harness::{ModelFamily, SystemKind};
use e3::DeploymentBuilder;
use e3_bench::exp::experiment;
use e3_bench::{RUN_N, SEED};
use e3_hardware::{ClusterSpec, GpuKind, LatencyModel};
use e3_model::{zoo, EeModel, ExitPolicy, ExitSampler, InferenceSim, RampController};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::EventLog;
use e3_runtime::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, KernelEvent, KvPlan, PreemptMode,
    RunObserver, Strategy, TaggedEventLog,
};
use e3_simcore::{SeedSplitter, SimDuration, SimTime};
use e3_tenancy::{MarginalGoodput, MultiTenantSystem, TenancyConfig, TenantSpec};
use e3_workload::{ArrivalProcess, BurstyTraceConfig, DatasetModel, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Timed repetitions per section (event counts are per repetition).
const REPS: usize = 5;

/// The FNV-1a offset basis every digest starts from.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a: folds `bytes` into `digest`.
fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &byte| {
        (d ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

struct CountingObserver {
    events: u64,
}

impl RunObserver for CountingObserver {
    fn on_event(&mut self, _now: SimTime, _event: &KernelEvent) {
        self.events += 1;
    }
}

/// FNV-1a over the time and `{:?}` text of every event of a run, so a
/// run that emits as many events at other times (a mispriced layer, say)
/// changes the digest.
fn event_digest<'a>(events: impl IntoIterator<Item = (SimTime, &'a KernelEvent)>) -> u64 {
    events.into_iter().fold(FNV_BASIS, |digest, (now, event)| {
        let digest = fnv1a(digest, &now.as_nanos().to_le_bytes());
        fnv1a(digest, format!("{event:?}").as_bytes())
    })
}

/// The process's minor page faults so far (field 10 of
/// `/proc/self/stat`), or `None` where that file is unreadable. Read
/// around a timed loop, the difference shows how much of it went to
/// first-touching fresh heap pages.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; count from after it.
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// The minor faults since `before`, as a JSON value (`null` where they
/// could not be read).
fn faults_since(before: Option<u64>) -> String {
    match (before, minor_faults()) {
        (Some(before), Some(after)) => (after - before).to_string(),
        _ => "null".to_string(),
    }
}

/// Section 1: windowed kernel loop over a pre-materialized backlog.
fn bench_windowed() {
    let exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    );
    let (sim, reqs, run_seed) = exp.deployment(SystemKind::E3, 8);
    let backlog = sim.materialize_backlog(&reqs, run_seed);
    // Warm-up pass: faults caches and sizes the arena before timing,
    // and digests the event stream.
    let mut log = EventLog::new();
    let report = sim.run_backlog_observed(backlog.clone(), &mut log);
    let (per_run, digest) = (
        log.events.len(),
        event_digest(log.events.iter().map(|(now, e)| (*now, e))),
    );

    let mut obs = CountingObserver { events: 0 };
    let faults_before = minor_faults();
    let start = Instant::now();
    for _ in 0..REPS {
        sim.run_backlog_observed(backlog.clone(), &mut obs);
    }
    let wall = start.elapsed().as_secs_f64();
    let faults = faults_since(faults_before);
    println!(
        "{{\"bench\":\"kernel\",\"requests\":{},\"completed\":{},\"events\":{},\"digest\":\"{:016x}\",\"wall_secs\":{:.3},\"events_per_sec\":{:.0},\"minor_faults\":{}}}",
        RUN_N,
        report.completed,
        per_run,
        digest,
        wall,
        obs.events as f64 / wall.max(1e-9),
        faults
    );
}

/// Section 2: continuous-batching kernel loop over pre-materialized
/// token journeys, in the shape of the benchmark's `llm_kv_sweep`
/// workload: 2000 CALM-T5/SAMSum sequences on 4 A6000s at b0=16, under
/// continuous and padded-window joins and five per-replica KV budgets
/// (admission and preemption events included). One repetition is the
/// ten-run sweep; the fastest repetition is reported.
fn bench_continuous() {
    const KV_BUDGETS: [usize; 5] = [64, 128, 256, 512, 1024];
    const JOINS: [JoinPolicy; 2] = [JoinPolicy::Continuous, JoinPolicy::Window { padded: true }];
    let fam = ModelFamily::llm_t5();
    let ctrl = RampController::all_enabled(fam.ee.num_ramps(), fam.policy.ramp_style());
    let ds = DatasetModel::samsum();
    let infer = InferenceSim::with_accuracy(ds.base_accuracy);
    let lm = LatencyModel::new();
    let n_seqs = 2000;
    let specs = materialize_sequences(&fam.ee, &fam.policy, &ctrl, &infer, &ds, n_seqs, SEED);
    let bytes_per_token = fam.ee.autoreg().expect("autoreg").kv_bytes_per_token;
    let configs: Vec<ContinuousConfig> = KV_BUDGETS
        .iter()
        .flat_map(|&capacity_tokens| JOINS.iter().map(move |&join| (capacity_tokens, join)))
        .map(|(capacity_tokens, join)| ContinuousConfig {
            model: &fam.ee,
            ctrl: &ctrl,
            gpu: GpuKind::A6000,
            lm: &lm,
            join,
            b0: 16,
            replicas_a: 4,
            boundary: None,
            replicas_b: 0,
            deferred_exits: false,
            kv: Some(KvPlan {
                capacity_tokens,
                bytes_per_token,
                mode: PreemptMode::Recompute,
            }),
            slo: SimDuration::from_secs(86_400),
            fault_plan: FaultPlan::new(),
            b_max_wait: None,
        })
        .collect();
    let sweep = |obs: &mut dyn RunObserver| -> u64 {
        configs
            .iter()
            .map(|cfg| run_continuous(cfg, &specs, obs).report.completed)
            .sum()
    };
    // Warm-up sweep: counts and digests the events of one repetition.
    let mut log = EventLog::new();
    let completed = sweep(&mut log);
    let (per_rep, digest) = (
        log.events.len(),
        event_digest(log.events.iter().map(|(now, e)| (*now, e))),
    );

    let faults_before = minor_faults();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        sweep(&mut CountingObserver { events: 0 });
        best = best.min(start.elapsed().as_secs_f64());
    }
    let faults = faults_since(faults_before);
    println!(
        "{{\"bench\":\"kernel_continuous\",\"sequences\":{},\"runs\":{},\"completed\":{},\"events\":{},\"digest\":\"{:016x}\",\"wall_secs\":{:.4},\"events_per_sec\":{:.0},\"minor_faults\":{}}}",
        n_seqs,
        configs.len(),
        completed,
        per_rep,
        digest,
        best,
        per_rep as f64 / best.max(1e-9),
        faults
    );
}

/// Section 3: multi-tenant serving — every tenant's tagged kernel
/// stream, including the per-window plan solves the control loop pays.
fn bench_multi_tenant() {
    let cfg = TenancyConfig {
        windows: 4,
        realloc_every: 2,
        seed: SEED,
        profile_samples: 400,
        max_splits: 2,
        ..Default::default()
    };
    let horizon = cfg.window * cfg.windows as u64;
    let tenants: Vec<TenantSpec> = (0..3)
        .map(|i| {
            TenantSpec::nlp_stationary(&format!("tenant{i}"), DatasetModel::with_mix(0.6), horizon)
                .with_demand(300)
        })
        .collect();
    let cluster = ClusterSpec::homogeneous(GpuKind::V100, 6, 2);
    let sys = MultiTenantSystem::new(tenants, cluster, cfg);

    let mut log = TaggedEventLog::new();
    let report = sys.run_observed(&MarginalGoodput::default(), &mut log);
    let per_run = log.events.len() as u64;
    let digest = event_digest(log.events.iter().map(|(_, now, e)| (*now, e)));

    let mut events = 0u64;
    let faults_before = minor_faults();
    let start = Instant::now();
    for _ in 0..REPS {
        let mut log = TaggedEventLog::new();
        sys.run_observed(&MarginalGoodput::default(), &mut log);
        events += log.events.len() as u64;
    }
    let wall = start.elapsed().as_secs_f64();
    let faults = faults_since(faults_before);
    println!(
        "{{\"bench\":\"kernel_multi_tenant\",\"tenants\":3,\"windows\":4,\"completed\":{},\"events\":{},\"digest\":\"{:016x}\",\"wall_secs\":{:.3},\"events_per_sec\":{:.0},\"minor_faults\":{}}}",
        report.tenants.iter().map(|t| t.within_slo()).sum::<u64>(),
        per_run,
        digest,
        wall,
        events as f64 / wall.max(1e-9),
        faults
    );
}

/// FNV-1a over every outcome `sampler` draws for `hardness` from a
/// generator seeded with `seed`, then over the generator's next word.
fn outcome_digest(sampler: &ExitSampler, hardness: &[f64], seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut digest = FNV_BASIS;
    let mut eat = |word: u64| digest = fnv1a(digest, &word.to_le_bytes());
    for &h in hardness {
        let out = sampler.sample(h, &mut rng);
        eat(out.layers_executed as u64);
        eat(out.exited_at_ramp.map_or(u64::MAX, |r| r as u64));
        eat(u64::from(out.correct));
    }
    eat(rng.next_u64());
    digest
}

/// The digest of `model` under `policy`, every ramp enabled, over the
/// dataset's accuracy.
fn policy_digest(
    model: &EeModel,
    policy: ExitPolicy,
    dataset: &DatasetModel,
    hardness: &[f64],
    seed: u64,
) -> u64 {
    let ctrl = RampController::all_enabled(model.num_ramps(), policy.ramp_style());
    let infer = InferenceSim::with_accuracy(dataset.base_accuracy);
    outcome_digest(
        &ExitSampler::new(&infer, model, &policy, &ctrl),
        hardness,
        seed,
    )
}

/// Section 4: per-request exit materialization for the `kernel`
/// section's configuration.
fn bench_materialize() {
    let exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    );
    let (sim, reqs, run_seed) = exp.deployment(SystemKind::E3, 8);
    let layers: usize = sim
        .materialize_backlog(&reqs, run_seed)
        .iter()
        .map(|s| usize::from(s.layers_executed))
        .sum();
    let hardness: Vec<f64> = reqs.iter().map(|r| r.hardness).collect();
    let fam = &exp.family;
    let digest = policy_digest(&fam.ee, fam.policy, &exp.dataset, &hardness, run_seed);
    let pabee = zoo::pabee();
    let patience = zoo::default_policy(pabee.name());
    let patience_digest = policy_digest(&pabee, patience, &exp.dataset, &hardness, run_seed);
    let faults_before = minor_faults();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(sim.materialize_backlog(&reqs, run_seed));
        best = best.min(start.elapsed().as_secs_f64());
    }
    let faults = faults_since(faults_before);
    println!(
        "{{\"bench\":\"materialize\",\"samples\":{},\"layers\":{},\"digest\":\"{:016x}\",\"patience_digest\":\"{:016x}\",\"wall_secs\":{:.4},\"events_per_sec\":{:.0},\"minor_faults\":{}}}",
        reqs.len(),
        layers,
        digest,
        patience_digest,
        best,
        reqs.len() as f64 / best.max(1e-9),
        faults
    );
}

/// Section 5: the open-loop kernel, SLO-slack drops included, over a
/// pre-materialized bursty backlog.
fn bench_open() {
    const RATE: f64 = 700.0;
    const BATCH: usize = 8;
    let horizon = SimDuration::from_secs(30);
    let exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::homogeneous(GpuKind::V100, 4, 2),
        DatasetModel::sst2(),
    );
    let strategy = Strategy::Plan(exp.plan(BATCH));
    let generator = WorkloadGenerator::new(
        ArrivalProcess::Bursty(BurstyTraceConfig::twitter_like(RATE)),
        exp.dataset.clone(),
        horizon,
    );
    let reqs = generator.generate(0, &mut StdRng::seed_from_u64(SEED));
    let fam = &exp.family;
    let sim = DeploymentBuilder::new(&fam.ee, fam.policy, &strategy, &exp.cluster)
        .with_inference(InferenceSim::with_accuracy(exp.dataset.base_accuracy))
        .with_latency_model(fam.latency_model())
        .with_slo(exp.opts.slo)
        .open_loop(horizon)
        .build();
    let backlog = sim.materialize_backlog(&reqs, SEED);
    // Warm-up pass: counts and digests the events of one run.
    let mut log = EventLog::new();
    let report = sim.run_backlog_observed(backlog.clone(), &mut log);
    let (per_run, digest) = (
        log.events.len(),
        event_digest(log.events.iter().map(|(now, e)| (*now, e))),
    );

    let mut obs = CountingObserver { events: 0 };
    let faults_before = minor_faults();
    let start = Instant::now();
    for _ in 0..REPS {
        sim.run_backlog_observed(backlog.clone(), &mut obs);
    }
    let wall = start.elapsed().as_secs_f64();
    let faults = faults_since(faults_before);
    println!(
        "{{\"bench\":\"kernel_open\",\"requests\":{},\"completed\":{},\"dropped\":{},\"events\":{},\"digest\":\"{:016x}\",\"wall_secs\":{:.3},\"events_per_sec\":{:.0},\"minor_faults\":{}}}",
        reqs.len(),
        report.completed,
        report.dropped,
        per_run,
        digest,
        wall,
        obs.events as f64 / wall.max(1e-9),
        faults
    );
}

/// Section 6: open-loop request generation at the benchmark's
/// `open_bursty` shape.
fn bench_generate() {
    const RATES: [f64; 6] = [400.0, 500.0, 600.0, 700.0, 800.0, 1000.0];
    let generators: Vec<WorkloadGenerator> = RATES
        .iter()
        .map(|&rate| {
            WorkloadGenerator::new(
                ArrivalProcess::Bursty(BurstyTraceConfig::twitter_like(rate)),
                DatasetModel::sst2(),
                SimDuration::from_secs(30),
            )
        })
        .collect();
    let seeds = SeedSplitter::new(SEED);
    let generate = || {
        generators.iter().zip(0u64..).map(|(g, rung)| {
            g.generate(
                0,
                &mut StdRng::seed_from_u64(seeds.derive_indexed("requests", rung)),
            )
        })
    };
    // FNV-1a over each request's arrival and hardness bits.
    let mut digest = FNV_BASIS;
    let mut requests = 0;
    for reqs in generate() {
        requests += reqs.len();
        for r in &reqs {
            for word in [r.arrival.as_nanos(), r.hardness.to_bits()] {
                digest = fnv1a(digest, &word.to_le_bytes());
            }
        }
    }
    let faults_before = minor_faults();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for reqs in generate() {
            std::hint::black_box(reqs);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let faults = faults_since(faults_before);
    println!(
        "{{\"bench\":\"generate\",\"rates\":{},\"requests\":{},\"digest\":\"{:016x}\",\"wall_secs\":{:.4},\"events_per_sec\":{:.0},\"minor_faults\":{}}}",
        RATES.len(),
        requests,
        digest,
        best,
        requests as f64 / best.max(1e-9),
        faults
    );
}

fn main() {
    bench_windowed();
    bench_continuous();
    bench_multi_tenant();
    bench_materialize();
    bench_open();
    bench_generate();
}
