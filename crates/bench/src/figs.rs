//! Figure reports as strings.
//!
//! Each function renders one experiment's complete output — header,
//! tables, takeaways — so the `figures` binary only prints it and
//! `tests/golden.rs` locks it byte-for-byte against `golden/<name>.txt`.
//! [`crate::FIGURES`] names them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use e3::harness::{AutoRegStrategy, Experiment, HarnessOpts, ModelFamily, SystemKind};
use e3::{E3Config, E3System};
use e3_hardware::{ClusterSpec, ExitOverheads, GpuKind, LatencyModel, TransferModel};
use e3_model::{zoo, BatchProfile, EeModel, ExitPolicy, ExitSampler, InferenceSim, RampController};
use e3_optimizer::{
    min_cost_for_goodput, min_gpus_for_goodput, optimize_heterogeneous_with_stats, plan_feasible,
    run_ablations, OptimizerConfig, SearchStats, SplitPlan,
};
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::{EventLog, NullObserver};
use e3_runtime::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, KernelEvent, KvPlan, PreemptMode,
};
use e3_scenarios::ScenarioMatrix;
use e3_simcore::{SeedSplitter, SimDuration, SimTime};
use e3_tenancy::{
    ClusterAllocator, DemandProportional, MarginalGoodput, MultiTenantSystem, StaticEven,
    TenancyConfig, TenantSpec, SLO_FLOOR,
};
use e3_workload::{ArrivalProcess, BurstyTraceConfig, DatasetModel, Phase, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::exp::{experiment, goodput_sweep_report};
use crate::par::par_map;
use crate::{takeaway_line, Table, RUN_N, SEED};

/// Mean per-sample compute (model+ramp work only) and end-to-end latency
/// (including exit-check sync) in ms at batch 1, plus accuracy.
fn batch1_cost(model: &EeModel, dataset: &DatasetModel, seed: u64) -> (f64, f64, f64) {
    let policy = zoo::default_policy(model.name());
    let ctrl = RampController::all_enabled(model.num_ramps(), policy.ramp_style());
    let infer = InferenceSim::with_accuracy(dataset.base_accuracy);
    let sampler = ExitSampler::new(&infer, model, &policy, &ctrl);
    let lm = LatencyModel::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 5000;
    let mut compute_ms = 0.0;
    let mut latency_ms = 0.0;
    let mut correct = 0usize;
    for _ in 0..n {
        let h = dataset.sample_hardness(&mut rng);
        let out = sampler.sample(h, &mut rng);
        // Time the exact executed prefix at batch 1, ramps included.
        let mut c = 0.0;
        for k in 0..out.layers_executed {
            let l = model.layers()[k];
            c += lm
                .layer_time(l.work_us + l.fixed_us, 1.0, GpuKind::V100)
                .as_millis_f64();
        }
        let mut sync = 0.0;
        for ri in ctrl.paid_through(out.exited_at_ramp) {
            let r = model.ramps()[ri];
            c += lm
                .layer_time(r.work_us + r.fixed_us, 1.0, GpuKind::V100)
                .as_millis_f64();
            sync += lm.exit.reform_time(1.0).as_millis_f64();
        }
        compute_ms += c;
        latency_ms += c + sync;
        correct += usize::from(out.correct);
    }
    (
        compute_ms / n as f64,
        latency_ms / n as f64,
        correct as f64 / n as f64,
    )
}

/// Fig. 2 — early exits bring large compute/latency savings with mild
/// accuracy loss, including atop distilled models (batch size 1): BERT,
/// BERT-EE, DistilBERT and DistilBERT-EE on SST-2 and QNLI, accuracy and
/// average latency normalized to vanilla BERT.
pub(crate) fn fig02_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: early-exit savings at batch 1 (normalized to BERT)\n"
    );
    for dataset in [DatasetModel::sst2(), DatasetModel::qnli()] {
        let models = [
            zoo::bert_base(),
            zoo::deebert(), // = BERT-EE
            zoo::distilbert(),
            zoo::distilbert_ee(),
        ];
        let (bert_c, bert_l, _) = batch1_cost(&models[0], &dataset, SEED);
        let mut t = Table::new(
            format!(
                "{} (paper: BERT-EE ~57% latency, <2% acc. loss)",
                dataset.name()
            ),
            &["accuracy %", "compute %", "latency %"],
        );
        for m in &models {
            let (c, l, acc) = batch1_cost(m, &dataset, SEED);
            t.row_fmt(
                m.name(),
                &[acc * 100.0, c / bert_c * 100.0, l / bert_l * 100.0],
                1,
            );
        }
        out.push_str(&t.render());
        out.push_str(&takeaway_line("EE variants cut compute sharply with small accuracy loss (exit-check sync claws some latency back); gains persist on DistilBERT"));
    }
    out
}

/// Fig. 3 — samples exit DeeBERT early as a batch passes its ramps,
/// shrinking the batch and cutting GPU utilization.
pub(crate) fn fig03_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: DeeBERT batch shrinkage per ramp (input batch 8)\n"
    );
    let model = zoo::deebert();
    let policy = zoo::default_policy("DeeBERT");
    let ctrl = RampController::all_enabled(model.num_ramps(), policy.ramp_style());
    let lm = LatencyModel::new();

    let cols: Vec<String> = (1..=12).map(|r| format!("{r}")).collect();
    let mut batch_tbl = Table::new("expected batch size at ramp (of 8)", &cols);
    let mut util_tbl = Table::new("GPU occupancy at ramp (%, V100)", &cols);

    for dataset in [DatasetModel::qnli(), DatasetModel::sst2()] {
        let infer = InferenceSim::with_accuracy(dataset.base_accuracy);
        let mut rng = StdRng::seed_from_u64(SeedSplitter::new(SEED).derive(dataset.name()));
        let hs = dataset.sample_hardnesses(8000, &mut rng);
        let profile = infer.exit_profile(&model, &policy, &ctrl, &hs, &mut rng);
        let batches: Vec<f64> = (0..12).map(|k| profile.batch_at(k, 8.0)).collect();
        let utils: Vec<f64> = batches
            .iter()
            .map(|&b| lm.occupancy(b, GpuKind::V100) * 100.0)
            .collect();
        batch_tbl.row_fmt(dataset.name(), &batches, 1);
        util_tbl.row(dataset.name(), &utils);
    }
    out.push_str(&batch_tbl.render());
    out.push('\n');
    out.push_str(&util_tbl.render());
    out.push_str(&takeaway_line("~half the batch exits by mid-model, leaving late layers badly underutilized (paper: >25% utilization drop)"));
    out
}

/// Fig. 7 — NLP goodput vs batch size on 16 homogeneous V100s:
/// BERT-BASE vs DeeBERT vs E3.
pub(crate) fn fig07_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7: NLP goodput (samples/s), 16 x V100, SST-2-like workload\n"
    );
    let (rows, table) = goodput_sweep_report(
        "goodput vs batch size",
        &ModelFamily::nlp(),
        &ClusterSpec::paper_homogeneous_v100(),
        &[1, 2, 4, 8],
        &DatasetModel::sst2(),
        &HarnessOpts::default(),
        &[
            ("BERT-BASE", &[1632.0, 3088.0, 6025.0, 6484.0]),
            ("DeeBERT", &[2214.0, 3174.0, 5385.0, 5229.0]),
            ("E3", &[2186.0, 3504.0, 7132.0, 7550.0]),
        ],
    );
    out.push_str(&table);
    let e3_8 = rows[2].1[3];
    let dee_8 = rows[1].1[3];
    let bert_8 = rows[0].1[3];
    out.push_str(&takeaway_line(&format!(
        "at b=8: E3/DeeBERT = {:.2}x (paper 1.44x), E3/BERT = {:.2}x (paper 1.16x); DeeBERT beats BERT only at b=1",
        e3_8 / dee_8,
        e3_8 / bert_8
    )));
    out
}

/// Fig. 8 — vision goodput vs batch size on 16 V100s: ResNet50 vs
/// B-ResNet50 (BranchyNet) vs E3.
pub(crate) fn fig08_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: vision goodput (samples/s), 16 x V100, ImageNet-like workload\n"
    );
    let (rows, table) = goodput_sweep_report(
        "goodput vs batch size",
        &ModelFamily::vision(),
        &ClusterSpec::paper_homogeneous_v100(),
        &[1, 2, 4, 8, 16, 32],
        &DatasetModel::imagenet(),
        &HarnessOpts::default(),
        &[
            (
                "ResNet50",
                &[2888.0, 5654.0, 10998.0, 15970.0, 17521.0, 19315.0],
            ),
            (
                "B-ResNet50",
                &[5096.0, 8556.0, 14066.0, 22476.0, 18458.0, 19897.0],
            ),
            ("E3", &[4905.0, 9712.0, 16153.0, 26606.0, 28378.0, 33627.0]),
        ],
    );
    out.push_str(&table);
    out.push_str(&takeaway_line(&format!(
        "at b=32: E3/B-ResNet50 = {:.2}x (paper 1.69x); the EE baseline's advantage evaporates at large batches",
        rows[2].1[5] / rows[1].1[5]
    )));
    out
}

/// Fig. 9 — E3 complements compression: DistilBERT vs DistilBERT-EE vs
/// E3 (the paper develops DistilBERT-EE in house, §2.2). The paper runs
/// this on a smaller resource slice than fig. 7; two V100s match the
/// scale of its reported goodputs.
pub(crate) fn fig09_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9: compressed-model goodput (samples/s), 2 x V100\n"
    );
    let (rows, table) = goodput_sweep_report(
        "goodput vs batch size",
        &ModelFamily::compressed(),
        &ClusterSpec::homogeneous(GpuKind::V100, 2, 2),
        &[1, 2, 4, 8, 16, 32],
        &DatasetModel::sst2(),
        &HarnessOpts::default(),
        &[
            ("DistilBERT", &[405.0, 561.0, 708.0, 791.0, 867.0, 917.0]),
            (
                "DistilBERT-EE",
                &[446.0, 651.0, 813.0, 889.0, 1111.0, 918.0],
            ),
            ("E3", &[481.0, 733.0, 1021.0, 1243.0, 1426.0, 1530.0]),
        ],
    );
    out.push_str(&table);
    out.push_str(&takeaway_line(&format!(
        "at b=32: E3/DistilBERT = {:.2}x (paper 1.67x) — exits and distillation compose",
        rows[2].1[5] / rows[0].1[5]
    )));
    out
}

/// Largest batch whose worst-case latency fits the SLO budget, per the
/// optimizer's own feasibility rule (§3.2): formation + serial path +
/// pipeline occupancy <= SLO - slack.
fn max_batch_for_slo(exp: &Experiment, slo_ms: u64) -> usize {
    let slo = SimDuration::from_millis(slo_ms);
    let cfg = OptimizerConfig {
        slo,
        ..Default::default()
    };
    let mut best = 1usize;
    for b in [1usize, 2, 4, 8, 16, 32, 64] {
        let plan = exp
            .clone()
            .with_opts(HarnessOpts {
                slo,
                ..Default::default()
            })
            .plan(b);
        if plan_feasible(&plan, &cfg) {
            best = b;
        }
    }
    best
}

/// Fig. 24 — impact of the SLO: stricter SLOs cap the feasible batch
/// size; as the SLO loosens, batching opportunity (and E3's edge) grows.
pub(crate) fn fig24_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 24: goodput as the SLO (and thus max batch) varies, 16 x V100\n"
    );
    let mut exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    );
    let slos = [25u64, 50, 100, 250, 500, 1000];
    let cols: Vec<String> = slos.iter().map(|s| format!("{s}ms")).collect();
    let mut t = Table::new("goodput at the SLO-feasible batch size", &cols);
    let batches: Vec<usize> = slos.iter().map(|&s| max_batch_for_slo(&exp, s)).collect();
    t.row_str(
        "max feasible batch",
        &batches.iter().map(|b| format!("{b}")).collect::<Vec<_>>(),
    );
    for (name, kind) in exp.systems() {
        let gs: Vec<f64> = slos
            .iter()
            .zip(&batches)
            .map(|(&s, &b)| {
                exp.opts.slo = SimDuration::from_millis(s);
                exp.run(kind, b, &mut NullObserver).goodput()
            })
            .collect();
        t.row(name, &gs);
    }
    out.push_str(&t.render());
    out.push_str(&takeaway_line(
        "tight SLOs force small batches where DeeBERT is competitive; looser SLOs unlock batching and E3 pulls ahead (paper: up to +63% over DeeBERT)",
    ));
    out
}

/// Fig. 16 — workload adaptability: the easy:hard mix switches
/// 80:20 → 50:50 → 20:80 while the systems run; E3's online profiler and
/// optimizer re-plan each window.
pub(crate) fn fig16_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 16: adaptability to easy:hard mix shifts (16 x V100, b=8)\n"
    );
    let family = ModelFamily::nlp();
    let cluster = ClusterSpec::paper_homogeneous_v100();
    let mixes = [0.8, 0.5, 0.2];

    let mut t = Table::new(
        "goodput per workload mix (batch 8)",
        &["80E/20H", "50E/50H", "20E/80H"],
    );
    for (name, kind) in [
        ("BERT-BASE", SystemKind::Vanilla),
        ("DeeBERT", SystemKind::NaiveEe),
    ] {
        let gs: Vec<f64> = mixes
            .iter()
            .map(|&easy| {
                experiment(
                    family.clone(),
                    cluster.clone(),
                    DatasetModel::with_mix(easy),
                )
                .run(kind, 8, &mut NullObserver)
                .goodput()
            })
            .collect();
        t.row(name, &gs);
    }

    // E3 runs its real control loop: three windows per phase, switching
    // phases mid-run; report the settled (last) window of each phase.
    let sys = E3System::new(
        family.ee.clone(),
        family.policy,
        cluster,
        E3Config {
            seed: SEED,
            requests_per_window: RUN_N / 2,
            ..Default::default()
        },
    );
    let phases: Vec<DatasetModel> = mixes
        .iter()
        .flat_map(|&easy| vec![DatasetModel::with_mix(easy); 3])
        .collect();
    let report = sys.run_windows_observed(&phases, &[], &mut NullObserver);
    let e3: Vec<f64> = (0..3)
        .map(|p| report.windows[p * 3 + 2].run.goodput())
        .collect();
    t.row("E3 (adapted)", &e3);
    t.row("paper:BERT-BASE", &[6484.0, 6484.0, 6484.0]);
    t.row("paper:DeeBERT", &[6736.0, 4718.0, 4737.0]);
    t.row("paper:E3", &[9071.0, 6655.0, 4963.0]);
    out.push_str(&t.render());
    out.push_str(&takeaway_line(
        "E3 behaves like an EE system on easy mixes and converges toward the stock model as the workload hardens",
    ));
    let _ = writeln!(
        out,
        "per-window E3 goodput across the phase switches: {:?}",
        report
            .windows
            .iter()
            .map(|w| w.run.goodput().round())
            .collect::<Vec<_>>()
    );
    let _ = writeln!(
        out,
        "per-window prediction drift:                     {:?}",
        report
            .windows
            .iter()
            .map(|w| (w.drift * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    out
}

/// Fig. 17 — latency quartiles (min / p25 / median / p75 / max) under
/// SLO, homogeneous and heterogeneous clusters, 50:50 mix, batch 8.
/// E3's counter-intuitive result: despite split execution, it attains
/// the lowest min/median/quartiles — only hard inputs pay the full path,
/// which lands in the tail.
pub(crate) fn fig17_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 17: latency distribution (ms), 50E/50H mix, batch 8\n"
    );
    for (cluster_name, cluster) in [
        (
            "homogeneous (16 V100)",
            ClusterSpec::paper_homogeneous_v100(),
        ),
        (
            "heterogeneous (6 V100 + 8 P100 + 15 K80)",
            ClusterSpec::paper_heterogeneous(),
        ),
    ] {
        let exp = experiment(ModelFamily::nlp(), cluster, DatasetModel::with_mix(0.5));
        let mut t = Table::new(cluster_name, &["min", "p25", "median", "p75", "max"]);
        for (name, kind) in exp.systems() {
            let s = exp.run(kind, 8, &mut NullObserver).latency_summary_ms();
            t.row_fmt(name, &[s.min, s.p25, s.median, s.p75, s.max], 1);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(&takeaway_line(
        "E3 has the lowest min/quartiles/median (easy inputs exit early); its max stays within the SLO",
    ));
    out
}

/// Fig. 18 — generality to other EE architectures: PABEE (BERT-LARGE
/// with patience-counter ramps, a *dependent* ramp style) under E3.
pub(crate) fn fig18_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 18: PABEE (patience-based exits on BERT-LARGE), 16 x V100\n"
    );
    let (rows, table) = goodput_sweep_report(
        "goodput vs batch size",
        &ModelFamily::pabee(),
        &ClusterSpec::paper_homogeneous_v100(),
        &[1, 2, 4, 8],
        &DatasetModel::sst2(),
        &HarnessOpts::default(),
        &[
            ("BERT-LARGE", &[796.0, 1542.0, 1908.0, 2106.0]),
            ("PABEE", &[973.0, 1632.0, 1764.0, 1717.0]),
            ("E3", &[985.0, 1904.0, 2373.0, 2666.0]),
        ],
    );
    out.push_str(&table);
    out.push_str(&takeaway_line(&format!(
        "a counter-based (dependent-ramp) architecture: E3/PABEE at b=8 = {:.2}x (paper 1.55x)",
        rows[2].1[3] / rows[1].1[3]
    )));
    out
}

/// Fig. 19 — extremely bursty open-loop workload: Twitter-like arrivals
/// scaled to a 1,000 req/s mean, GPU utilization under 50%.
pub(crate) fn fig19_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 19: bursty open-loop serving (Twitter-like trace, 1000 req/s mean)\n"
    );
    // Few GPUs so the mean load is substantial but bursts overwhelm.
    let exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::homogeneous(GpuKind::V100, 4, 2),
        DatasetModel::sst2(),
    );
    let generator = WorkloadGenerator::new(
        ArrivalProcess::Bursty(BurstyTraceConfig::twitter_like(1000.0)),
        exp.dataset.clone(),
        SimDuration::from_secs(120),
    );

    let mut t = Table::new(
        "open-loop serving, batch 8",
        &["goodput/s", "drop %", "mean util %"],
    );
    let mut results = Vec::new();
    for (name, kind) in [
        ("BERT-BASE", SystemKind::Vanilla),
        ("DeeBERT", SystemKind::NaiveEe),
        ("E3", SystemKind::E3),
    ] {
        let r = exp.run_open(kind, 8, &generator, &mut NullObserver);
        t.row_fmt(
            name,
            &[
                r.goodput(),
                r.drop_rate() * 100.0,
                r.mean_effective_utilization() * 100.0,
            ],
            1,
        );
        results.push(r.goodput());
    }
    out.push_str(&t.render());
    out.push_str(&takeaway_line(&format!(
        "bursts + idle gaps limit batching: E3 still leads ({:+.0}% over DeeBERT, {:+.0}% over BERT; paper: +29% / +16%)",
        (results[2] / results[1] - 1.0) * 100.0,
        (results[2] / results[0] - 1.0) * 100.0
    )));
    out
}

/// Fig. 20 (table) — optimizer overhead: time for one full optimization
/// pass per model, homogeneous vs heterogeneous. The paper's Python
/// implementation takes 0.87–3.63 s; the shape that must hold is
/// heterogeneous > homogeneous and cost growing with layer count. This
/// report is the paper's reference table; the measured times are
/// [`fig20_wall_clock`], and `bench_optimizer` times planning with
/// repetitions into `BENCH_optimizer.json`.
pub(crate) fn fig20_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 20: optimizer overhead (ms per full pass; paper reports seconds on Python)\n"
    );
    let mut t = Table::new(
        "paper: optimizer wall time (s, Python)",
        &["homogeneous", "heterogeneous"],
    );
    t.row_fmt("paper:ResNet50 (s)", &[1.13, 2.62], 2);
    t.row_fmt("paper:BERT-BASE (s)", &[0.87, 2.09], 2);
    t.row_fmt("paper:BERT-LARGE (s)", &[1.53, 3.63], 2);
    out.push_str(&t.render());
    out
}

/// Wall-clock half of fig. 20: mean host time of five full optimization
/// passes per model and cluster.
pub(crate) fn fig20_wall_clock() -> String {
    use e3_optimizer::auto::plan_for_cluster;
    use std::time::Instant;

    let lm = LatencyModel::new();
    let tm = TransferModel::default();
    let cfg = OptimizerConfig::default();
    let homo = ClusterSpec::paper_homogeneous_v100();
    let hetero = ClusterSpec::paper_heterogeneous();
    let infer = InferenceSim::new();

    let mut t = Table::new(
        "optimizer wall time (ms)",
        &["homogeneous", "heterogeneous"],
    );
    for (label, model) in [
        ("ResNet50", zoo::branchy_resnet50()),
        ("BERT-BASE", zoo::deebert()),
        ("BERT-LARGE", zoo::pabee()),
    ] {
        let policy = zoo::default_policy(model.name());
        let ctrl = RampController::all_enabled(model.num_ramps(), policy.ramp_style());
        let mut rng = StdRng::seed_from_u64(SeedSplitter::new(SEED).derive(label));
        let hs = DatasetModel::sst2().sample_hardnesses(3000, &mut rng);
        let profile = infer.exit_profile(&model, &policy, &ctrl, &hs, &mut rng);
        let mut times = Vec::new();
        for cluster in [&homo, &hetero] {
            let reps = 5;
            let start = Instant::now();
            for _ in 0..reps {
                let plan = plan_for_cluster(&model, &ctrl, &profile, cluster, 8.0, &tm, &lm, &cfg);
                std::hint::black_box(plan);
            }
            times.push(start.elapsed().as_secs_f64() * 1000.0 / f64::from(reps));
        }
        t.row_fmt(label, &times, 2);
    }
    let mut out = t.render();
    out.push_str(&takeaway_line(
        "the optimizer is lightweight (well under the 2-minute window); heterogeneity costs extra, larger models cost more",
    ));
    out
}

/// Fig. 21 — the online batch-profile estimation closely matches
/// reality: predicted vs actual batch size at two cut points over 10
/// scheduling windows (input batch 8).
pub(crate) fn fig21_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 21: predicted vs actual batch size at two model cut points (b=8)\n"
    );
    let sys = E3System::new(
        zoo::deebert(),
        zoo::default_policy("DeeBERT"),
        ClusterSpec::paper_homogeneous_v100(),
        E3Config {
            seed: SEED,
            requests_per_window: 8000,
            ..Default::default()
        },
    );
    // A mildly drifting workload: the mix eases over time, so there is a
    // real signal to track.
    let phases: Vec<DatasetModel> = (0..12)
        .map(|w| DatasetModel::with_mix(0.6 + 0.02 * w as f64))
        .collect();
    let report = sys.run_windows_observed(&phases, &[], &mut NullObserver);

    // Cut points at one-third and two-thirds of the model.
    for cut in [4usize, 8] {
        let cols: Vec<String> = (1..=10).map(|w| format!("w{w}")).collect();
        let mut t = Table::new(format!("batch size at layer {cut} (of input 8)"), &cols);
        // Skip the two warm-up windows (cold start predicts no exits).
        let series = report.profile_series(cut);
        let predicted: Vec<f64> = series[2..12].iter().map(|(p, _)| p * 8.0).collect();
        let actual: Vec<f64> = series[2..12]
            .iter()
            .map(|(_, o)| o.map_or(f64::NAN, |v| v * 8.0))
            .collect();
        t.row_fmt("predicted", &predicted, 2);
        t.row_fmt("actual", &actual, 2);
        out.push_str(&t.render());
        let mape = e3_simcore::stats::mape(&predicted, &actual);
        let _ = writeln!(
            out,
            "  mean absolute percentage error: {:.1}%\n",
            mape * 100.0
        );
    }
    out.push_str(&takeaway_line(
        "after the two-window warm-up, predictions track reality closely (paper: close match)",
    ));
    out
}

/// Fig. 22 — misprediction sensitivity: goodput lost as the batch
/// profile the optimizer plans with is deliberately wrong by 0–100%.
/// Errors cost only magnitude, never correctness (§3.1): an error of
/// `e` makes the planner assume `(1-e)` of the true shrinkage. A second
/// section runs a live misprediction *burst* through the windowed
/// control loop with the drift watchdog armed, and reports the guard's
/// decisions next to the goodput delta it buys.
pub(crate) fn fig22_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 22: goodput under profile misprediction (16 x V100, SST-2-like)\n"
    );
    let mut exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    );
    // Negative error = the planner assumes MORE shrinkage than reality
    // (late stages under-provisioned); positive = less (conservative).
    let errors = [-1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0];
    let cols: Vec<String> = errors
        .iter()
        .map(|e: &f64| format!("{:+.0}%", e * 100.0))
        .collect();
    let mut t = Table::new("E3 goodput vs prediction error", &cols);
    for batch in [8usize, 16] {
        let gs: Vec<f64> = errors
            .iter()
            .map(|&e| {
                exp.opts.profile_error = e;
                exp.run(SystemKind::E3, batch, &mut NullObserver).goodput()
            })
            .collect();
        t.row(format!("input batch = {batch}"), &gs);
    }
    out.push_str(&t.render());
    out.push_str(&takeaway_line(
        "mild conservative errors cost little (paper: 4-8% at 20% error). The worst case is a mildly optimistic profile that commits to an under-provisioned multi-split plan; wildly wrong profiles degenerate to the robust single-split plan, and the control loop repairs either within a window",
    ));

    // Live mispredictions through the control loop: a full-severity
    // oscillating regime makes the lagged forecast persistently wrong;
    // the drift watchdog confirms the change and the canary guard keeps
    // stale plans off the traffic.
    let (_, naive) = reconfig_goodput(1.0, false);
    let (_, guarded) = reconfig_goodput(1.0, true);
    let mut t = Table::new(
        "misprediction burst through the control loop (8 flip windows)",
        &["naive", "guarded"],
    );
    t.row("goodput (samples/s)", &[naive.goodput(), guarded.goodput()]);
    t.row_fmt("mean drift", &[naive.mean_drift(), guarded.mean_drift()], 3);
    out.push_str(&t.render());
    let trigger = guarded
        .first_trigger_window()
        .map_or_else(|| "never".to_string(), |w| format!("window {w}"));
    out.push_str(&takeaway_line(&format!(
        "watchdog triggered at {trigger}, held safe mode for {} windows, rolled back {} stale plan(s), promoted {}: {:+.0}% goodput over naive re-planning",
        guarded.safe_mode_windows(),
        guarded.rollback_count(),
        guarded.promotion_count(),
        100.0 * (guarded.goodput() / naive.goodput() - 1.0),
    )));
    out
}

/// Fig. 23 — impact of error tolerance: sweeping DeeBERT's exit-entropy
/// threshold over {0.3, 0.4, 0.5}. Looser tolerance → earlier exits →
/// more E3 headroom (and more accuracy loss).
pub(crate) fn fig23_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 23: goodput vs exit-entropy tolerance (16 x V100, b in {{1,2,4,8}})\n"
    );
    let batches = [1usize, 2, 4, 8];
    for entropy in [0.3, 0.4, 0.5] {
        let mut family = ModelFamily::nlp();
        family.policy = ExitPolicy::Entropy { threshold: entropy };
        let exp = experiment(
            family,
            ClusterSpec::paper_homogeneous_v100(),
            DatasetModel::sst2(),
        );
        let cols: Vec<String> = batches.iter().map(|b| format!("b={b}")).collect();
        let mut t = Table::new(format!("entropy threshold {entropy}"), &cols);
        let mut acc_row = Vec::new();
        for (name, kind) in [
            ("BERT-BASE", SystemKind::Vanilla),
            ("DeeBERT", SystemKind::NaiveEe),
            ("E3", SystemKind::E3),
        ] {
            let mut gs = Vec::new();
            for &b in &batches {
                let r = exp.run(kind, b, &mut NullObserver);
                if kind == SystemKind::E3 {
                    acc_row.push(r.accuracy() * 100.0);
                }
                gs.push(r.goodput());
            }
            t.row(name, &gs);
        }
        t.row_fmt("E3 accuracy %", &acc_row, 1);
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(&takeaway_line(
        "higher tolerated entropy shifts exits earlier: E3's goodput grows (paper: up to +43% over DeeBERT at 0.5) while accuracy dips",
    ));
    out
}

/// Fig. 25 — relaxing E3's assumptions: granting E3 the exit-wrapper
/// (§3.4) lets it disable ramps that are not useful, avoiding their
/// checking overheads (paper: 7–16% goodput improvement).
pub(crate) fn fig25_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 25: goodput improvement from the exit-wrapper (16 x V100)\n"
    );
    let exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    );
    let batches = [1usize, 2, 4, 8];
    let cols: Vec<String> = batches.iter().map(|b| format!("b={b}")).collect();
    let mut t = Table::new("E3 goodput with and without the wrapper", &cols);
    let run = |use_wrapper: bool, b: usize| {
        exp.clone()
            .with_opts(HarnessOpts {
                use_wrapper,
                ..Default::default()
            })
            .run(SystemKind::E3, b, &mut NullObserver)
            .goodput()
    };
    let without: Vec<f64> = batches.iter().map(|&b| run(false, b)).collect();
    let with: Vec<f64> = batches.iter().map(|&b| run(true, b)).collect();
    let gain: Vec<f64> = with
        .iter()
        .zip(&without)
        .map(|(w, o)| (w / o - 1.0) * 100.0)
        .collect();
    t.row("wrapper off", &without);
    t.row("wrapper on", &with);
    t.row_fmt("improvement %", &gain, 1);
    t.row_fmt("paper improvement %", &[6.99, 10.87, 13.99, 16.0], 2);
    out.push_str(&t.render());
    let lo = gain.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = gain.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let peak = batches[gain
        .iter()
        .position(|&g| g == hi)
        .expect("gain row non-empty")];
    let negatives = if lo < 0.0 {
        "some negative"
    } else {
        "none negative"
    };
    out.push_str(&takeaway_line(&format!(
        "disabling not-useful ramps saves checking overhead: gains {lo:.1}% to {hi:.1}% ({negatives}), peaking at b={peak}"
    )));
    out
}

/// Fig. 26 — impact of model parallelism: with it OFF, E3's splits run
/// serially on the same data-parallel GPUs (eq. 1); with it ON, splits
/// pipeline across GPUs (§3.2.1–2).
pub(crate) fn fig26_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 26: model parallelism ON vs OFF (16 x V100)\n");
    let mut exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    );
    let batches = [2usize, 4, 8];
    let cols: Vec<String> = batches.iter().map(|b| format!("b={b}")).collect();
    let mut t = Table::new("goodput by mode", &cols);

    for (label, pipelining) in [("MP OFF", false), ("MP ON", true)] {
        exp.opts.pipelining = pipelining;
        for (name, kind) in exp.systems() {
            let gs: Vec<f64> = batches
                .iter()
                .map(|&b| exp.run(kind, b, &mut NullObserver).goodput())
                .collect();
            t.row(format!("{label:6} {name}"), &gs);
        }
    }
    t.row("paper E3 (MP OFF)", &[3230.0, 3504.0, 6593.0]);
    t.row("paper E3 (MP ON)", &[6821.0, 7550.0, 8147.0]);
    out.push_str(&t.render());
    out.push_str(&takeaway_line(
        "baselines are unaffected by the knob; E3 needs cross-GPU split execution to realize its full gains",
    ));
    out
}

/// The stock/EE pair and default exit policy of one §6 EE architecture.
fn architecture_family(name: &str) -> ModelFamily {
    let (stock, ee) = match name {
        "DeeBERT" => (zoo::bert_base(), zoo::deebert()),
        "FastBERT" => (zoo::bert_base(), zoo::fastbert()),
        "BERxiT" => (zoo::bert_base(), zoo::berxit()),
        "ELBERT" => (zoo::albert(), zoo::elbert()),
        "PABEE" => (zoo::bert_large(), zoo::pabee()),
        other => panic!("unknown architecture {other}"),
    };
    ModelFamily {
        stock,
        policy: zoo::default_policy(ee.name()),
        ee,
        overheads: ExitOverheads::default(),
    }
}

/// Extension of §5.6: E3 across *five* EE architectures with genuinely
/// different exit dynamics — entropy (DeeBERT), self-distilled
/// confidence (FastBERT), learned gates (BERxiT), confidence-window
/// voting (ELBERT), and patience counters (PABEE). The paper shows one
/// extra architecture (PABEE, fig. 18); this sweeps the whole taxonomy
/// of its §6 to stress E3's black-box claim: only batch sizes at ramps
/// matter.
pub(crate) fn generality_policies_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Generality: E3 across five EE architectures (16 x V100, SST-2-like, b=8)\n"
    );
    let mut t = Table::new(
        "goodput by architecture (batch 8)",
        &["stock", "naive EE", "E3", "E3/naive"],
    );
    let mut worst = f64::INFINITY;
    for name in ["DeeBERT", "FastBERT", "BERxiT", "ELBERT", "PABEE"] {
        let exp = experiment(
            architecture_family(name),
            ClusterSpec::paper_homogeneous_v100(),
            DatasetModel::sst2(),
        );
        let goodput = |kind| exp.run(kind, 8, &mut NullObserver).goodput();
        let stock = goodput(SystemKind::Vanilla);
        let naive = goodput(SystemKind::NaiveEe);
        let e3 = goodput(SystemKind::E3);
        worst = worst.min(e3 / naive);
        t.row_fmt(name, &[stock, naive, e3, e3 / naive], 2);
    }
    out.push_str(&t.render());
    out.push_str(&takeaway_line(&format!(
        "E3 never inspects the exit rule, yet wins on every architecture (worst case {worst:.2}x over naive EE)"
    )));
    out
}

/// Optimizer design-choice ablations (the studies DESIGN.md commits to):
/// pipelined vs serial objective, surviving-batch transfer accounting,
/// the stage realization penalty, and the fusion-wait policy — each
/// evaluated by predicted *and* realized goodput.
pub(crate) fn ablations_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Optimizer design-choice ablations (DeeBERT, 16 x V100, b=8)\n"
    );
    let model = zoo::deebert();
    let policy = zoo::default_policy("DeeBERT");
    let ctrl = RampController::all_enabled(model.num_ramps(), policy.ramp_style());
    let infer = InferenceSim::new();
    let mut rng = StdRng::seed_from_u64(SeedSplitter::new(SEED).derive("ablation"));
    let hs = DatasetModel::sst2().sample_hardnesses(5000, &mut rng);
    let profile = infer.exit_profile(&model, &policy, &ctrl, &hs, &mut rng);

    let mut t = Table::new(
        "predicted goodput, design choice vs alternative",
        &["with", "without", "gain"],
    );
    let results = run_ablations(
        &model,
        &ctrl,
        &profile,
        GpuKind::V100,
        16,
        8.0,
        &LatencyModel::new(),
        &OptimizerConfig::default(),
    );
    for r in &results {
        t.row_fmt(
            r.name,
            &[r.with_choice.goodput, r.without_choice.goodput, r.gain()],
            2,
        );
    }
    out.push_str(&t.render());
    out.push('\n');

    // Realized ablation: the stage realization penalty, measured in the
    // actual serving simulator rather than by the DP's own estimate.
    let mut t2 = Table::new(
        "realized goodput: stage penalty on vs off (per seed)",
        &["penalty on", "penalty off", "splits on/off"],
    );
    for seed in [SEED, SEED + 1, SEED + 2] {
        let on = experiment(
            ModelFamily::nlp(),
            ClusterSpec::paper_homogeneous_v100(),
            DatasetModel::sst2(),
        )
        .with_seed(seed);
        let off = on.clone().with_opts(HarnessOpts {
            stage_overhead_frac: 0.0,
            ..Default::default()
        });
        let plan_on = on.plan(8);
        let plan_off = off.plan(8);
        let on = on.run(SystemKind::E3, 8, &mut NullObserver).goodput();
        let off = off.run(SystemKind::E3, 8, &mut NullObserver).goodput();
        t2.row_str(
            format!("seed {seed}"),
            &[
                format!("{on:.0}"),
                format!("{off:.0}"),
                format!("{}/{}", plan_on.num_splits(), plan_off.num_splits()),
            ],
        );
    }
    out.push_str(&t2.render());
    out.push_str(&takeaway_line("pipelining is the load-bearing choice; transfer realism decides whether splits happen at all"));
    out
}

/// Staggered unrecovered crashes: replica `i` dies at 300 + 100·i ms.
fn crash_plan(crashes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 0..crashes {
        plan = plan.crash(i, SimTime::from_millis(300 + 100 * i as u64));
    }
    plan
}

/// Degradation study — serving under injected faults (§3.3's robustness
/// claim, demonstrated): goodput/SLO-violation curves as replicas crash,
/// and relative-slowdown straggler detection against none under
/// injected slowdowns.
pub(crate) fn fig_degradation_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Degradation: goodput under injected faults, 8 x V100, DeeBERT workload\n"
    );
    let n = 10_000;

    // Sweep 1: replica crashes (no recovery). Surviving replicas absorb
    // the queue; goodput degrades roughly with lost capacity, not to zero.
    let crash_counts = [0usize, 1, 2, 4];
    let cols: Vec<String> = crash_counts.iter().map(|c| format!("{c} crash")).collect();
    let mut t = Table::new("crash sweep (NaiveEe, b=8)", &cols);
    let mut goodputs = Vec::new();
    let mut avail = Vec::new();
    let mut violations = Vec::new();
    for &c in &crash_counts {
        let r = experiment(
            ModelFamily::nlp(),
            ClusterSpec::homogeneous(GpuKind::V100, 8, 2),
            DatasetModel::sst2(),
        )
        .with_opts(HarnessOpts {
            fault_plan: crash_plan(c),
            ..Default::default()
        })
        .with_n(n)
        .run(SystemKind::NaiveEe, 8, &mut NullObserver);
        goodputs.push(r.goodput());
        avail.push(r.mean_availability() * 100.0);
        violations.push((1.0 - r.within_slo as f64 / r.completed.max(1) as f64) * 100.0);
    }
    t.row("goodput (samples/s)", &goodputs);
    t.row_fmt("mean availability (%)", &avail, 1);
    t.row_fmt("SLO violations (%)", &violations, 1);
    out.push_str(&t.render());
    out.push_str(&takeaway_line(&format!(
        "4 of 8 replicas lost keeps {:.0}% of fault-free goodput: survivors absorb the queue",
        100.0 * goodputs[3] / goodputs[0]
    )));

    // Sweep 2: one replica slowed for the rest of the run — straggler
    // detection vs none, under open-loop arrivals at ~70% of fault-free
    // capacity. Routing is shortest-queue with lowest-id tie-break, so
    // without detection a steady trickle of batches still lands on the
    // straggler and blows the SLO; RelativeSlowdown (threshold 1.8x)
    // excludes it after warmup and the seven survivors have headroom.
    let factors = [1.5f64, 2.5, 4.0, 8.0];
    let cols: Vec<String> = factors.iter().map(|f| format!("{f}x")).collect();
    let mut t = Table::new(
        "slowdown sweep (NaiveEe, b=8, open loop 2000 req/s, replica 0 slowed)",
        &cols,
    );
    let exp = experiment(
        ModelFamily::nlp(),
        ClusterSpec::homogeneous(GpuKind::V100, 8, 2),
        DatasetModel::sst2(),
    );
    let generator = WorkloadGenerator::new(
        ArrivalProcess::Poisson { rate: 2000.0 },
        DatasetModel::sst2(),
        SimDuration::from_secs(5),
    );
    let mut rows: Vec<(&str, bool, Vec<f64>)> = vec![
        ("NoStragglerDetection", false, Vec::new()),
        ("RelativeSlowdown", true, Vec::new()),
    ];
    for (_, detect, gs) in rows.iter_mut() {
        for &f in &factors {
            let plan = FaultPlan::new().slowdown(
                0,
                f,
                SimTime::from_millis(200),
                SimTime::from_secs(3600),
            );
            let r = exp
                .clone()
                .with_opts(HarnessOpts {
                    fault_plan: plan,
                    detect_stragglers: *detect,
                    ..Default::default()
                })
                .run_open(SystemKind::NaiveEe, 8, &generator, &mut NullObserver);
            gs.push(r.goodput());
        }
    }
    for (name, _, gs) in &rows {
        t.row(*name, gs);
    }
    out.push_str(&t.render());
    let no = &rows[0].2;
    let rel = &rows[1].2;
    out.push_str(&takeaway_line(&format!(
        "above the 1.8x exclusion threshold RelativeSlowdown wins: {:.2}x goodput at 4x, {:.2}x at 8x (sub-threshold 1.5x is a wash by design)",
        rel[2] / no[2],
        rel[3] / no[3]
    )));
    out
}

/// The misprediction-burst workload behind the reconfiguration study:
/// `settle` easy windows for the estimator to converge on, then `burst`
/// windows flipping between a hard and an easy regime every window, with
/// `severity` controlling how far apart the two regimes sit (0 = no
/// flip, 1 = full swing). The one-window-lagged forecast is wrong by
/// roughly `severity` for the whole burst.
pub(crate) fn oscillating_phases(settle: usize, burst: usize, severity: f64) -> Vec<DatasetModel> {
    let easy = 0.8;
    let mut phases = vec![DatasetModel::with_mix(easy); settle];
    for i in 0..burst {
        let mix = if i % 2 == 0 {
            easy - severity * 0.65
        } else {
            easy + severity * 0.05
        };
        phases.push(DatasetModel::with_mix(mix));
    }
    phases
}

/// One guarded-vs-naive measurement point: aggregate goodput over a
/// misprediction burst of the given severity, with the watchdog and
/// canary/rollback machinery on or off.
fn reconfig_goodput(severity: f64, guarded: bool) -> (f64, e3::E3Report) {
    let cfg = E3Config {
        seed: 7,
        requests_per_window: 4000,
        guarded,
        ..Default::default()
    };
    let sys = E3System::new(
        zoo::deebert(),
        zoo::default_policy("DeeBERT"),
        ClusterSpec::paper_homogeneous_v100(),
        cfg,
    );
    let report =
        sys.run_windows_observed(&oscillating_phases(3, 8, severity), &[], &mut NullObserver);
    (report.goodput(), report)
}

/// Reconfiguration study — guarded plan transitions vs naive instant
/// re-planning across a sweep of misprediction-burst severities: the
/// drift watchdog confirms the regime change and plans conservatively,
/// and the probe/canary comparison rolls back candidate plans built from
/// stale forecasts before they can take a window.
pub(crate) fn fig_reconfig_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Reconfiguration: guarded vs naive re-planning under misprediction bursts, 16 x V100\n"
    );
    let severities = [0.0f64, 0.25, 0.5, 0.75, 1.0];
    let cols: Vec<String> = severities.iter().map(|s| format!("sev={s:.2}")).collect();

    // Each severity point is two full control-loop runs (naive and
    // guarded), independent of its neighbours — parallel, index-merged.
    let sweep = par_map(severities.to_vec(), |_, sev| {
        let (gn, _) = reconfig_goodput(sev, false);
        let (gg, rep) = reconfig_goodput(sev, true);
        (gn, gg, rep)
    });
    let mut naive = Vec::new();
    let mut guarded = Vec::new();
    let mut ratio = Vec::new();
    let mut rollbacks = Vec::new();
    let mut promotions = Vec::new();
    let mut safe_windows = Vec::new();
    let mut triggers: Vec<String> = Vec::new();
    for (gn, gg, rep) in sweep {
        naive.push(gn);
        guarded.push(gg);
        ratio.push(gg / gn);
        rollbacks.push(rep.rollback_count() as f64);
        promotions.push(rep.promotion_count() as f64);
        safe_windows.push(rep.safe_mode_windows() as f64);
        triggers.push(
            rep.first_trigger_window()
                .map_or_else(|| "-".to_string(), |w| format!("w{w}")),
        );
    }

    let mut t = Table::new("goodput over an 8-window burst (samples/s)", &cols);
    t.row("naive instant swap", &naive);
    t.row("guarded (watchdog+canary)", &guarded);
    t.row_fmt("guarded / naive", &ratio, 2);
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new("watchdog decisions (guarded run)", &cols);
    t.row_str("trigger window", &triggers);
    t.row("safe-mode windows", &safe_windows);
    t.row("rollbacks", &rollbacks);
    t.row("promotions", &promotions);
    out.push_str(&t.render());

    let best = ratio.iter().cloned().fold(0.0f64, f64::max);
    out.push_str(&takeaway_line(&format!(
        "guarding costs {:.0}% when forecasts are fine (the canary's insurance premium at sev 0) and wins up to {best:.2}x under severe bursts: rollbacks keep stale plans off the traffic, and confirmed drift flips planning to the conservative safe-mode profile",
        100.0 * (1.0 - ratio[0]),
    )));
    out
}

/// A tenant roster for the multi-tenant study: `n` NLP tenants sharing
/// one cluster, with out-of-phase hardness bursts (even tenants go
/// easy→hard mid-horizon, odd tenants hard→easy). Under `skewed` demand
/// tenant 0 offers 5/8 of the cluster-wide load and the rest split the
/// remainder; otherwise load is uniform.
fn multitenant_roster(n: usize, skewed: bool, cfg: &TenancyConfig) -> Vec<TenantSpec> {
    let horizon = cfg.window * cfg.windows as u64;
    let total_per_window = 8000.0;
    (0..n)
        .map(|i| {
            let frac = if skewed {
                if i == 0 {
                    0.625
                } else {
                    0.375 / (n - 1) as f64
                }
            } else {
                1.0 / n as f64
            };
            let (first, second) = if i % 2 == 0 { (0.8, 0.35) } else { (0.35, 0.8) };
            let phases = vec![
                Phase {
                    dataset: DatasetModel::with_mix(first),
                    duration: horizon / 2,
                },
                Phase {
                    dataset: DatasetModel::with_mix(second),
                    duration: horizon / 2,
                },
            ];
            TenantSpec::nlp(&format!("tenant{i}"), phases)
                .with_demand((total_per_window * frac).round() as usize)
        })
        .collect()
}

/// Multi-tenant study — joint GPU allocation across concurrent EE-DNN
/// tenants on the paper's heterogeneous cluster: tenant count × demand
/// skew × allocator, reporting cluster-wide goodput over the shared
/// horizon, Jain fairness of per-tenant goodputs, and the worst
/// per-tenant SLO attainment against the configured floor.
pub(crate) fn fig_multitenant_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Multi-tenant: joint GPU allocation across concurrent EE-DNNs, 6xV100+8xP100+15xK80\n"
    );
    let cfg = TenancyConfig {
        windows: 4,
        realloc_every: 2,
        profile_samples: 1500,
        seed: SEED,
        ..Default::default()
    };
    let cluster = ClusterSpec::paper_heterogeneous();
    let marginal = MarginalGoodput::default();
    let allocators: [&dyn ClusterAllocator; 3] = [&StaticEven, &DemandProportional, &marginal];

    // (MarginalGoodput aggregate, StaticEven aggregate) per skewed scenario.
    let mut skew_gains: Vec<(f64, f64)> = Vec::new();
    let mut floor_ok = true;
    for (tenants_n, skewed) in [(2, false), (2, true), (4, false), (4, true)] {
        let label = format!(
            "{tenants_n} tenants, {} demand (goodput over shared horizon)",
            if skewed { "5/8-skewed" } else { "uniform" }
        );
        let mut t = Table::new(
            label,
            &["agg goodput/s", "jain", "min attain %", "GPUs/tenant"],
        );
        let mut per_alloc = Vec::new();
        for alloc in allocators {
            let sys = MultiTenantSystem::new(
                multitenant_roster(tenants_n, skewed, &cfg),
                cluster.clone(),
                cfg,
            );
            let r = sys.run(alloc);
            let grants: Vec<String> = (0..tenants_n)
                .map(|i| {
                    r.allocations
                        .last()
                        .map(|a| a.shares[i].values().sum::<usize>())
                        .unwrap_or(0)
                        .to_string()
                })
                .collect();
            t.row_str(
                alloc.name(),
                &[
                    format!("{:.0}", r.aggregate_goodput()),
                    format!("{:.3}", r.jain()),
                    format!("{:.1}", r.min_attainment() * 100.0),
                    grants.join("/"),
                ],
            );
            floor_ok &= r.floor_held();
            per_alloc.push(r.aggregate_goodput());
        }
        if skewed {
            skew_gains.push((per_alloc[2], per_alloc[0]));
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    let gain = skew_gains
        .iter()
        .map(|(m, s)| m / s)
        .fold(f64::NEG_INFINITY, f64::max);
    out.push_str(&takeaway_line(&format!(
        "under skewed demand MarginalGoodput's water-filling beats the even split by up to {:.2}x aggregate goodput while every tenant {} the {:.0}% SLO-attainment floor",
        gain,
        if floor_ok { "clears" } else { "MISSES" },
        SLO_FLOOR * 100.0,
    )));
    out
}

/// Fig. 13 — heterogeneous resources. The paper fixes the dollar cost
/// ($0.013/s) and lets each system use whichever equal-cost cluster —
/// 16 V100 or 6 V100 + 8 P100 + 15 K80 — maximizes its goodput. Only E3
/// can actually exploit the mix.
pub(crate) fn fig13_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 13: NLP goodput at fixed cost ($0.013/s), best of 16 V100 vs 6 V100 + 8 P100 + 15 K80\n"
    );
    let homo = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_homogeneous_v100(),
        DatasetModel::sst2(),
    );
    let hetero = experiment(
        ModelFamily::nlp(),
        ClusterSpec::paper_heterogeneous(),
        DatasetModel::sst2(),
    );
    let batches = [1usize, 2, 4, 8];
    let cols: Vec<String> = batches.iter().map(|b| format!("b={b}")).collect();
    let mut t = Table::new("goodput vs batch size (fixed cost)", &cols);
    let mut results = Vec::new();
    for (name, kind) in homo.systems() {
        let gs: Vec<f64> = batches
            .iter()
            .map(|&b| {
                let homo = homo.run(kind, b, &mut NullObserver).goodput();
                homo.max(hetero.run(kind, b, &mut NullObserver).goodput())
            })
            .collect();
        t.row(name, &gs);
        results.push(gs);
    }
    t.row("paper:BERT-BASE", &[2280.0, 2941.0, 3913.0, 4886.0]);
    t.row("paper:DeeBERT", &[2892.0, 3897.0, 4629.0, 4783.0]);
    t.row("paper:E3", &[2886.0, 4530.0, 7617.0, 8138.0]);
    out.push_str(&t.render());
    out.push_str(&takeaway_line(&format!(
        "with heterogeneity available E3 leads at every batch size (b=8: {:.2}x over BERT; paper 1.67x)",
        results[2][3] / results[0][3]
    )));
    out
}

/// Batch sizes of the fixed-goodput figures (14 and 15).
const FIXED_GOODPUT_BATCHES: [usize; 4] = [1, 2, 4, 8];

/// What figs. 14 and 15 share: NLP on SST-2, the EE profile measured
/// under the figure's derived seed, and per batch size the V100s that
/// BERT-BASE and naively served DeeBERT need to sustain the target.
struct FixedGoodput {
    family: ModelFamily,
    ee_ctrl: RampController,
    profile: BatchProfile,
    tm: TransferModel,
    lm: LatencyModel,
    cfg: OptimizerConfig,
    /// BERT-BASE V100 count per batch size (NaN when 64 do not suffice).
    bert: Vec<f64>,
    /// DeeBERT V100 count per batch size.
    dee: Vec<f64>,
}

fn fixed_goodput(label: &str, target: f64) -> FixedGoodput {
    let family = ModelFamily::nlp();
    let ds = DatasetModel::sst2();
    let infer = InferenceSim::with_accuracy(ds.base_accuracy);
    let lm = LatencyModel::new();
    let tm = TransferModel::default();
    let cfg = OptimizerConfig::default();
    let ee_ctrl = RampController::all_enabled(family.ee.num_ramps(), family.policy.ramp_style());
    let stock_ctrl = RampController::all_enabled(0, family.policy.ramp_style());
    let mut rng = StdRng::seed_from_u64(SeedSplitter::new(SEED).derive(label));
    let hs = ds.sample_hardnesses(5000, &mut rng);
    let profile = infer.exit_profile(&family.ee, &family.policy, &ee_ctrl, &hs, &mut rng);
    let flat = BatchProfile::no_exits(family.stock.num_layers());

    // BERT-BASE: stock model, flat profile.
    let bert = FIXED_GOODPUT_BATCHES
        .iter()
        .map(|&b| {
            min_gpus_for_goodput(
                &family.stock,
                &stock_ctrl,
                &flat,
                GpuKind::V100,
                64,
                b as f64,
                target,
                &tm,
                &lm,
                &cfg,
            )
            .map_or(f64::NAN, |(n, _)| n as f64)
        })
        .collect();
    // DeeBERT: served naively — data-parallel with shrinkage; its per-GPU
    // goodput is the serial single-split rate with in-place exits, scaled
    // ~0.8 for per-ramp sync overheads not in the optimizer's
    // deferred-exit model.
    let dee = FIXED_GOODPUT_BATCHES
        .iter()
        .map(|&b| {
            let per_gpu = optimize_heterogeneous_with_stats(
                &family.ee,
                &ee_ctrl,
                &profile,
                &BTreeMap::from([(GpuKind::V100, 1)]),
                b as f64,
                &tm,
                &lm,
                &OptimizerConfig {
                    pipelining: false,
                    max_splits: 1,
                    ..cfg
                },
            )
            .0
            .goodput;
            (target / (per_gpu * 0.8)).ceil()
        })
        .collect();
    FixedGoodput {
        family,
        ee_ctrl,
        profile,
        tm,
        lm,
        cfg,
        bert,
        dee,
    }
}

/// Fig. 14 — resources for a fixed goodput: the number of V100s each
/// system needs to sustain 6,000 samples/s.
pub(crate) fn fig14_report() -> String {
    const TARGET: f64 = 6000.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 14: V100s needed to sustain {TARGET} samples/s\n"
    );
    let fg = fixed_goodput("fig14", TARGET);
    // E3: full DP.
    let e3: Vec<f64> = FIXED_GOODPUT_BATCHES
        .iter()
        .map(|&b| {
            min_gpus_for_goodput(
                &fg.family.ee,
                &fg.ee_ctrl,
                &fg.profile,
                GpuKind::V100,
                64,
                b as f64,
                TARGET,
                &fg.tm,
                &fg.lm,
                &fg.cfg,
            )
            .map_or(f64::NAN, |(n, _)| n as f64)
        })
        .collect();
    let cols: Vec<String> = FIXED_GOODPUT_BATCHES
        .iter()
        .map(|b| format!("b={b}"))
        .collect();
    let mut t = Table::new("GPUs needed (V100, homogeneous)", &cols);
    t.row("BERT-BASE", &fg.bert);
    t.row("DeeBERT", &fg.dee);
    t.row("E3", &e3);
    t.row("paper:BERT-BASE", &[42.0, 25.0, 17.0, 14.0]);
    t.row("paper:DeeBERT", &[33.0, 25.0, 20.0, 20.0]);
    t.row("paper:E3", &[33.0, 21.0, 16.0, 13.0]);
    out.push_str(&t.render());
    out.push_str(&takeaway_line(
        "E3 always needs the fewest GPUs; DeeBERT needs more than BERT once batching helps",
    ));
    out
}

/// Fig. 15 — dollar cost per minute to sustain 6,000 samples/s on the
/// heterogeneous pool (E3 picks the cheapest GPU mix).
pub(crate) fn fig15_report() -> String {
    const TARGET: f64 = 6000.0;
    // A generous heterogeneous pool to allocate from.
    let pool = BTreeMap::from([(GpuKind::V100, 48), (GpuKind::P100, 48), (GpuKind::K80, 64)]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 15: $/min to sustain {TARGET} samples/s (heterogeneous pool)\n"
    );
    // Baselines buy homogeneous V100s (the paper notes non-EE models are
    // always best on the most capable GPUs).
    let fg = fixed_goodput("fig15", TARGET);
    let v100_per_min = |gpus: &[f64]| -> Vec<f64> {
        gpus.iter()
            .map(|n| n * GpuKind::V100.cost_per_sec() * 60.0)
            .collect()
    };
    let e3: Vec<f64> = FIXED_GOODPUT_BATCHES
        .iter()
        .map(|&b| {
            min_cost_for_goodput(
                &fg.family.ee,
                &fg.ee_ctrl,
                &fg.profile,
                &pool,
                b as f64,
                TARGET,
                &fg.tm,
                &fg.lm,
                &fg.cfg,
            )
            .map_or(f64::NAN, |p| p.cost_per_sec() * 60.0)
        })
        .collect();
    let bert = v100_per_min(&fg.bert);
    let cols: Vec<String> = FIXED_GOODPUT_BATCHES
        .iter()
        .map(|b| format!("b={b}"))
        .collect();
    let mut t = Table::new("cost ($/min) for fixed goodput", &cols);
    t.row_fmt("BERT-BASE", &bert, 2);
    t.row_fmt("DeeBERT", &v100_per_min(&fg.dee), 2);
    t.row_fmt("E3", &e3, 2);
    t.row_fmt("paper:BERT-BASE", &[2.17, 1.29, 0.88, 0.73], 2);
    t.row_fmt("paper:DeeBERT", &[1.70, 1.29, 1.03, 1.03], 2);
    t.row_fmt("paper:E3", &[1.70, 1.09, 0.83, 0.67], 2);
    out.push_str(&t.render());
    let saving = (1.0 - e3[3] / bert[3]) * 100.0;
    out.push_str(&takeaway_line(&format!(
        "E3 sustains the target at the lowest cost at every batch size ({saving:.0}% below BERT at b=8; paper reports 35-78% savings)"
    )));
    out
}

/// Shared shape of the autoregressive figures: a batch-size sweep over
/// three strategies, rendered with the paper's reference rows.
#[allow(clippy::type_complexity)]
fn autoreg_sweep(
    exp: &Experiment,
    systems: &[(&str, AutoRegStrategy, &RampController)],
    batches: &[usize],
    paper_rows: &[(&str, &[f64])],
) -> (Vec<Vec<f64>>, String) {
    let cols: Vec<String> = batches.iter().map(|b| format!("b={b}")).collect();
    let mut t = Table::new("goodput vs batch size", &cols);
    // Independent (strategy, batch) points; parallel with index merge.
    let points: Vec<(AutoRegStrategy, &RampController, usize)> = systems
        .iter()
        .flat_map(|(_, strat, ctrl)| batches.iter().map(|&b| (*strat, *ctrl, b)))
        .collect();
    let goodputs = par_map(points, |_, (strat, ctrl, b)| {
        exp.run_autoreg(strat, ctrl, b).goodput
    });
    let mut rows = Vec::new();
    for (i, (name, _, _)) in systems.iter().enumerate() {
        let gs = goodputs[i * batches.len()..(i + 1) * batches.len()].to_vec();
        t.row(*name, &gs);
        rows.push(gs);
    }
    for (label, vals) in paper_rows {
        t.row(format!("paper:{label}"), vals);
    }
    (rows, t.render())
}

/// Fig. 10 — autoregressive LLM translation (WMT) on 4 A6000s:
/// T5 vs CALM vs E3, served as continuous batching on the kernel.
pub(crate) fn fig10_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10: translation goodput (samples/s), T5/CALM/E3, 4 x A6000, WMT\n"
    );
    let fam = ModelFamily::llm_t5();
    let exp = experiment(
        fam.clone(),
        ClusterSpec::paper_llm_cluster(),
        DatasetModel::wmt(),
    )
    .with_n(600);
    let ctrl0 = RampController::all_enabled(0, fam.policy.ramp_style());
    let ctrl = RampController::all_enabled(fam.ee.num_ramps(), fam.policy.ramp_style());
    let boundary = exp.pick_autoreg_boundary(0.5);
    let _ = writeln!(
        out,
        "E3 splits the decoder at layer {} (decoder layer {}) where token survival falls to 50%\n",
        boundary,
        boundary - fam.ee.autoreg().expect("autoreg").encoder_layers
    );
    let (rows, table) = autoreg_sweep(
        &exp,
        &[
            ("T5", AutoRegStrategy::VanillaStatic, &ctrl0),
            ("CALM", AutoRegStrategy::NaiveEeSequential, &ctrl),
            ("E3", AutoRegStrategy::E3 { boundary }, &ctrl),
        ],
        &[1, 2, 4, 8, 16, 32],
        &[
            ("T5", &[33.0, 61.0, 75.0, 125.0, 209.0, 341.0]),
            ("CALM", &[94.0, 96.0, 103.0, 115.0, 120.0, 128.0]),
            ("E3", &[93.0, 128.0, 213.0, 320.0, 478.0, 663.0]),
        ],
    );
    out.push_str(&table);
    out.push_str(&takeaway_line(&format!(
        "CALM wins {:.2}x at b=1 (paper 2.84x) then stagnates; E3 reaches {:.2}x over T5 at b=32",
        rows[1][0] / rows[0][0],
        rows[2][5] / rows[0][5]
    )));
    out
}

/// Fig. 11 — autoregressive summarization (SAMSum) on 4 A6000s.
/// Variable output lengths make vanilla static batching pay for
/// stragglers, widening E3's lead (paper: up to 3.8x).
pub(crate) fn fig11_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 11: summarization goodput (samples/s), T5/CALM/E3, 4 x A6000, SAMSum\n"
    );
    let fam = ModelFamily::llm_t5();
    let exp = experiment(
        fam.clone(),
        ClusterSpec::paper_llm_cluster(),
        DatasetModel::samsum(),
    )
    .with_n(600);
    let ctrl0 = RampController::all_enabled(0, fam.policy.ramp_style());
    let ctrl = RampController::all_enabled(fam.ee.num_ramps(), fam.policy.ramp_style());
    let boundary = exp.pick_autoreg_boundary(0.5);
    let exp = exp.with_seed(SEED + 1);
    let (rows, table) = autoreg_sweep(
        &exp,
        &[
            ("T5", AutoRegStrategy::VanillaStatic, &ctrl0),
            ("CALM", AutoRegStrategy::NaiveEeSequential, &ctrl),
            ("E3", AutoRegStrategy::E3 { boundary }, &ctrl),
        ],
        &[1, 2, 4, 8, 16, 32],
        &[
            ("T5", &[63.0, 87.0, 108.0, 134.0, 176.0, 115.0]),
            ("CALM", &[24.0, 27.0, 86.0, 88.0, 103.0, 103.0]),
            ("E3", &[38.0, 101.0, 204.0, 283.0, 473.0, 683.0]),
        ],
    );
    out.push_str(&table);
    let best = rows[2]
        .iter()
        .zip(&rows[0])
        .map(|(e, t)| e / t)
        .fold(0.0f64, f64::max);
    out.push_str(&takeaway_line(&format!(
        "variable lengths amplify E3's win: up to {best:.2}x over T5 (paper up to 3.8x)"
    )));
    out
}

/// Fig. 12 — decoder-only LLM generality: Llama-3.1-8B on BoolQ
/// (single-token yes/no outputs) on 4 A6000s. The EE variant replicates
/// the (large-vocabulary) lm head as a ramp after every layer, so naive
/// per-layer checking is *slower* than the vanilla model; E3 checks
/// exits only at its split boundary and beats both.
pub(crate) fn fig12_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 12: Llama-3.1-8B goodput (samples/s), BoolQ, 4 x A6000\n"
    );
    let fam = ModelFamily::llm_llama();
    let exp = experiment(
        fam.clone(),
        ClusterSpec::paper_llm_cluster(),
        DatasetModel::boolq(),
    )
    .with_n(800);
    let ctrl0 = RampController::all_enabled(0, fam.policy.ramp_style());
    let ctrl = RampController::all_enabled(fam.ee.num_ramps(), fam.policy.ramp_style());
    let boundary = exp.pick_autoreg_boundary(0.5);
    let _ = writeln!(
        out,
        "profiler: ~50% of inputs exit by layer {boundary} of 32 (paper observes layer 25)\n"
    );
    // §5.1.3: under E3 exits are checked only at the end of splits.
    let mut e3_ctrl = ctrl.clone();
    if let Some(ri) = fam.ee.ramp_after(boundary - 1) {
        e3_ctrl.keep_only(&[ri]);
    }
    let (rows, table) = autoreg_sweep(
        &exp,
        &[
            ("Llama3.1-8b", AutoRegStrategy::VanillaStatic, &ctrl0),
            ("Llama3.1-8b-EE", AutoRegStrategy::NaiveEeBatched, &ctrl),
            ("E3", AutoRegStrategy::E3 { boundary }, &e3_ctrl),
        ],
        &[1, 2, 4, 8, 16, 32],
        &[
            ("Llama3.1-8b", &[102.0, 190.0, 328.0, 608.0, 748.0, 852.0]),
            ("Llama3.1-8b-EE", &[42.0, 68.0, 123.0, 235.0, 397.0, 575.0]),
            ("E3", &[151.0, 274.0, 468.0, 841.0, 1051.0, 1199.0]),
        ],
    );
    out.push_str(&table);
    let best = rows[2]
        .iter()
        .zip(&rows[0])
        .map(|(e, v)| e / v)
        .fold(0.0f64, f64::max);
    out.push_str(&takeaway_line(&format!(
        "naive EE is below vanilla at every batch size (lm-head ramp cost); E3 beats vanilla by up to {best:.2}x (paper 1.48x)"
    )));
    out
}

/// One point of the memory-pressure sweep.
#[derive(Debug, Clone, Copy)]
pub struct KvPressurePoint {
    /// Per-replica KV budget in resident tokens.
    pub capacity_tokens: usize,
    /// Goodput under window-level (padded static) batching.
    pub window_goodput: f64,
    /// Goodput under continuous batching.
    pub continuous_goodput: f64,
    /// KV admissions observed in the continuous run.
    pub admitted: usize,
    /// KV preemptions observed in the continuous run.
    pub preempted: u64,
}

/// Sweeps the per-replica KV budget for CALM-T5 on SAMSum (variable
/// output lengths) at b=16 on 4 A6000s, serving the same materialized
/// sequences under window-level batching and continuous batching. Every
/// run goes through [`run_continuous`] with a [`KvPlan`], so admissions
/// and preemptions come from the kernel's typed event stream.
pub fn kv_pressure_sweep() -> Vec<KvPressurePoint> {
    let fam = ModelFamily::llm_t5();
    let ctrl = RampController::all_enabled(fam.ee.num_ramps(), fam.policy.ramp_style());
    let ds = DatasetModel::samsum();
    let infer = InferenceSim::with_accuracy(ds.base_accuracy);
    let lm = LatencyModel::new();
    let specs = materialize_sequences(&fam.ee, &fam.policy, &ctrl, &infer, &ds, 400, SEED);
    let kv_rate = fam.ee.autoreg().expect("autoreg").kv_bytes_per_token;
    // Each budget point serves the same materialized sequences through
    // its own kernel runs — independent, so parallel with index merge.
    par_map(vec![64usize, 128, 256, 512, 1024], |_, cap| {
        let run = |join: JoinPolicy, log: &mut EventLog| {
            let cfg = ContinuousConfig {
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
                    capacity_tokens: cap,
                    bytes_per_token: kv_rate,
                    mode: PreemptMode::Recompute,
                }),
                slo: SimDuration::from_secs(86_400),
                fault_plan: FaultPlan::new(),
                b_max_wait: None,
            };
            run_continuous(&cfg, &specs, log)
        };
        let mut wlog = EventLog::new();
        let window = run(JoinPolicy::Window { padded: true }, &mut wlog);
        let mut clog = EventLog::new();
        let cont = run(JoinPolicy::Continuous, &mut clog);
        KvPressurePoint {
            capacity_tokens: cap,
            window_goodput: window.report.goodput(),
            continuous_goodput: cont.report.goodput(),
            admitted: clog.count(|e| matches!(e, KernelEvent::KvAdmitted { .. })),
            preempted: cont.report.kv_preemptions,
        }
    })
}

/// Memory-pressure sweep — goodput of window-level vs continuous
/// batching as the per-replica KV budget shrinks (the new bench backing
/// the KV-cache memory model).
pub(crate) fn fig_kv_pressure_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "KV pressure: window vs continuous batching under finite KV budgets, CALM-T5, SAMSum, b=16, 4 x A6000\n"
    );
    let points = kv_pressure_sweep();
    let cols: Vec<String> = points
        .iter()
        .map(|p| format!("cap={}", p.capacity_tokens))
        .collect();
    let mut t = Table::new("goodput vs per-replica KV budget (tokens)", &cols);
    let wrow: Vec<f64> = points.iter().map(|p| p.window_goodput).collect();
    let crow: Vec<f64> = points.iter().map(|p| p.continuous_goodput).collect();
    t.row("window", &wrow);
    t.row("continuous", &crow);
    t.row_fmt(
        "cont/win",
        &points
            .iter()
            .map(|p| p.continuous_goodput / p.window_goodput)
            .collect::<Vec<_>>(),
        2,
    );
    t.row(
        "kv admits (cont)",
        &points.iter().map(|p| p.admitted as f64).collect::<Vec<_>>(),
    );
    t.row(
        "kv preempts (cont)",
        &points
            .iter()
            .map(|p| p.preempted as f64)
            .collect::<Vec<_>>(),
    );
    out.push_str(&t.render());
    let best = points
        .iter()
        .map(|p| p.continuous_goodput / p.window_goodput)
        .fold(0.0f64, f64::max);
    out.push_str(&takeaway_line(&format!(
        "freed slots refill mid-flight: continuous batching beats window batching at every budget, up to {best:.2}x under pressure"
    )));
    out
}

/// Scenario-matrix smoke: the pruned cell subset of the composed stress
/// space ({arrival} × {drift} × {faults} × {skew} × {guarded} × {exit
/// policy}), every cell's kernel streams validated online by the
/// invariant checker.
pub fn fig_matrix_report() -> String {
    matrix_report(&ScenarioMatrix::smoke_cells(), "smoke")
}

/// The full 96-cell cross product.
pub(crate) fn fig_matrix_full_report() -> String {
    matrix_report(&ScenarioMatrix::full_cells(), "full")
}

/// Fixed shape of the planning-at-scale study: DeeBERT at b=8 with up
/// to four splits, under one measured-shape exit profile.
pub fn scale_problem() -> (EeModel, RampController, BatchProfile, OptimizerConfig) {
    let model = zoo::deebert();
    let ctrl = RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent);
    let profile = BatchProfile::new(vec![
        1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
    ]);
    let cfg = OptimizerConfig {
        max_splits: 4,
        ..Default::default()
    };
    (model, ctrl, profile, cfg)
}

/// The planning-at-scale study's cold solve on the per-kind pool
/// `pool`, with the search's assignment and pruning counts.
pub fn scale_solver() -> impl Fn(&BTreeMap<GpuKind, usize>) -> (SplitPlan, SearchStats) {
    let (model, ctrl, profile, cfg) = scale_problem();
    let (tm, lm) = (TransferModel::default(), LatencyModel::new());
    move |pool| {
        optimize_heterogeneous_with_stats(&model, &ctrl, &profile, pool, 8.0, &tm, &lm, &cfg)
    }
}

/// Cluster sizes of the planning-at-scale study, up to the 10k-GPU
/// horizon.
pub const SCALE_SIZES: [usize; 4] = [16, 100, 1000, 10_000];

/// The planning-at-scale study's homogeneous pool: `m` V100s.
pub fn scale_pool(m: usize) -> BTreeMap<GpuKind, usize> {
    BTreeMap::from([(GpuKind::V100, m)])
}

fn scale_columns() -> Vec<String> {
    SCALE_SIZES.iter().map(|m| format!("m={m}")).collect()
}

/// Planning at hyperscale: the split search's plan shape at cluster
/// sizes up to the 10k-GPU horizon. How long the solves take is
/// [`fig_scale_wall_clock`].
pub(crate) fn fig_scale_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Planning at scale: cold split search, DeeBERT, V100, b=8, max_splits=4\n"
    );
    let solve = scale_solver();
    let plans: Vec<SplitPlan> = SCALE_SIZES
        .iter()
        .map(|&m| solve(&scale_pool(m)).0)
        .collect();
    let stages: Vec<f64> = plans.iter().map(|p| p.splits.len() as f64).collect();
    let goodput: Vec<f64> = plans.iter().map(|p| p.goodput).collect();
    let mut t = Table::new("plan shape vs cluster size", &scale_columns());
    t.row("stages", &stages);
    t.row("plan goodput", &goodput);
    out.push_str(&t.render());
    out
}

/// Wall-clock half of the planning-at-scale study: each size solved
/// cold. The takeaway judges the 10k-GPU solve against the acceptance
/// budget (under 10 s) and says `FAIL` when it misses.
pub(crate) fn fig_scale_wall_clock() -> String {
    use std::time::Instant;

    let solve = scale_solver();
    let mut cold_ms = Vec::new();
    for &m in &SCALE_SIZES {
        let start = Instant::now();
        solve(&scale_pool(m));
        cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut t = Table::new("planning wall time vs cluster size", &scale_columns());
    t.row_fmt("cold (ms)", &cold_ms, 3);
    let mut out = t.render();
    let cold = cold_ms.last().expect("sizes non-empty") / 1e3;
    let verdict = if cold < 10.0 { "PASS" } else { "FAIL" };
    out.push_str(&takeaway_line(&format!(
        "10k-GPU horizon {verdict}: cold plan in {cold:.3}s (budget 10s)"
    )));
    out
}

fn matrix_report(cells: &[e3_scenarios::ScenarioCell], which: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scenario matrix ({which}): {} composed cells, invariant-checked kernel streams\n",
        cells.len()
    );
    // Cells are deterministic from (seed, cell) alone; run them across
    // threads and assemble the outcome in cell order — byte-identical
    // to the sequential ScenarioMatrix::run.
    let matrix = ScenarioMatrix::new(SEED);
    let outcome = matrix.assemble(par_map(cells.to_vec(), |_, c| matrix.run_cell(c)));
    out.push_str(&outcome.render());
    let failing = outcome.cells.iter().filter(|c| !c.pass()).count();
    if failing == 0 {
        out.push_str(&takeaway_line(&format!(
            "all {} cells pass: {} kernel events validated, zero invariant violations",
            outcome.cells.len(),
            outcome.events_checked()
        )));
    } else {
        out.push_str(&takeaway_line(&format!(
            "{failing} of {} cells FAILED invariant checking",
            outcome.cells.len()
        )));
    }
    out
}
