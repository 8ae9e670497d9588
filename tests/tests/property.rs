//! Property-based tests over the core data structures and algorithms.

use std::collections::BTreeMap;

use proptest::prelude::*;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{zoo, BatchProfile, EeModel, LayerSpec, RampController, RampSpec, Task};
use e3_model::{ExitPolicy, ExitSampler, InferenceSim};
use e3_optimizer::{optimize_heterogeneous_with_stats, OptimizerConfig};
use e3_profiler::BatchProfileEstimator;
use e3_runtime::autoreg::materialize_sequences;
use e3_runtime::kernel::EventLog;
use e3_runtime::strategy::StageSpec;
use e3_runtime::{
    run_continuous, ContinuousConfig, FaultPlan, JoinPolicy, KernelEvent, KvPlan, PreemptMode,
    RunReport, ServingConfig, ServingSim,
};
use e3_simcore::{SimDuration, SimTime};
use e3_workload::{ArrivalProcess, DatasetModel, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Decodes raw entropy words into a valid [`FaultPlan`] for a 4-replica,
/// 2-stage deployment: 2 bits of kind, then replica / onset / duration /
/// factor bit-fields, so any `u64` yields a well-formed fault.
fn decoded_fault_plan(words: &[u64]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &x in words {
        let rid = ((x >> 2) % 4) as usize;
        let from = (x >> 8) & 0x3ff;
        let until = from + 1 + ((x >> 20) & 0xff);
        plan = match x % 4 {
            0 => plan.crash(rid, SimTime::from_millis(from)),
            1 => {
                let factor = 1.25 + ((x >> 32) & 0x3f) as f64 / 8.0;
                plan.slowdown(
                    rid,
                    factor,
                    SimTime::from_millis(from),
                    SimTime::from_millis(until),
                )
            }
            2 => plan.stall(
                rid % 2,
                SimTime::from_millis(from),
                SimTime::from_millis(until),
            ),
            _ => plan.recover(rid, SimTime::from_millis(from)),
        };
    }
    plan
}

/// Runs DeeBERT on a hand-built 2-stage, 4-replica pipeline under `plan`.
fn run_two_stage_faulted(plan: &FaultPlan, n: usize, seed: u64) -> (RunReport, EventLog) {
    let model = zoo::deebert();
    let stages = vec![
        StageSpec {
            layers: 0..6,
            target_batch: 4,
            replicas: vec![GpuKind::V100; 2],
            deferred_exits: true,
        },
        StageSpec {
            layers: 6..12,
            target_batch: 4,
            replicas: vec![GpuKind::V100; 2],
            deferred_exits: true,
        },
    ];
    let sim = ServingSim::new(
        &model,
        zoo::default_policy("DeeBERT"),
        RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent),
        InferenceSim::new(),
        stages,
        LatencyModel::new(),
        TransferModel::default(),
        ServingConfig {
            fault_plan: plan.clone(),
            ..Default::default()
        },
    );
    let g = WorkloadGenerator::new(
        ArrivalProcess::ClosedLoop { concurrency: 64 },
        DatasetModel::sst2(),
        SimDuration::from_secs(60),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let reqs = g.generate(n, &mut rng);
    let mut log = EventLog::new();
    let r = sim.run(&reqs, seed, &mut log);
    (r, log)
}

/// Decodes raw entropy words into a fault plan shaped for a continuous
/// deployment with `replicas` replicas over `stages` stages.
fn decoded_continuous_faults(words: &[u64], replicas: usize, stages: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &x in words {
        let rid = ((x >> 2) as usize) % replicas;
        let from = (x >> 8) & 0x3ff;
        let until = from + 1 + ((x >> 20) & 0xff);
        plan = match x % 4 {
            0 => plan.crash(rid, SimTime::from_millis(from)),
            1 => {
                let factor = 1.25 + ((x >> 32) & 0x3f) as f64 / 8.0;
                plan.slowdown(
                    rid,
                    factor,
                    SimTime::from_millis(from),
                    SimTime::from_millis(until),
                )
            }
            2 => plan.stall(
                ((x >> 4) as usize) % stages,
                SimTime::from_millis(from),
                SimTime::from_millis(until),
            ),
            _ => plan.recover(rid, SimTime::from_millis(from)),
        };
    }
    plan
}

/// One of the two stage layouts the plan-swap property alternates
/// between: a 2-stage split pipeline or a single monolithic stage.
fn swap_sim(model: &EeModel, two_stage: bool) -> ServingSim<'_> {
    let stages = if two_stage {
        vec![
            StageSpec {
                layers: 0..6,
                target_batch: 4,
                replicas: vec![GpuKind::V100; 2],
                deferred_exits: true,
            },
            StageSpec {
                layers: 6..12,
                target_batch: 4,
                replicas: vec![GpuKind::V100; 2],
                deferred_exits: true,
            },
        ]
    } else {
        vec![StageSpec {
            layers: 0..12,
            target_batch: 4,
            replicas: vec![GpuKind::V100; 4],
            deferred_exits: true,
        }]
    };
    ServingSim::new(
        model,
        zoo::default_policy("DeeBERT"),
        RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent),
        InferenceSim::new(),
        stages,
        LatencyModel::new(),
        TransferModel::default(),
        ServingConfig::default(),
    )
}

/// Strategy: a valid survival profile for `layers` layers.
fn survival_profile(layers: usize) -> impl Strategy<Value = BatchProfile> {
    proptest::collection::vec(0.0f64..1.0, layers).prop_map(move |drops| {
        let mut surv = vec![1.0];
        let mut cur = 1.0f64;
        for d in drops {
            cur *= 1.0 - d * 0.3; // gradual, monotone decay
            surv.push(cur);
        }
        BatchProfile::new(surv)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_profile_from_counts_is_valid(
        exits in proptest::collection::vec(0u32..50, 1..24),
    ) {
        let total: u32 = exits.iter().sum::<u32>() + 10;
        let exits_f: Vec<f64> = exits.iter().map(|&e| f64::from(e)).collect();
        let p = BatchProfile::from_exit_counts(&exits_f, f64::from(total));
        // Invariants: starts at 1, monotone non-increasing, within [0,1].
        prop_assert!((p.survival_at(0) - 1.0).abs() < 1e-12);
        for w in p.survival().windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&p.mean_depth_fraction()));
    }

    #[test]
    fn homogeneous_plan_always_valid(
        profile in survival_profile(12),
        gpus in 1usize..24,
        b0 in 1u32..33,
    ) {
        let model = zoo::deebert();
        let ctrl = RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent);
        let (plan, _) = optimize_heterogeneous_with_stats(
            &model, &ctrl, &profile, &BTreeMap::from([(GpuKind::V100, gpus)]), f64::from(b0),
            &TransferModel::default(), &LatencyModel::new(), &OptimizerConfig::default());
        plan.assert_valid(12);
        prop_assert!(plan.gpus_used() <= gpus);
        prop_assert!(plan.goodput >= 0.0);
        prop_assert!(plan.cycle_time.as_nanos() > 0);
    }

    #[test]
    fn heterogeneous_plan_always_valid(
        profile in survival_profile(12),
        v100 in 0usize..8,
        p100 in 0usize..8,
        k80 in 1usize..12,
    ) {
        let model = zoo::deebert();
        let ctrl = RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent);
        let mut counts = BTreeMap::new();
        counts.insert(GpuKind::V100, v100);
        counts.insert(GpuKind::P100, p100);
        counts.insert(GpuKind::K80, k80);
        let (plan, _) = optimize_heterogeneous_with_stats(
            &model, &ctrl, &profile, &counts, 8.0,
            &TransferModel::default(), &LatencyModel::new(),
            &OptimizerConfig { max_splits: 3, ..Default::default() },
        );
        plan.assert_valid(12);
        let used: usize = plan.splits.iter().map(|s| s.replicas).sum();
        prop_assert!(used <= v100 + p100 + k80);
        for s in &plan.splits {
            let avail = counts[&s.gpu];
            prop_assert!(s.replicas <= avail, "split uses {} of {} {:?}", s.replicas, avail, s.gpu);
        }
    }

    #[test]
    fn latency_model_monotone_in_batch(
        work in 1.0f64..5000.0,
        b1 in 1.0f64..64.0,
        delta in 0.0f64..64.0,
    ) {
        let lm = LatencyModel::new();
        for gpu in GpuKind::ALL {
            let t1 = lm.layer_time(work, b1, gpu);
            let t2 = lm.layer_time(work, b1 + delta, gpu);
            prop_assert!(t2 >= t1, "{gpu}: t({}) < t({b1})", b1 + delta);
        }
    }

    #[test]
    fn estimator_forecast_always_valid(
        windows in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 6), 1..48,
        ),
    ) {
        let mut est = BatchProfileEstimator::new(6);
        for drops in windows {
            let mut surv = vec![1.0];
            let mut cur = 1.0f64;
            for d in drops {
                cur *= 1.0 - d * 0.4;
                surv.push(cur);
            }
            est.observe_window(&BatchProfile::new(surv));
        }
        let f = est.forecast();
        prop_assert!((f.survival_at(0) - 1.0).abs() < 1e-12);
        for w in f.survival().windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
            prop_assert!((0.0..=1.0).contains(&w[1]));
        }
    }

    #[test]
    fn exit_depth_weakly_monotone_in_threshold(
        hardness in 0.05f64..0.95,
        seed in 0u64..500,
    ) {
        // Averaged over ramp noise, looser entropy thresholds exit earlier.
        let model = zoo::deebert();
        let ctrl = RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent);
        let sim = InferenceSim::new();
        let depth = |t: f64| -> f64 {
            let sampler = ExitSampler::new(&sim, &model, &ExitPolicy::Entropy { threshold: t }, &ctrl);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 64;
            (0..n).map(|_| sampler.sample(hardness, &mut rng).layers_executed as f64)
                .sum::<f64>() / n as f64
        };
        prop_assert!(depth(0.5) <= depth(0.3) + 0.75);
    }

    #[test]
    fn kernel_conserves_samples_under_arbitrary_faults(
        words in proptest::collection::vec(0u64..u64::MAX, 0..8),
        seed in 0u64..1000,
    ) {
        // Satellite invariant: under any generated FaultPlan, every
        // arrival is exactly one of completed / dropped /
        // in-flight-at-horizon, and the clock never rewinds.
        let n = 400usize;
        let plan = decoded_fault_plan(&words);
        let (r, log) = run_two_stage_faulted(&plan, n, seed);
        // The log and the report agree on the terminal counts.
        let arrivals = log.count(|e| matches!(e, KernelEvent::Arrival { .. })) as u64;
        let completions =
            log.count(|e| matches!(e, KernelEvent::Completion { .. })) as u64;
        let drops = log.count(|e| matches!(e, KernelEvent::Dropped { .. })) as u64;
        prop_assert_eq!(completions, r.completed);
        prop_assert_eq!(drops, r.dropped);
        // Conservation: no sample is invented, every terminal had an
        // arrival; the remainder is in flight (stranded on a crashed
        // queue).
        prop_assert!(arrivals <= n as u64);
        prop_assert!(completions + drops <= arrivals);
        let mut arrived = vec![0u32; n];
        let mut terminated = vec![0u32; n];
        for (_, e) in &log.events {
            match e {
                KernelEvent::Arrival { sample } => arrived[*sample as usize] += 1,
                KernelEvent::Dropped { sample, .. }
                | KernelEvent::Completion { sample, .. } => {
                    terminated[*sample as usize] += 1;
                }
                _ => {}
            }
        }
        for i in 0..n {
            prop_assert!(arrived[i] <= 1, "sample {} arrived {} times", i, arrived[i]);
            prop_assert!(
                terminated[i] <= arrived[i],
                "sample {} terminated without arriving", i
            );
        }
        // Clocks never go backwards, faults included.
        prop_assert!(log.events.windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert_eq!(r.faults_injected, plan.len() as u64);
    }

    #[test]
    fn segmented_serving_conserves_across_plan_swaps(
        cuts in proptest::collection::vec(0.05f64..0.95, 0..4),
        which in proptest::collection::vec(0usize..2, 5),
        seed in 0u64..500,
    ) {
        // Tentpole invariant: an arbitrary plan-swap schedule — the
        // request stream partitioned at arbitrary points into segments,
        // each served by a different stage layout, all events re-based
        // onto one global clock (the exact shape of a guarded window's
        // probe/canary/remainder epochs) — loses no request, duplicates
        // no request, and never rewinds the clock.
        let n = 300usize;
        let model = zoo::deebert();
        let sims = [swap_sim(&model, false), swap_sim(&model, true)];
        let g = WorkloadGenerator::new(
            ArrivalProcess::ClosedLoop { concurrency: 32 },
            DatasetModel::sst2(),
            SimDuration::from_secs(60),
        );
        let reqs = g.generate(n, &mut StdRng::seed_from_u64(seed));

        // Sorted, deduped cut indices -> contiguous segments covering 0..n.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| (c * n as f64) as usize).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();

        let mut log = EventLog::new();
        let mut clock = SimTime::ZERO;
        let mut completed = 0u64;
        let mut dropped = 0u64;
        for (i, pair) in bounds.windows(2).enumerate() {
            let sim = &sims[which[i % which.len()]];
            let seg = {
                let mut off = e3_runtime::OffsetObserver::new(clock, &mut log);
                sim.run(&reqs[pair[0]..pair[1]], seed ^ i as u64, &mut off)
            };
            clock += seg.duration;
            completed += seg.completed;
            dropped += seg.dropped;
        }

        // Conservation across swaps: every request terminates exactly once.
        prop_assert_eq!(completed + dropped, n as u64);
        let mut arrived = vec![0u32; n];
        let mut terminated = vec![0u32; n];
        for (_, e) in &log.events {
            match e {
                KernelEvent::Arrival { sample } => arrived[*sample as usize] += 1,
                KernelEvent::Dropped { sample, .. }
                | KernelEvent::Completion { sample, .. } => {
                    terminated[*sample as usize] += 1;
                }
                _ => {}
            }
        }
        for i in 0..n {
            prop_assert_eq!(arrived[i], 1);
            prop_assert_eq!(terminated[i], 1);
        }
        // The merged stream sits on one monotone clock.
        prop_assert!(log.events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn continuous_batching_conserves_sequences_and_tokens(
        words in proptest::collection::vec(0u64..u64::MAX, 0..8),
        seed in 0u64..500,
        cap in 32usize..512,
        two_stage_bit in 0u8..2,
        swap_bit in 0u8..2,
    ) {
        // Satellite invariant: under continuous batching with an arbitrary
        // fault plan and a finite KV budget, no sequence is lost and no
        // token is double-served — every sequence is exactly one of
        // completed / leftover, every completed sequence emitted each of
        // its token indices exactly once, and the clock never rewinds.
        let (two_stage, swap) = (two_stage_bit == 1, swap_bit == 1);
        let n = 60usize;
        let model = zoo::calm_t5();
        let ar = *model.autoreg().expect("calm_t5 is autoregressive");
        let ctrl = RampController::all_enabled(model.num_ramps(), e3_model::RampStyle::Independent);
        let specs = materialize_sequences(
            &model, &zoo::default_policy("CALM"), &ctrl, &InferenceSim::new(),
            &DatasetModel::samsum(), n, seed,
        );
        let (boundary, replicas_a, replicas_b) =
            if two_stage { (Some(12), 2, 2) } else { (None, 4, 0) };
        let stages = 1 + usize::from(two_stage);
        let plan = decoded_continuous_faults(&words, replicas_a + replicas_b, stages);
        let cfg = ContinuousConfig {
            model: &model,
            ctrl: &ctrl,
            gpu: GpuKind::A6000,
            lm: &LatencyModel::new(),
            join: JoinPolicy::Continuous,
            b0: 8,
            replicas_a,
            boundary,
            replicas_b,
            deferred_exits: two_stage,
            kv: Some(KvPlan {
                capacity_tokens: cap,
                bytes_per_token: ar.kv_bytes_per_token,
                mode: if swap { PreemptMode::Swap } else { PreemptMode::Recompute },
            }),
            slo: SimDuration::from_secs(86_400),
            fault_plan: plan.clone(),
            b_max_wait: None,
        };
        let mut log = EventLog::new();
        let out = run_continuous(&cfg, &specs, &mut log);

        // Sequence conservation: every sequence terminates or strands.
        prop_assert_eq!(out.report.completed + out.leftover, n as u64);

        // Token conservation: (sequence, index) pairs are unique, and a
        // completed sequence generated exactly its materialized tokens.
        let mut tokens: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut completions = vec![0u32; n];
        for (_, e) in &log.events {
            match e {
                KernelEvent::TokenGenerated { sample, index } => {
                    tokens[*sample as usize].push(*index);
                }
                KernelEvent::Completion { sample, .. } => {
                    completions[*sample as usize] += 1;
                }
                _ => {}
            }
        }
        let mut token_total = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let mut idx = tokens[i].clone();
            idx.sort_unstable();
            idx.dedup();
            prop_assert!(
                idx.len() == tokens[i].len(),
                "sequence {} double-served a token", i
            );
            token_total += tokens[i].len() as u64;
            prop_assert!(completions[i] <= 1, "sequence {} completed twice", i);
            if completions[i] == 1 {
                let want: Vec<u32> = (0..spec.tokens.len() as u32).collect();
                prop_assert!(idx == want, "completed sequence {} has token gaps", i);
            } else {
                prop_assert!(
                    idx.len() < spec.tokens.len(),
                    "sequence {} generated all tokens but never completed", i
                );
            }
        }
        prop_assert_eq!(token_total, out.report.tokens_generated);
        prop_assert_eq!(
            completions.iter().map(|&c| u64::from(c)).sum::<u64>(),
            out.report.completed
        );
        // KV admissions and preemptions surface as typed events.
        let preempts = log.count(|e| matches!(e, KernelEvent::KvPreempted { .. })) as u64;
        prop_assert_eq!(preempts, out.report.kv_preemptions);
        // The merged stream sits on one monotone clock.
        prop_assert!(log.events.windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert_eq!(out.report.faults_injected, plan.len() as u64);
    }

    #[test]
    fn arbitrary_models_validate_or_reject(
        layers in 1usize..30,
        ramp_positions in proptest::collection::btree_set(0usize..30, 0..10),
    ) {
        let layer = LayerSpec { work_us: 100.0, fixed_us: 10.0, output_bytes: 64 };
        let ramps: Vec<RampSpec> = ramp_positions
            .iter()
            .map(|&p| RampSpec { after_layer: p, work_us: 5.0, fixed_us: 1.0 })
            .collect();
        let ok = ramp_positions.iter().all(|&p| p + 1 < layers);
        let result = EeModel::new(
            "prop",
            vec![layer; layers],
            ramps,
            Task::Classification { num_classes: 2 },
            None,
        );
        prop_assert_eq!(result.is_ok(), ok);
    }
}

use e3_hardware::ClusterSpec;
use e3_runtime::TaggedEventLog;
use e3_scenarios::{CheckerConfig, InvariantChecker, StreamScope};
use e3_tenancy::{MarginalGoodput, MultiTenantSystem, TenancyConfig, TenantSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tenancy_partitions_conserve_under_decoded_faults(
        tenant_words in proptest::collection::vec(
            proptest::collection::vec(0u64..u64::MAX, 0..3),
            2..5,
        ),
        seed in 0u64..200,
    ) {
        // Satellite invariant: the continuous-batching/windowed
        // conservation laws survive tenancy partitioning. 2-4 tenants
        // share a cluster under joint allocation, each carrying decoded
        // per-window fault plans on its own timeline; every tenant's
        // re-based stream must stay monotone, conserve samples, and pass
        // the typed invariant checker with zero violations.
        let n_tenants = tenant_words.len();
        let cfg = TenancyConfig {
            windows: 3,
            realloc_every: 2,
            profile_samples: 150,
            seed,
            ..Default::default()
        };
        let horizon = cfg.window * cfg.windows as u64;
        let tenants: Vec<TenantSpec> = tenant_words
            .iter()
            .enumerate()
            .map(|(i, words)| {
                // One decoded fault per window; indices are partition-local,
                // and any partition has a replica 0 / stage 0, so plans
                // decoded for a 1-replica, 1-stage shape are always valid.
                let faults: Vec<FaultPlan> = words
                    .iter()
                    .map(|&w| decoded_continuous_faults(&[w], 1, 1))
                    .collect();
                TenantSpec::nlp_stationary(
                    &format!("t{i}"),
                    DatasetModel::with_mix(0.3 + 0.15 * i as f64),
                    horizon,
                )
                .with_demand(200)
                .with_faults(faults)
            })
            .collect();
        let cluster = ClusterSpec::homogeneous(GpuKind::V100, 2 * n_tenants, 2);
        let sys = MultiTenantSystem::new(tenants, cluster, cfg);
        let mut log = TaggedEventLog::new();
        let report = sys.run_observed(&MarginalGoodput::default(), &mut log);
        prop_assert_eq!(report.tenants.len(), n_tenants);

        for t in 0..n_tenants as u32 {
            let stream = log.for_tag(t);
            prop_assert!(!stream.is_empty(), "tenant {} served nothing", t);
            // Re-based onto the tenant's cumulative clock: monotone.
            prop_assert!(stream.windows(2).all(|w| w[0].1 <= w[1].1));
            // Conservation across the tenant's whole horizon: terminals
            // never exceed arrivals (window ids repeat, so the per-id
            // pairing is the checker's job).
            let arrivals = stream
                .iter()
                .filter(|r| matches!(r.2, KernelEvent::Arrival { .. }))
                .count();
            let terminals = stream
                .iter()
                .filter(|r| {
                    matches!(
                        r.2,
                        KernelEvent::Completion { .. } | KernelEvent::Dropped { .. }
                    )
                })
                .count();
            prop_assert!(arrivals > 0);
            prop_assert!(terminals <= arrivals);
            let violations = InvariantChecker::check_tagged(
                CheckerConfig {
                    scope: StreamScope::Windowed,
                    ..Default::default()
                },
                &log,
                t,
            );
            prop_assert!(
                violations.is_empty(),
                "tenant {} violations: {:?}",
                t,
                &violations[..violations.len().min(3)]
            );
        }
        // The merged cluster trace sits on one monotone clock.
        let merged = log.merged_by_time();
        prop_assert!(merged.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
