//! The edge fleet driver: thousands of device-local runs feeding one
//! shared cluster.
//!
//! [`EdgeFleet::run`] simulates every device of every class over a
//! windowed horizon. Each device is a batch-1 FIFO processor: requests
//! arrive evenly spaced (device-phase-shifted so the fleet's load is
//! smooth), queue behind the previous request, run the on-device prefix
//! chosen by the class's [`SplitPolicy`], and either finish locally
//! (ramp exit, or a fully-local plan) or ship their boundary
//! activations over the class's WAN. Offloaded traffic is then re-based
//! onto the cluster's clock as one phased tenant per class — hardness
//! phases derived from what actually survived the prefix each window —
//! and served by the existing [`e3_tenancy::MultiTenantSystem`].
//! Per-request cluster latency is drawn deterministically from the
//! tenant window the request landed in, cluster sheds become
//! `CloudDropped` misses, and every request's end-to-end latency is
//! scored against the deadline into a synthesized [`RunReport`] per
//! class, so all the existing report tooling applies.

use std::collections::VecDeque;

use rand::rngs::StdRng;

use e3_hardware::{ClusterSpec, GpuKind, LatencyModel};
use e3_model::{zoo, EeModel, ExitPolicy, ExitSampler, InferenceSim, RampController};
use e3_optimizer::EdgeSplitTables;
use e3_runtime::report::ExitEvent;
use e3_runtime::{RobustnessStats, RunReport, ShedBreakdown};
use e3_simcore::metrics::DurationHistogram;
use e3_simcore::{SeedSplitter, SimDuration, SimTime};
use e3_tenancy::{
    MarginalGoodput, MultiTenantReport, MultiTenantSystem, TenancyConfig, TenantSpec,
};
use e3_workload::{DatasetModel, Phase};

use crate::event::{EdgeEvent, EdgeEventLog};
use crate::link::{LinkTracker, WanSpec};
use crate::policy::{SplitContext, SplitPolicy};

/// One device class: a population of identical devices behind one WAN
/// profile.
#[derive(Debug, Clone)]
pub struct EdgeClassSpec {
    /// Display name (also the cluster tenant's name).
    pub name: String,
    /// Device tier (an edge `GpuKind`).
    pub tier: GpuKind,
    /// The class's WAN profile.
    pub wan: WanSpec,
    /// Number of devices.
    pub devices: usize,
    /// Requests arriving at each device per window.
    pub requests_per_device_window: usize,
    /// Hardness mixture of the class's inputs.
    pub dataset: DatasetModel,
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// The EE-DNN every device serves a prefix of.
    pub model: EeModel,
    /// The exit policy evaluated at on-device ramps.
    pub policy: ExitPolicy,
    /// The device classes.
    pub classes: Vec<EdgeClassSpec>,
    /// Number of scheduling windows.
    pub windows: usize,
    /// Window length.
    pub window: SimDuration,
    /// Per-request deadline (arrival to result-on-device).
    pub deadline: SimDuration,
    /// The offload cluster.
    pub cluster: ClusterSpec,
    /// Batch size used to price the cluster suffix in the split tables.
    pub cluster_batch: f64,
    /// Root seed.
    pub seed: u64,
    /// Monte-Carlo samples for exit profiles (device tables and the
    /// cluster tenants' control loops).
    pub profile_samples: usize,
}

impl EdgeConfig {
    /// A DeeBERT fleet with the paper's default entropy policy.
    pub fn deebert(
        classes: Vec<EdgeClassSpec>,
        windows: usize,
        window: SimDuration,
        deadline: SimDuration,
        cluster: ClusterSpec,
        seed: u64,
    ) -> Self {
        EdgeConfig {
            model: zoo::deebert(),
            policy: zoo::default_policy("DeeBERT"),
            classes,
            windows,
            window,
            deadline,
            cluster,
            cluster_batch: 8.0,
            seed,
            profile_samples: 600,
        }
    }

    /// Serving horizon (`windows × window`).
    pub fn horizon(&self) -> SimDuration {
        self.window * self.windows as u64
    }
}

/// What one class experienced across the run.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Class name.
    pub name: String,
    /// Device tier.
    pub tier: GpuKind,
    /// Policy label (policies are instantiated per class).
    pub policy: String,
    /// Requests admitted.
    pub requests: u64,
    /// Samples that exited at an on-device ramp.
    pub local_exits: u64,
    /// Samples that ran the whole model on-device (no exit, no offload).
    pub local_completions: u64,
    /// Samples handed to the WAN.
    pub offloaded: u64,
    /// Uploads abandoned because the deadline was already unmeetable.
    pub aborted: u64,
    /// Offloaded samples shed or dropped by the cluster.
    pub cloud_dropped: u64,
    /// Offloaded samples served by the cluster.
    pub cloud_completed: u64,
    /// Uploads that waited out at least one LinkDown burst (burst count).
    pub transfer_retries: u64,
    /// Mean split boundary actually used.
    pub mean_boundary: f64,
    /// Split-planner decision cache (hits, misses), when the policy has
    /// one.
    pub cache_stats: Option<(u64, u64)>,
    /// Per-request deadline accounting in the standard report shape:
    /// `within_slo` counts deadline hits, `latency` holds end-to-end
    /// latencies of completed requests, `slo` is the deadline.
    pub run: RunReport,
}

impl ClassReport {
    /// Fraction of requests whose result met the deadline.
    pub fn attainment(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.run.within_slo as f64 / self.requests as f64
    }

    /// Fraction of requests that completed on-device (exit or full run).
    pub fn local_fraction(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.local_exits + self.local_completions) as f64 / self.requests as f64
    }
}

/// The whole fleet's run: per-class reports, the cluster leg, and the
/// typed event stream.
#[derive(Debug, Clone)]
pub struct EdgeReport {
    /// Per-class outcomes, in class order.
    pub classes: Vec<ClassReport>,
    /// The multi-tenant cluster leg serving offloaded traffic; `None`
    /// when nothing offloaded.
    pub cluster: Option<MultiTenantReport>,
    /// The typed edge event stream (offload-conservation evidence).
    pub events: EdgeEventLog,
}

impl EdgeReport {
    /// Requests admitted fleet-wide.
    pub fn requests(&self) -> u64 {
        self.classes.iter().map(|c| c.requests).sum()
    }

    /// Fleet-wide deadline attainment.
    pub fn attainment(&self) -> f64 {
        let req = self.requests();
        if req == 0 {
            return 0.0;
        }
        let hits: u64 = self.classes.iter().map(|c| c.run.within_slo).sum();
        hits as f64 / req as f64
    }

    /// Fleet-wide fraction completing on-device.
    pub fn local_fraction(&self) -> f64 {
        let req = self.requests();
        if req == 0 {
            return 0.0;
        }
        let local: u64 = self
            .classes
            .iter()
            .map(|c| c.local_exits + c.local_completions)
            .sum();
        local as f64 / req as f64
    }
}

/// Internal: one offloaded request awaiting its cluster outcome.
struct PendingOffload {
    sample: u64,
    window: usize,
    arrival: SimTime,
    upload_done: SimTime,
    correct: bool,
    hardness: f64,
}

/// Internal: per-class accumulator while devices run.
struct ClassAccum {
    policy_label: String,
    requests: u64,
    local_exits: u64,
    local_completions: u64,
    aborted: u64,
    transfer_retries: u64,
    boundary_sum: u64,
    peak_queue_depth: usize,
    correct: u64,
    within: u64,
    latency: DurationHistogram,
    exit_events: Vec<ExitEvent>,
    last_completion: SimTime,
    cache_stats: Option<(u64, u64)>,
}

/// The fleet driver.
#[derive(Debug, Clone)]
pub struct EdgeFleet {
    cfg: EdgeConfig,
}

impl EdgeFleet {
    /// Validates and wraps a configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty class list, a class with no devices or no
    /// demand, zero windows, a non-edge device tier, a model without
    /// ramps, or more classes than cluster GPUs (each class becomes one
    /// cluster tenant).
    pub fn new(cfg: EdgeConfig) -> Self {
        assert!(!cfg.classes.is_empty(), "fleet needs at least one class");
        assert!(cfg.windows > 0, "fleet needs at least one window");
        assert!(cfg.model.num_ramps() > 0, "edge serving needs exit ramps");
        assert!(
            cfg.classes.len() <= cfg.cluster.gpus().len(),
            "more classes than cluster GPUs"
        );
        for c in &cfg.classes {
            assert!(c.devices > 0, "class {} has no devices", c.name);
            assert!(
                c.requests_per_device_window > 0,
                "class {} has no demand",
                c.name
            );
            assert!(c.tier.is_edge(), "class {} is not an edge tier", c.name);
        }
        EdgeFleet { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &EdgeConfig {
        &self.cfg
    }

    /// Runs the fleet. `make_policy` builds each class's split policy
    /// from its spec and the tier's pricing tables (policies are
    /// per-class so planner caches never mix tiers).
    pub fn run(
        &self,
        make_policy: &mut dyn FnMut(&EdgeClassSpec, EdgeSplitTables) -> Box<dyn SplitPolicy>,
    ) -> EdgeReport {
        let cfg = &self.cfg;
        let seeds = SeedSplitter::new(cfg.seed);
        let ctrl = RampController::all_enabled(cfg.model.num_ramps(), cfg.policy.ramp_style());
        let sim = InferenceSim::new();
        let lm = LatencyModel::new();
        let cluster_kind = cfg.cluster.gpus()[0].kind;

        let mut events = EdgeEventLog::new();
        let mut next_sample: u64 = 0;
        let mut pendings: Vec<Vec<PendingOffload>> = Vec::new();
        let mut accums: Vec<ClassAccum> = Vec::new();

        // Phase 1: device-local legs, class by class, device by device.
        for (ci, class) in cfg.classes.iter().enumerate() {
            let mut rng_prof: StdRng = seeds.rng_indexed("edge-profile", ci as u64);
            let hardnesses = class
                .dataset
                .sample_hardnesses(cfg.profile_samples, &mut rng_prof);
            let profile =
                sim.exit_profile(&cfg.model, &cfg.policy, &ctrl, &hardnesses, &mut rng_prof);
            let tables = EdgeSplitTables::build(
                &cfg.model,
                &ctrl,
                &profile,
                class.tier,
                &lm,
                cluster_kind,
                cfg.cluster_batch,
                &lm,
            );
            let feasible: Vec<usize> = tables
                .candidates()
                .iter()
                .filter(|c| c.fits_device)
                .map(|c| c.boundary)
                .collect();
            assert!(
                !feasible.is_empty(),
                "no split prefix fits tier {}",
                class.tier
            );
            let mut policy = make_policy(class, tables);

            // Per-sample device timing: cumulative batch-1 layer times
            // and per-ramp check costs on this tier.
            let mut cum_layer = vec![SimDuration::ZERO];
            for l in cfg.model.layers() {
                let t = lm.layer_time(l.work_us + l.fixed_us, 1.0, class.tier);
                cum_layer.push(*cum_layer.last().unwrap() + t);
            }
            let ramp_t: Vec<SimDuration> = cfg
                .model
                .ramps()
                .iter()
                .map(|r| lm.layer_time(r.work_us + r.fixed_us, 1.0, class.tier))
                .collect();
            let sampler = ExitSampler::new(&sim, &cfg.model, &cfg.policy, &ctrl);
            let return_allow = class.wan.result_return();
            let spacing = cfg.window / class.requests_per_device_window as u64;

            let mut acc = ClassAccum {
                policy_label: policy.label(),
                requests: 0,
                local_exits: 0,
                local_completions: 0,
                aborted: 0,
                transfer_retries: 0,
                boundary_sum: 0,
                peak_queue_depth: 0,
                correct: 0,
                within: 0,
                latency: DurationHistogram::new(),
                exit_events: Vec::new(),
                last_completion: SimTime::ZERO,
                cache_stats: None,
            };
            let mut pending = Vec::new();

            for d in 0..class.devices {
                let mut rng: StdRng =
                    seeds.rng_indexed(&format!("edge-dev-{}", class.name), d as u64);
                let mut tracker = LinkTracker::new(class.wan.kind());
                let mut busy_until = SimTime::ZERO;
                let mut queue: VecDeque<SimTime> = VecDeque::new();
                // Phase-shift this device's arrivals within the spacing
                // so the fleet's offered load is smooth, not pulsed.
                let phase = spacing.mul_f64(d as f64 / class.devices as f64);
                let mut tx_seq = (d as u64) << 20;

                for w in 0..cfg.windows {
                    for k in 0..class.requests_per_device_window {
                        let arrival =
                            SimTime::ZERO + cfg.window * w as u64 + spacing * k as u64 + phase;
                        let deadline_at = arrival + cfg.deadline;
                        let sample = next_sample;
                        next_sample += 1;
                        acc.requests += 1;

                        let hardness = class.dataset.sample_hardness(&mut rng);
                        let outcome = sampler.sample(hardness, &mut rng);

                        while queue.front().is_some_and(|&t| t <= arrival) {
                            queue.pop_front();
                        }
                        let depth = queue.len();
                        acc.peak_queue_depth = acc.peak_queue_depth.max(depth);
                        let start = busy_until.max(arrival);
                        let queue_wait = start.saturating_since(arrival);
                        let slack = cfg
                            .deadline
                            .saturating_sub(queue_wait)
                            .saturating_sub(return_allow);
                        let ctx = SplitContext {
                            slack,
                            link: tracker.estimate(),
                            queue_depth: depth,
                        };
                        let boundary = clamp_to_feasible(&feasible, policy.split(&ctx));
                        acc.boundary_sum += boundary as u64;
                        events.push(
                            arrival,
                            EdgeEvent::Admitted {
                                sample,
                                class: ci as u32,
                                deadline: deadline_at,
                            },
                        );

                        let executed = outcome.layers_executed.min(boundary);
                        let mut device_time = cum_layer[executed];
                        for r in ctrl.paid_through(outcome.exited_at_ramp) {
                            if cfg.model.ramps()[r].after_layer < executed {
                                device_time += ramp_t[r];
                            }
                        }
                        let done = start + device_time;
                        busy_until = done;
                        queue.push_back(done);

                        if outcome.layers_executed <= boundary {
                            // Finished on-device.
                            let e2e = done.saturating_since(arrival);
                            let within = e2e <= cfg.deadline;
                            acc.latency.record(e2e);
                            acc.within += u64::from(within);
                            acc.correct += u64::from(outcome.correct);
                            acc.last_completion = acc.last_completion.max(done);
                            acc.exit_events.push(ExitEvent {
                                at: done,
                                layers_executed: executed,
                                exited_early: outcome.exited_at_ramp.is_some(),
                            });
                            match outcome.exited_at_ramp {
                                Some(ramp) => {
                                    acc.local_exits += 1;
                                    events.push(
                                        done,
                                        EdgeEvent::ExitedOnDevice {
                                            sample,
                                            ramp,
                                            within_deadline: within,
                                        },
                                    );
                                }
                                None => {
                                    acc.local_completions += 1;
                                    events.push(
                                        done,
                                        EdgeEvent::CompletedOnDevice {
                                            sample,
                                            within_deadline: within,
                                        },
                                    );
                                }
                            }
                        } else {
                            // Offload the boundary activations.
                            let bytes = cfg.model.boundary_bytes(boundary - 1);
                            events.push(
                                done,
                                EdgeEvent::Offloaded {
                                    sample,
                                    boundary,
                                    bytes,
                                },
                            );
                            let mut at = done;
                            while let Some(end) = class.wan.down_until(at) {
                                events.push(at, EdgeEvent::TransferRetried { sample });
                                acc.transfer_retries += 1;
                                at = end;
                            }
                            if at > deadline_at {
                                // The link came back too late: even a
                                // free transfer misses. Give up; the
                                // wait still teaches the tracker.
                                events.push(at, EdgeEvent::OffloadAborted { sample });
                                acc.aborted += 1;
                                tracker.observe(
                                    bytes,
                                    at.saturating_since(done)
                                        + class.wan.kind().transfer_time(bytes),
                                );
                            } else {
                                let tx = class.wan.link.transfer_time(bytes, tx_seq);
                                tx_seq += 1;
                                let upload_done = at + tx;
                                tracker.observe(bytes, upload_done.saturating_since(done));
                                pending.push(PendingOffload {
                                    sample,
                                    window: w,
                                    arrival,
                                    upload_done,
                                    correct: outcome.correct,
                                    hardness,
                                });
                            }
                        }
                    }
                }
            }
            acc.cache_stats = policy.cache_stats();
            accums.push(acc);
            pendings.push(pending);
        }

        // Phase 2: the cluster leg. Each class with surviving offloads
        // becomes one tenant whose per-window hardness phases mirror
        // what actually crossed the wire (the hard remainder).
        let mut tenant_of_class: Vec<Option<usize>> = vec![None; cfg.classes.len()];
        let mut tenants = Vec::new();
        for (ci, class) in cfg.classes.iter().enumerate() {
            let pending = &mut pendings[ci];
            if pending.is_empty() {
                continue;
            }
            pending.sort_by_key(|p| (p.window, p.upload_done, p.sample));
            let mut phases = Vec::with_capacity(cfg.windows);
            for w in 0..cfg.windows {
                let in_window: Vec<&PendingOffload> =
                    pending.iter().filter(|p| p.window == w).collect();
                let easy_frac = if in_window.is_empty() {
                    0.5
                } else {
                    let easy = in_window.iter().filter(|p| p.hardness < 0.5).count();
                    easy as f64 / in_window.len() as f64
                };
                // Bucket to 0.05 so tiny count changes do not churn the
                // tenant's whole workload definition.
                let bucketed = (easy_frac * 20.0).round() / 20.0;
                phases.push(Phase {
                    dataset: DatasetModel::with_mix(bucketed),
                    duration: cfg.window,
                });
            }
            let demand = pending.len().div_ceil(cfg.windows);
            let mut spec = TenantSpec::nlp(&class.name, phases)
                .with_demand(demand)
                .with_slo(cfg.deadline);
            spec.model = cfg.model.clone();
            spec.policy = cfg.policy;
            tenant_of_class[ci] = Some(tenants.len());
            tenants.push(spec);
        }

        let cluster = if tenants.is_empty() {
            None
        } else {
            let sys = MultiTenantSystem::new(
                tenants,
                cfg.cluster.clone(),
                TenancyConfig {
                    windows: cfg.windows,
                    window: cfg.window,
                    realloc_every: 2,
                    seed: seeds.derive("edge-cluster"),
                    profile_samples: cfg.profile_samples,
                    max_splits: 2,
                    ..Default::default()
                },
            );
            Some(sys.run(&MarginalGoodput::default()))
        };

        // Phase 3: assign each offloaded request its cluster outcome,
        // deterministically, from the tenant window it landed in.
        let mut cloud_stats: Vec<(u64, u64)> = vec![(0, 0); cfg.classes.len()];
        for (ci, class) in cfg.classes.iter().enumerate() {
            let Some(ti) = tenant_of_class[ci] else {
                continue;
            };
            let mt = cluster.as_ref().expect("tenants imply a cluster run");
            let tr = &mt.tenants[ti];
            let acc = &mut accums[ci];
            let mut k_in_window = 0usize;
            let mut last_window = usize::MAX;
            for p in &pendings[ci] {
                if p.window != last_window {
                    last_window = p.window;
                    k_in_window = 0;
                }
                let k = k_in_window;
                k_in_window += 1;
                let wr = &tr.windows[p.window];
                let samples = wr.run.latency.samples_ms();
                let dr = wr.run.drop_rate();
                // Deterministic thinning at the window's drop rate: the
                // k-th offload is shed when the cumulative drop count
                // ticks up at k.
                let shed = ((k + 1) as f64 * dr).floor() > (k as f64 * dr).floor();
                if samples.is_empty() || shed {
                    events.push(p.upload_done, EdgeEvent::CloudDropped { sample: p.sample });
                    cloud_stats[ci].1 += 1;
                } else {
                    let idx = (k * 17 + 3) % samples.len();
                    let service = SimDuration::from_millis_f64(samples[idx]);
                    let completion = p.upload_done + service + class.wan.result_return();
                    let e2e = completion.saturating_since(p.arrival);
                    let within = e2e <= cfg.deadline;
                    acc.latency.record(e2e);
                    acc.within += u64::from(within);
                    acc.correct += u64::from(p.correct);
                    acc.last_completion = acc.last_completion.max(completion);
                    events.push(
                        completion,
                        EdgeEvent::CloudCompleted {
                            sample: p.sample,
                            within_deadline: within,
                        },
                    );
                    cloud_stats[ci].0 += 1;
                }
            }
        }

        // Phase 4: synthesize per-class reports.
        let horizon = cfg.horizon();
        let classes = cfg
            .classes
            .iter()
            .zip(accums)
            .zip(cloud_stats)
            .map(|((class, acc), (cloud_completed, cloud_dropped))| {
                let offloaded =
                    acc.requests - acc.local_exits - acc.local_completions - acc.aborted;
                let completed = acc.local_exits + acc.local_completions + cloud_completed;
                let dropped = acc.aborted + cloud_dropped;
                let duration = horizon.max(acc.last_completion.saturating_since(SimTime::ZERO));
                let run = RunReport {
                    duration,
                    completed,
                    within_slo: acc.within,
                    dropped,
                    correct: acc.correct,
                    latency: acc.latency,
                    replica_util: Vec::new(),
                    mean_dispatch_batch: Vec::new(),
                    exit_events: acc.exit_events,
                    slo: cfg.deadline,
                    stragglers_detected: Vec::new(),
                    peak_queue_depth: vec![acc.peak_queue_depth],
                    peak_replica_queue_depth: Vec::new(),
                    replica_availability: Vec::new(),
                    faults_injected: 0,
                    degraded_completed: 0,
                    degraded_within_slo: 0,
                    shed: dropped,
                    transfer_retries: acc.transfer_retries,
                    transfer_aborts: acc.aborted,
                    tokens_generated: 0,
                    kv_preemptions: 0,
                    robustness: RobustnessStats {
                        sheds: ShedBreakdown {
                            transfer_abort: acc.aborted,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                };
                ClassReport {
                    name: class.name.clone(),
                    tier: class.tier,
                    policy: acc.policy_label,
                    requests: acc.requests,
                    local_exits: acc.local_exits,
                    local_completions: acc.local_completions,
                    offloaded,
                    aborted: acc.aborted,
                    cloud_dropped,
                    cloud_completed,
                    transfer_retries: acc.transfer_retries,
                    mean_boundary: if acc.requests == 0 {
                        0.0
                    } else {
                        acc.boundary_sum as f64 / acc.requests as f64
                    },
                    cache_stats: acc.cache_stats,
                    run,
                }
            })
            .collect();

        EdgeReport {
            classes,
            cluster,
            events,
        }
    }
}

/// Rounds `want` down to the nearest feasible boundary (up to the
/// smallest when even the shallowest is deeper than the ask).
fn clamp_to_feasible(feasible: &[usize], want: usize) -> usize {
    feasible
        .iter()
        .rev()
        .find(|&&b| b <= want)
        .or_else(|| feasible.first())
        .copied()
        .expect("feasible set is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DeadlineAware, StaticSplit};
    use e3_hardware::{JitteredLink, LinkKind, LinkOutages};

    fn small_fleet(wan: WanSpec, deadline_ms: u64) -> EdgeFleet {
        let classes = vec![
            EdgeClassSpec {
                name: "orin".into(),
                tier: GpuKind::OrinNx,
                wan: wan.clone(),
                devices: 20,
                requests_per_device_window: 3,
                dataset: DatasetModel::with_mix(0.6),
            },
            EdgeClassSpec {
                name: "coral".into(),
                tier: GpuKind::CoralNpu,
                wan,
                devices: 12,
                requests_per_device_window: 2,
                dataset: DatasetModel::with_mix(0.6),
            },
        ];
        EdgeFleet::new(EdgeConfig {
            profile_samples: 300,
            ..EdgeConfig::deebert(
                classes,
                3,
                SimDuration::from_secs(1),
                SimDuration::from_millis(deadline_ms),
                ClusterSpec::homogeneous(GpuKind::V100, 4, 2),
                11,
            )
        })
    }

    #[test]
    fn every_admitted_request_is_accounted_exactly_once() {
        let fleet = small_fleet(WanSpec::healthy(LinkKind::WanFiber), 150);
        let report = fleet.run(&mut |_, tables| Box::new(DeadlineAware::new(tables)));
        assert_eq!(report.requests(), (20 * 3 + 12 * 2) * 3);
        for c in &report.classes {
            assert_eq!(
                c.local_exits + c.local_completions + c.offloaded + c.aborted,
                c.requests,
                "{}: device-side accounting",
                c.name
            );
            assert_eq!(
                c.offloaded,
                c.cloud_completed + c.cloud_dropped,
                "{}: cloud-side accounting",
                c.name
            );
            assert_eq!(c.run.completed + c.run.dropped, c.requests);
            assert_eq!(c.run.latency.count() as u64, c.run.completed);
        }
        // Event-stream view agrees: one terminal per admitted sample.
        let admitted = report
            .events
            .count(|e| matches!(e, EdgeEvent::Admitted { .. }));
        let terminals = report.events.count(|e| e.is_terminal());
        assert_eq!(admitted, terminals);
        assert_eq!(admitted as u64, report.requests());
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let fleet = small_fleet(
                WanSpec {
                    link: JitteredLink::new(LinkKind::WanCellular, 0.3, 5),
                    outages: LinkOutages::periodic(
                        SimTime::from_millis(700),
                        SimDuration::from_secs(1),
                        SimDuration::from_millis(200),
                        SimDuration::from_secs(3),
                    ),
                    result_bytes: 4096,
                },
                150,
            );
            fleet.run(&mut |_, tables| Box::new(DeadlineAware::new(tables)))
        };
        let a = run();
        let b = run();
        assert_eq!(a.events.events(), b.events.events());
        assert_eq!(a.attainment(), b.attainment());
        for (ca, cb) in a.classes.iter().zip(&b.classes) {
            assert_eq!(ca.mean_boundary, cb.mean_boundary);
            assert_eq!(ca.run.within_slo, cb.run.within_slo);
        }
    }

    #[test]
    fn outages_force_retries_and_aborts_for_static_split() {
        // A link that is down half of every second. StaticSplit keeps
        // offloading into it; uploads landing in a burst must wait
        // (TransferRetried) and — with a 150 ms deadline against 500 ms
        // bursts — mostly abort, starving the cloud leg.
        let flaky = WanSpec {
            link: JitteredLink::fixed(LinkKind::WanFiber),
            outages: LinkOutages::periodic(
                SimTime::from_millis(250),
                SimDuration::from_secs(1),
                SimDuration::from_millis(500),
                SimDuration::from_secs(3),
            ),
            result_bytes: 4096,
        };
        let run = |wan: WanSpec| {
            small_fleet(wan, 150).run(&mut |_, _| Box::new(StaticSplit { boundary: 6 }))
        };
        let healthy = run(WanSpec::healthy(LinkKind::WanFiber));
        let degraded = run(flaky);
        let retries: u64 = degraded.classes.iter().map(|c| c.transfer_retries).sum();
        let aborts: u64 = degraded.classes.iter().map(|c| c.aborted).sum();
        assert!(retries > 0, "outages must interrupt uploads");
        assert!(aborts > 0, "late link recovery must abort doomed uploads");
        // Healthy links can still abort (a queue-delayed prefix that
        // already blew the deadline), but never retry, and far less.
        let healthy_retries: u64 = healthy.classes.iter().map(|c| c.transfer_retries).sum();
        assert_eq!(healthy_retries, 0, "no outages, no retries");
        let healthy_aborts: u64 = healthy.classes.iter().map(|c| c.aborted).sum();
        assert!(aborts > healthy_aborts, "{aborts} !> {healthy_aborts}");
        let cloud = |r: &EdgeReport| -> u64 { r.classes.iter().map(|c| c.cloud_completed).sum() };
        assert!(
            cloud(&degraded) < cloud(&healthy),
            "aborted uploads must starve the cloud leg: degraded {} !< healthy {}",
            cloud(&degraded),
            cloud(&healthy)
        );
        // Aborts surface in the standard report as transfer-abort sheds.
        let shed_aborts: u64 = degraded
            .classes
            .iter()
            .map(|c| c.run.robustness.sheds.transfer_abort)
            .sum();
        assert_eq!(shed_aborts, aborts);
        // Static policy reports no planner cache.
        assert!(degraded.classes[0].cache_stats.is_none());
    }

    #[test]
    fn cluster_leg_exists_only_when_something_offloads() {
        // Loose deadline + DeadlineAware: the Orin class runs fully
        // local; only the memory-starved Coral class must offload.
        let fleet = small_fleet(WanSpec::healthy(LinkKind::WanFiber), 400);
        let report = fleet.run(&mut |_, tables| Box::new(DeadlineAware::new(tables)));
        let orin = &report.classes[0];
        let coral = &report.classes[1];
        assert_eq!(orin.offloaded + orin.aborted, 0, "Orin should stay local");
        assert!(coral.offloaded > 0, "Coral cannot hold the full model");
        let mt = report
            .cluster
            .as_ref()
            .expect("coral offloads need a cluster");
        assert_eq!(mt.tenants.len(), 1);
        assert_eq!(mt.tenants[0].name, "coral");
        // Planner cache warms: decisions vastly outnumber misses.
        let (hits, misses) = orin.cache_stats.unwrap();
        assert!(hits > misses, "hits={hits} misses={misses}");
    }
}
