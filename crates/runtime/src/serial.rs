//! Serial split execution — the "model parallelism OFF" schedule (§5.8.7).
//!
//! Without model parallelism, E3 "must execute the splits in the same
//! GPU serially, waiting for all copies of a split to finish before it
//! can start executing the next". The optimizer solves such a plan with
//! `pipelined: false`, and its realized stages all run on the same
//! data-parallel GPU set. [`crate::engine::ServingSim::run`] serves that
//! deployment with the barrier schedule here: the GPU set runs stage `s`
//! on every outstanding batch, idles at a barrier, gathers survivors over
//! PCIe, re-forms full batches, and only then starts stage `s+1`. The
//! idle time at each barrier (the max-minus-mean of the wave) is what the
//! pipelined mode eliminates — the gap plotted in fig. 26.
//!
//! The schedule is lockstep, so it drains no event queue: it only
//! advances an [`EventQueue`]'s clock ([`EventQueue::advance`]), and its
//! metrics flow through the same [`RunAccumulator`] the event loop uses.
//! It narrates no kernel events.

use e3_hardware::{LinkKind, TransferModel};
use e3_simcore::{EventQueue, SimDuration, SimTime};

use crate::engine::ServingSim;
use crate::executor::ExecTables;
use crate::kernel::RunAccumulator;
use crate::report::RunReport;
use crate::sample::SimSample;

/// Serves `samples` on `sim`'s stages with a barrier at every boundary.
/// Every stage runs at the first stage's target batch, on the first
/// stage's GPU set.
///
/// # Panics
///
/// Panics in open loop, or with faults planned: the barrier schedule has
/// neither form.
pub(crate) fn run_barrier(sim: &ServingSim<'_>, samples: &[SimSample]) -> RunReport {
    assert!(
        sim.cfg.closed_loop,
        "the barrier schedule of a serial plan (model parallelism off) has no open-loop form"
    );
    assert!(
        sim.cfg.fault_plan.is_empty(),
        "the barrier schedule of a serial plan (model parallelism off) injects no faults"
    );
    let (model, stages) = (sim.model, &sim.stages);
    let gpus = &stages[0].replicas;
    let b0 = stages[0].target_batch;
    let gather = TransferModel::new(LinkKind::Pcie);
    let m = gpus.len();
    // Pure lockstep: the queue only lends its clock; nothing is scheduled.
    let mut q: EventQueue<()> = EventQueue::new();
    let mut acc = RunAccumulator::new(stages.len(), m, sim.cfg.slo, true);
    acc.reserve(samples.len());
    let mut exec = ExecTables::new(sim);
    // Every dispatch in this mode is exactly b0 wide, at every stage.
    for st in 0..stages.len() {
        acc.record_dispatch(st, b0 as f64);
    }

    // Super-rounds of m * b0 samples keep every GPU busy in stage 0.
    for chunk in samples.chunks(m * b0) {
        let round_start = q.now();
        let mut alive: Vec<SimSample> = chunk.to_vec();
        for (si, stage) in stages.iter().enumerate() {
            if alive.is_empty() {
                break;
            }
            let end = stage.layers.end;
            // Re-form full batches from survivors and run them in waves
            // of m, with a barrier after each wave.
            let batches: Vec<&[SimSample]> = alive.chunks(b0).collect();
            for wave in batches.chunks(m) {
                let mut wave_max = SimDuration::ZERO;
                for (g, batch) in wave.iter().enumerate() {
                    let out = exec.execute(si, gpus[g], batch, 1.0);
                    acc.record_busy(g, out.duration, out.mean_occupancy);
                    wave_max = wave_max.max(out.duration);
                }
                q.advance(wave_max); // the barrier: everyone waits for the slowest
            }
            // Gather survivors across GPUs over shared PCIe.
            let survivors: Vec<SimSample> = alive
                .iter()
                .filter(|s| !s.finishes_before(end))
                .copied()
                .collect();
            let finished: Vec<SimSample> = alive
                .iter()
                .filter(|s| s.finishes_before(end))
                .copied()
                .collect();
            if end < model.num_layers() && !survivors.is_empty() {
                q.advance(
                    gather
                        .batch_transfer_time(model.boundary_bytes(end - 1), survivors.len() as f64),
                );
            }
            let clock = q.now();
            for mut s in finished {
                s.arrival = round_start; // latency = time since the round began
                acc.complete(&s, clock);
            }
            alive = survivors;
        }
        assert!(alive.is_empty(), "samples survived past the final stage");
    }

    let duration = q.now().saturating_since(SimTime::ZERO);
    acc.finish(duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServingConfig;
    use crate::kernel::NullObserver;
    use crate::strategy::StageSpec;
    use e3_hardware::{GpuKind, LatencyModel};
    use e3_model::{zoo, InferenceSim, RampController, RampStyle};
    use e3_simcore::SimTime;
    use e3_workload::Request;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn requests(n: usize) -> Vec<Request> {
        let ds = e3_workload::DatasetModel::sst2();
        let mut rng = StdRng::seed_from_u64(1);
        (0..n as u64)
            .map(|id| Request {
                id,
                arrival: SimTime::ZERO,
                hardness: ds.sample_hardness(&mut rng),
                output_tokens: 1,
            })
            .collect()
    }

    /// DeeBERT split at `boundaries`, every split on the same `gpus`
    /// V100s at batch `b0`, served serially.
    fn run(boundaries: &[usize], gpus: usize, b0: usize) -> RunReport {
        let model = zoo::deebert();
        let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
        let cuts: Vec<usize> = std::iter::once(0)
            .chain(boundaries.iter().copied())
            .chain(std::iter::once(model.num_layers()))
            .collect();
        let stages = cuts
            .windows(2)
            .map(|w| StageSpec {
                layers: w[0]..w[1],
                target_batch: b0,
                replicas: vec![GpuKind::V100; gpus],
                deferred_exits: true,
            })
            .collect();
        let sim = ServingSim {
            pipelined: false,
            ..ServingSim::new(
                &model,
                zoo::default_policy("DeeBERT"),
                ctrl,
                InferenceSim::new(),
                stages,
                LatencyModel::new(),
                TransferModel::default(),
                ServingConfig::default(),
            )
        };
        sim.run(&requests(8000), 7, &mut NullObserver)
    }

    #[test]
    fn completes_everything() {
        let r = run(&[6], 4, 8);
        assert_eq!(r.completed, 8000);
        assert_eq!(r.dropped, 0);
        assert!(r.goodput() > 0.0);
    }

    #[test]
    fn serial_refusion_pays_barrier_costs() {
        // With barriers, re-fusing at a boundary costs idle waves and a
        // PCIe gather; above GPU saturation that outweighs the refusion
        // benefit — exactly why the paper's MP-OFF mode underperforms.
        let none = run(&[], 4, 8);
        let split = run(&[6], 4, 8);
        assert!(split.goodput() > none.goodput() * 0.6, "not catastrophic");
        assert!(
            split.goodput() < none.goodput() * 1.1,
            "barriers must not be free: split {} none {}",
            split.goodput(),
            none.goodput()
        );
    }

    #[test]
    fn more_gpus_more_goodput() {
        let small = run(&[6], 2, 8);
        let big = run(&[6], 8, 8);
        assert!(big.goodput() > small.goodput() * 1.5);
    }

    #[test]
    fn deterministic() {
        let a = run(&[4, 8], 4, 8);
        let b = run(&[4, 8], 4, 8);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.samples_ms(), b.latency.samples_ms());
    }

    #[test]
    fn report_shape_matches_barrier_mode() {
        // The accumulator path must reproduce the mode's fixed-shape
        // fields: constant dispatch width, no drops, no stragglers.
        let r = run(&[4, 8], 4, 8);
        assert_eq!(r.mean_dispatch_batch, vec![8.0, 8.0, 8.0]);
        assert_eq!(r.peak_queue_depth, vec![0, 0, 0]);
        assert!(r.stragglers_detected.is_empty());
        assert_eq!(r.exit_events.len() as u64, r.completed);
    }
}
