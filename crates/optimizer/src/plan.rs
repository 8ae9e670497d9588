//! Split plans: the optimizer's output and the runtime's input.
//!
//! A plan carries its predicted goodput and worst-case latency. The
//! latency is the serial path of one batch plus one cycle per stage; it
//! charges no batch formation, so it does not bound open-loop tails.

use std::fmt;
use std::ops::Range;

use e3_hardware::GpuKind;
use e3_simcore::SimDuration;

/// One split: a contiguous layer block, its placement, and its batching.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Half-open layer range this split executes.
    pub layers: Range<usize>,
    /// GPU kind hosting every replica of this split (the paper constrains
    /// a split's replicas to one kind, §3.2.3).
    pub gpu: GpuKind,
    /// Number of replicas.
    pub replicas: usize,
    /// Batch size each replica runs with (E3 keeps this equal to the
    /// model's input batch — the constant-batch invariant).
    pub batch: f64,
    /// Expected surviving batch at the split's end.
    pub batch_out: f64,
    /// One replica's time per batch.
    pub batch_time: SimDuration,
    /// Per-input-batch effective time (survival-weighted, replica-shared).
    pub effective_time: SimDuration,
}

/// A complete execution plan for one EE-DNN.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// The splits, in layer order.
    pub splits: Vec<Split>,
    /// Activation-transfer time at each interior boundary
    /// (`len == splits.len() - 1`).
    pub transfers: Vec<SimDuration>,
    /// The steady-state pipeline cycle time: with pipelining, the max of
    /// stage effective times and transfers; without, their sum.
    pub cycle_time: SimDuration,
    /// Worst-case end-to-end request latency (serial path + pipeline
    /// occupancy), checked against the SLO budget. It charges no batch
    /// formation, so it is not a bound on open-loop tails.
    pub worst_case_latency: SimDuration,
    /// Estimated goodput in input samples/second.
    pub goodput: f64,
    /// Whether the plan uses pipelining.
    pub pipelined: bool,
}

impl SplitPlan {
    /// Total GPUs used.
    pub fn gpus_used(&self) -> usize {
        self.splits.iter().map(|s| s.replicas).sum()
    }

    /// Dollar cost per second of the GPUs this plan occupies.
    pub fn cost_per_sec(&self) -> f64 {
        self.splits
            .iter()
            .map(|s| s.replicas as f64 * s.gpu.cost_per_sec())
            .sum()
    }

    /// Number of splits.
    pub fn num_splits(&self) -> usize {
        self.splits.len()
    }

    /// The layer boundaries between splits (exclusive of 0 and L).
    pub fn boundaries(&self) -> Vec<usize> {
        self.splits.iter().skip(1).map(|s| s.layers.start).collect()
    }

    /// Validates structural invariants: contiguous coverage of
    /// `0..num_layers`, at least one replica each, transfer count.
    ///
    /// # Panics
    ///
    /// Panics on violation — plans are produced by the optimizer, where a
    /// violation is a bug, not an input error.
    pub fn assert_valid(&self, num_layers: usize) {
        assert!(!self.splits.is_empty(), "plan has no splits");
        assert_eq!(self.splits[0].layers.start, 0, "plan must start at layer 0");
        assert_eq!(
            self.splits.last().expect("nonempty").layers.end,
            num_layers,
            "plan must cover the whole model"
        );
        for w in self.splits.windows(2) {
            assert_eq!(
                w[0].layers.end, w[1].layers.start,
                "splits must be contiguous"
            );
        }
        assert!(
            self.splits.iter().all(|s| s.replicas >= 1),
            "every split needs a replica"
        );
        assert_eq!(
            self.transfers.len(),
            self.splits.len() - 1,
            "one transfer per interior boundary"
        );
    }
}

impl SplitPlan {
    /// Checks that every split's weights plus double-buffered activations
    /// fit its replicas' device memory (§3.1's resource safety check).
    /// Parameter counts are estimated from the calibrated compute costs.
    #[cfg(test)]
    pub(crate) fn memory_feasible(&self, model: &e3_model::EeModel) -> bool {
        self.splits.iter().all(|split| {
            crate::stage::stage_fits(model, split.layers.clone(), split.batch, split.gpu)
        })
    }
}

impl fmt::Display for SplitPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan[{} split(s), {} GPU(s), cycle {}, goodput {:.0}/s]",
            self.num_splits(),
            self.gpus_used(),
            self.cycle_time,
            self.goodput
        )?;
        for s in &self.splits {
            write!(
                f,
                " {}..{}x{}@{} b={:.0}",
                s.layers.start, s.layers.end, s.replicas, s.gpu, s.batch
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(layers: Range<usize>, replicas: usize) -> Split {
        Split {
            layers,
            gpu: GpuKind::V100,
            replicas,
            batch: 8.0,
            batch_out: 4.0,
            batch_time: SimDuration::from_millis(10),
            effective_time: SimDuration::from_millis(5),
        }
    }

    fn plan() -> SplitPlan {
        SplitPlan {
            splits: vec![split(0..6, 2), split(6..12, 1)],
            transfers: vec![SimDuration::from_millis(1)],
            cycle_time: SimDuration::from_millis(5),
            worst_case_latency: SimDuration::from_millis(30),
            goodput: 1600.0,
            pipelined: true,
        }
    }

    #[test]
    fn accessors() {
        let p = plan();
        p.assert_valid(12);
        assert_eq!(p.gpus_used(), 3);
        assert_eq!(p.num_splits(), 2);
        assert_eq!(p.boundaries(), vec![6]);
        assert!((p.cost_per_sec() - 3.0 * GpuKind::V100.cost_per_sec()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cover the whole model")]
    fn incomplete_coverage_detected() {
        plan().assert_valid(13);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gap_detected() {
        let mut p = plan();
        p.splits[1].layers = 7..12;
        p.transfers = vec![SimDuration::ZERO];
        p.assert_valid(12);
    }

    #[test]
    fn memory_feasibility_checks_plan() {
        use e3_model::zoo;
        let p = plan();
        // BERT-BASE at batch 8 trivially fits a V100.
        assert!(p.memory_feasible(&zoo::bert_base()));
        // A monster batch of the Llama model (4 MiB activations/sample)
        // on a 12 GiB K80 does not: 2048 double-buffered samples alone
        // need ~17 GiB.
        let mut big = plan();
        big.splits[0].layers = 0..16;
        big.splits[1].layers = 16..32;
        big.splits.iter_mut().for_each(|s| {
            s.gpu = GpuKind::K80;
            s.batch = 2048.0;
        });
        assert!(!big.memory_feasible(&zoo::llama31_8b()));
    }

    #[test]
    fn display_is_informative() {
        let s = plan().to_string();
        assert!(s.contains("2 split(s)"));
        assert!(s.contains("V100"));
    }
}
