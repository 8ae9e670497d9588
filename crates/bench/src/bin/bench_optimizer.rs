//! Optimizer planning-time benchmark: wall time vs cluster size.
//!
//! Times three planning modes of the warm-started incremental DP at each
//! cluster size, up to the 10k-GPU horizon:
//!
//! * `cold` — fresh [`PlanCache`]: the full binary-search DP fills its
//!   tables from scratch.
//! * `warm` — the immediately repeated query: a cache hit, so the plan
//!   is pure parent-pointer reconstruction.
//! * `extend` — the cache holds tables for a smaller cluster (7/8 of
//!   `m`); only the missing GPU columns are filled.
//!
//! A final `optimizer_hetero` line times one cold heterogeneous solve on
//! the paper's 6 V100 + 8 P100 + 15 K80 pool at `max_splits = 4`, with
//! the kind assignments its search space held and how many the lower
//! bound pruned.
//!
//! One JSON line per measurement so CI can archive the output as
//! `BENCH_optimizer.json`:
//!
//! ```text
//! cargo run --release -p e3-bench --bin bench_optimizer > BENCH_optimizer.json
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_model::{zoo, BatchProfile, RampController, RampStyle};
use e3_optimizer::{
    optimize_heterogeneous_with_stats, optimize_homogeneous_cached, OptimizerConfig, PlanCache,
};

fn main() {
    let model = zoo::deebert();
    let ctrl = RampController::all_enabled(model.num_ramps(), RampStyle::Independent);
    let profile = BatchProfile::new(vec![
        1.0, 0.97, 0.83, 0.65, 0.49, 0.36, 0.27, 0.22, 0.21, 0.19, 0.16, 0.11, 0.11,
    ]);
    let (tm, lm) = (TransferModel::default(), LatencyModel::new());
    let cfg = OptimizerConfig {
        max_splits: 4,
        ..Default::default()
    };
    let solve = |m: usize, cache: &mut PlanCache| {
        optimize_homogeneous_cached(
            &model,
            &ctrl,
            &profile,
            GpuKind::V100,
            m,
            8.0,
            &tm,
            &lm,
            &cfg,
            cache,
        )
    };

    for &m in &[16usize, 100, 1000, 10_000] {
        let mut cache = PlanCache::new();
        let start = Instant::now();
        let cold_plan = solve(m, &mut cache);
        let cold = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let warm_plan = solve(m, &mut cache);
        let warm = start.elapsed().as_secs_f64();
        assert_eq!(cold_plan, warm_plan, "warm re-plan must equal cold solve");

        let mut cache = PlanCache::new();
        solve(m - m / 8, &mut cache);
        let start = Instant::now();
        let ext_plan = solve(m, &mut cache);
        let extend = start.elapsed().as_secs_f64();
        assert_eq!(cold_plan, ext_plan, "extended solve must equal cold solve");

        println!(
            "{{\"bench\":\"optimizer\",\"gpus\":{},\"splits\":{},\"cold_secs\":{:.6},\"warm_secs\":{:.6},\"extend_secs\":{:.6},\"warm_speedup\":{:.1},\"extend_speedup\":{:.1}}}",
            m,
            cold_plan.splits.len(),
            cold,
            warm,
            extend,
            cold / warm.max(1e-9),
            cold / extend.max(1e-9)
        );
    }

    let pool = BTreeMap::from([(GpuKind::V100, 6), (GpuKind::P100, 8), (GpuKind::K80, 15)]);
    let start = Instant::now();
    let (plan, stats) =
        optimize_heterogeneous_with_stats(&model, &ctrl, &profile, &pool, 8.0, &tm, &lm, &cfg);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{{\"bench\":\"optimizer_hetero\",\"gpus\":{},\"splits\":{},\"cold_secs\":{:.6},\"assignments\":{},\"pruned\":{}}}",
        pool.values().sum::<usize>(),
        plan.splits.len(),
        secs,
        stats.assignments,
        stats.pruned
    );
}
