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

use e3_bench::figs::{scale_hetero_solver, scale_solver, SCALE_SIZES};
use e3_hardware::GpuKind;
use e3_optimizer::PlanCache;

fn main() {
    let solve = scale_solver();
    for &m in &SCALE_SIZES {
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
    let solve_hetero = scale_hetero_solver();
    let start = Instant::now();
    let (plan, stats) = solve_hetero(&pool);
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
