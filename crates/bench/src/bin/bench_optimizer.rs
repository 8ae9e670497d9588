//! Optimizer planning-time benchmark: wall time vs cluster size.
//!
//! Times one cold solve of the split search on `m` V100s at each cluster
//! size, up to the 10k-GPU horizon, and reports the kind assignments its
//! search space held and how many of them the lower bound pruned. With
//! one kind there is one assignment per boundary set, so the counts do
//! not grow with `m`.
//!
//! A final `optimizer_hetero` line times the heterogeneous solve on the
//! paper's 6 V100 + 8 P100 + 15 K80 pool at `max_splits = 4`, each the
//! fastest of 200 runs: `cold_secs` builds its stage tables, and
//! `tabled_secs` is a value-oracle query on tables an earlier query
//! built, which is what each query of the tenant allocator pays. It also
//! reports the kind assignments the search space held and how many the
//! lower bound pruned.
//!
//! A last `optimizer_tenant_pools` line times cold solves of a fixed
//! list of small pools (`TENANT_POOLS`), the shapes the tenant
//! allocator's value oracle asks for as it grows each grant a GPU at a
//! time: most hold fewer GPUs than the deepest boundary sets have
//! stages. It reports the whole list's fastest time of 200 runs and its
//! summed assignment and pruning counts.
//!
//! One JSON line per measurement so CI can archive the output as
//! `BENCH_optimizer.json`:
//!
//! ```text
//! cargo run --release -p e3-bench --bin bench_optimizer > BENCH_optimizer.json
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use e3_bench::figs::{scale_pool, scale_problem, scale_solver, SCALE_SIZES};
use e3_hardware::{GpuKind, LatencyModel, TransferModel};
use e3_optimizer::ValueOracle;

fn main() {
    let solve = scale_solver();
    for &m in &SCALE_SIZES {
        let start = Instant::now();
        let (plan, stats) = solve(&scale_pool(m));
        let cold = start.elapsed().as_secs_f64();
        println!(
            "{{\"bench\":\"optimizer\",\"gpus\":{},\"splits\":{},\"cold_secs\":{:.6},\"assignments\":{},\"pruned\":{}}}",
            m,
            plan.splits.len(),
            cold,
            stats.assignments,
            stats.pruned
        );
    }

    let pool = BTreeMap::from([(GpuKind::V100, 6), (GpuKind::P100, 8), (GpuKind::K80, 15)]);
    let (plan, stats) = solve(&pool);
    let cold = fastest(
        || (),
        |()| assert_eq!(solve(&pool).0, plan, "every cold solve plans alike"),
    );

    // What each value-oracle query pays: an oracle fills each kind's
    // stage table on the first subset holding it, so solve a smaller
    // pool of the same kinds first.
    let (model, ctrl, profile, cfg) = scale_problem();
    let (tm, lm) = (TransferModel::default(), LatencyModel::new());
    let mut warm = pool.clone();
    *warm.get_mut(&GpuKind::K80).expect("K80 in the pool") -= 1;
    let tabled = fastest(
        || {
            let mut oracle = ValueOracle::new(&model, &ctrl, &profile, 8.0, &tm, &lm, &cfg);
            oracle.value(&warm);
            oracle
        },
        |mut oracle| {
            assert_eq!(oracle.value(&pool).goodput, plan.goodput);
        },
    );

    println!(
        "{{\"bench\":\"optimizer_hetero\",\"gpus\":{},\"splits\":{},\"cold_secs\":{:.6},\"tabled_secs\":{:.6},\"assignments\":{},\"pruned\":{}}}",
        pool.values().sum::<usize>(),
        plan.splits.len(),
        cold,
        tabled,
        stats.assignments,
        stats.pruned
    );

    let pools: Vec<BTreeMap<GpuKind, usize>> = TENANT_POOLS
        .iter()
        .map(|pool| pool.iter().copied().collect())
        .collect();
    let (mut assignments, mut pruned) = (0, 0);
    for pool in &pools {
        let (_, stats) = solve(pool);
        assignments += stats.assignments;
        pruned += stats.pruned;
    }
    let cold = fastest(
        || (),
        |()| {
            for pool in &pools {
                solve(pool);
            }
        },
    );
    println!(
        "{{\"bench\":\"optimizer_tenant_pools\",\"pools\":{},\"gpus\":{},\"cold_secs\":{:.6},\"assignments\":{},\"pruned\":{}}}",
        pools.len(),
        pools.iter().flat_map(|p| p.values()).sum::<usize>(),
        cold,
        assignments,
        pruned
    );
}

/// Small pools of the paper cluster's kinds, as the tenant allocator
/// grows grants from them.
const TENANT_POOLS: [&[(GpuKind, usize)]; 10] = [
    &[(GpuKind::V100, 1)],
    &[(GpuKind::K80, 1)],
    &[(GpuKind::V100, 1), (GpuKind::K80, 1)],
    &[(GpuKind::V100, 1), (GpuKind::P100, 1)],
    &[(GpuKind::P100, 1), (GpuKind::K80, 2)],
    &[(GpuKind::V100, 1), (GpuKind::P100, 1), (GpuKind::K80, 1)],
    &[(GpuKind::K80, 4)],
    &[(GpuKind::V100, 2), (GpuKind::K80, 2)],
    &[(GpuKind::V100, 2), (GpuKind::P100, 1), (GpuKind::K80, 2)],
    &[(GpuKind::V100, 2), (GpuKind::P100, 2), (GpuKind::K80, 3)],
];

/// Repetitions behind each heterogeneous timing; the fastest is reported.
const HETERO_REPS: usize = 200;

/// The fastest of [`HETERO_REPS`] runs of `f`, each on a fresh, untimed
/// `setup()`, in seconds.
fn fastest<T>(mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    (0..HETERO_REPS)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            f(input);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}
