#!/usr/bin/env bash
# Tier-1 gate: format, build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --locked
cargo test -q
cargo clippy --all-targets -- -D warnings

# Rustdoc: broken or private intra-doc links fail the gate, so a
# deleted item cannot leave a dangling link behind (a few seconds).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --locked

# Code size: non-test Rust lines per crate, printed for the record and
# never gated.
scripts/loc.sh

# The examples: `cargo test` only builds them, so run each release
# binary too. An example that panics, exits non-zero or prints anything
# other than its pinned stdout in examples/golden/ fails the gate (all
# five take about a second together).
cargo build --release --locked -p e3-examples --examples
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    ./target/release/examples/"$name" | diff -u "examples/golden/$name.txt" -
done

# The whole experiment registry, run once in-process, with per-figure
# wall time archived as BENCH_figures.json. It catches a figure quietly
# becoming 10x slower, and `figures` exits non-zero if any figure's
# output says FAIL: a scenario-matrix cell failing invariant checking
# or the 10k-GPU planning budget missed. Every smoke check below reads
# this one captured run.
BENCH_FIGURES_JSON=BENCH_figures.json ./target/release/figures > /tmp/figures.out
test -s /tmp/figures.out
grep -q "experiments completed" /tmp/figures.out
grep -q '"total_wall_s"' BENCH_figures.json

# expect <figure> <pattern>: fails unless the figure's section of the
# captured run (between its `=== name ===` banner and the next) has a
# line matching the pattern.
expect() {
    awk -v banner=" $1 " -v pat="$2" '
        /^=====/ { on = index($0, banner) > 0; next }
        on && $0 ~ pat { found = 1 }
        END { exit !found }' /tmp/figures.out
}

# Smoke pass: the fault-degradation sweep, the guarded-reconfiguration
# sweep, the multi-tenant allocation sweep, and one paper figure produce
# their tables.
expect fig_degradation "RelativeSlowdown"
expect fig_reconfig "watchdog decisions"
expect fig_multitenant "MarginalGoodput"
expect fig07_nlp_goodput "goodput vs batch size"

# LLM smoke pass: the continuous-batching port must serve an
# autoregressive figure and win the KV-pressure sweep.
expect fig10_llm_translation "goodput vs batch size"
expect fig_kv_pressure "continuous batching beats window batching"

# Scenario-matrix smoke: the pruned composed-stress subset (crash and
# slowdown-plus-stall cells among them) must pass invariant checking
# with zero violations. The full 96-cell cross product runs as
# `fig_matrix_full`.
expect fig_matrix "zero invariant violations"

# Planning-at-scale smoke: a cold split search must plan a 10k-GPU
# cluster inside the budget (its wall-clock section self-judges).
expect fig_scale "10k-GPU horizon PASS"

# The host-time benchmark is its own package under benchmark/ and
# builds against the crates' public API, so a breaking change shows
# here. First its format and lint gates, the fast half of
# benchmark/check.sh (its `cargo test` is timing-sensitive and stays
# there).
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --release --offline --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings

# One short traced run per workload and seed: traced iterations run the
# invariant checker over every event stream (closed_drift's slowdown
# and crash windows included) and must match the untraced digests. The
# last stdout line reports whether iterations 0-7 matched the pinned
# digests. A second seed catches a change that holds the digests on one
# seed's draws only.
for seed in 227 48879; do
    for workload in closed_drift open_bursty tenants_skewed llm_kv_sweep; do
        cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 1 > /tmp/benchmark.out
        last=$(tail -n 1 /tmp/benchmark.out)
        if [[ "$last" != *'"correct": true'* ]]; then
            echo "benchmark $workload (seed $seed): $last" >&2
            exit 1
        fi
    done
done

# Kernel event-throughput microbenchmark, archived as BENCH_kernel.json.
# The committed baseline is the regression bar: fail if the windowed,
# MP-OFF, continuous-batching or open-loop kernel section, the
# per-request exit materialization, or open-loop request generation
# drops more than 30% below it.
./target/release/bench_kernel | tee /tmp/bench_kernel.out
grep -q "events_per_sec" /tmp/bench_kernel.out
# The sections' event and layer counts depend on the code, not the host:
# a kernel change that alters how many events a run emits shows here.
# The four kernel sections also pin a digest of every event's time and
# text, so a mispriced layer or a reordered event that keeps the counts
# shows too.
grep -q '"bench":"kernel",.*"events":55934,"digest":"74d5066f5d802e83",' /tmp/bench_kernel.out
# Model parallelism OFF: the same deployment's serial plan under the
# kernel's phase barrier, pinned so a kernel change cannot move it
# silently.
grep -q '"bench":"kernel_mp_off",.*"events":61672,"digest":"e11540f1e55d8c75",' /tmp/bench_kernel.out
grep -q '"bench":"kernel_continuous",.*"events":594756,"digest":"50ecd1d23599bc7a",' /tmp/bench_kernel.out
grep -q '"bench":"kernel_multi_tenant",.*"events":8568,"digest":"769c989f6e218ee2",' /tmp/bench_kernel.out
# The exit sampler is pinned by its outcomes, not only their layer sum:
# a digest of every outcome and the RNG's next word, under DeeBERT's
# entropy threshold and under PABEE's patience policy.
grep -q '"bench":"materialize",.*"layers":109136,"digest":"aa245db311d238db","patience_digest":"8b764e1fc45cd19c",' /tmp/bench_kernel.out
# The open-loop section is the one that runs SLO-slack admission, so its
# drop count is gated too; it is also the one that merges the arrival
# backlog with the queue through `pop_before`.
grep -q '"bench":"kernel_open",.*"dropped":263,"events":87267,"digest":"cd3783f1ca499717",' /tmp/bench_kernel.out
# Generation is pinned by its request count and a digest of every
# request's arrival and hardness bits: a sampling change that moves one
# draw shows here.
grep -q '"bench":"generate",.*"requests":130254,"digest":"11a7415516840c26",' /tmp/bench_kernel.out
# The windowed kernel section's page faults follow the size of the
# per-sample records it stores and copies, so they read the code, not
# the host: 24-byte samples and 16-byte exit events hold them near 815,
# where 48- and 24-byte records read about 1,840.
faults=$(sed -n 's/.*"bench":"kernel",.*"minor_faults":\([0-9]*\).*/\1/p' /tmp/bench_kernel.out)
if [ -z "$faults" ] || [ "$faults" -gt 1200 ]; then
    echo "bench_kernel: kernel section minor_faults ${faults:-missing} > 1200" >&2
    exit 1
fi
# A section the baseline does not record yet (kernel_mp_off, until the
# archived BENCH_kernel.json holds it) must be present but has no floor;
# its floor binds from the first run that records it.
for section in kernel kernel_mp_off kernel_continuous materialize kernel_open generate; do
    scripts/bench_floor.sh "$section" BENCH_kernel.json /tmp/bench_kernel.out
done
cp /tmp/bench_kernel.out BENCH_kernel.json

# Optimizer planning-time benchmark (cold single-kind solves up to 10k
# GPUs plus the heterogeneous solve, cold and on shared stage tables),
# archived as BENCH_optimizer.json. The search's counts depend on the
# code, not the host: the bound must keep pruning exactly as much, on
# the 10k-GPU single-kind pool and on the mixed pool.
./target/release/bench_optimizer | tee BENCH_optimizer.json
grep -q '"gpus":10000,.*"assignments":232,"pruned":13' BENCH_optimizer.json
grep -q '"bench":"optimizer_hetero"' BENCH_optimizer.json
grep -q '"assignments":14952,"pruned":14620' BENCH_optimizer.json
# The small pools the tenant allocator asks for, most with fewer GPUs
# than the deepest boundary sets have stages: the counts must hold where
# whole boundary sets have no kind assignment that fits.
grep -q '"bench":"optimizer_tenant_pools",.*"assignments":58056,"pruned":30410' BENCH_optimizer.json
