#!/usr/bin/env bash
# Tier-1 gate: format, build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --locked
cargo test -q
cargo clippy --all-targets -- -D warnings

# Smoke pass: the fault-degradation sweep, the guarded-reconfiguration
# sweep, the multi-tenant allocation sweep, and one paper figure must
# run and produce non-empty tables.
./target/release/fig_degradation | tee /tmp/fig_degradation.out | grep -q "RelativeSlowdown"
test -s /tmp/fig_degradation.out
./target/release/fig_reconfig | tee /tmp/fig_reconfig.out | grep -q "watchdog decisions"
test -s /tmp/fig_reconfig.out
./target/release/fig_multitenant | tee /tmp/fig_multitenant.out | grep -q "MarginalGoodput"
test -s /tmp/fig_multitenant.out
./target/release/fig07_nlp_goodput | tee /tmp/fig07.out | grep -q "goodput vs batch size"
test -s /tmp/fig07.out

# LLM smoke pass: the continuous-batching port must serve an
# autoregressive figure and win the KV-pressure sweep.
./target/release/fig10_llm_translation | tee /tmp/fig10.out | grep -q "goodput vs batch size"
test -s /tmp/fig10.out
./target/release/fig_kv_pressure | tee /tmp/fig_kv.out \
    | grep -q "continuous batching beats window batching"
test -s /tmp/fig_kv.out

# Brownout smoke: the golden-pinned small grid must show the ladder
# beating shed-only overload control and hedging capping the gray tail.
./target/release/fig_brownout | tee /tmp/fig_brownout.out \
    | grep -q "browning out exit depth beats shedding"
test -s /tmp/fig_brownout.out

# Scenario-matrix smoke: the pruned composed-stress subset (now incl.
# correlated-outage and gray-degradation cells under brownout) must pass
# invariant checking with zero violations (well under 30 s; the full
# 320-cell cross product is `fig_matrix --full`), and the trailing edge
# smoke cell (flaky cellular x tight deadline) must conserve offloads.
# (Capture-then-grep, not tee|grep -q: the binary keeps printing after
# the first match and an early grep exit would SIGPIPE it.)
./target/release/fig_matrix > /tmp/fig_matrix.out
grep -q "zero invariant violations" /tmp/fig_matrix.out
grep -q "edge smoke cell .* pass" /tmp/fig_matrix.out
test -s /tmp/fig_matrix.out

# Edge-cloud split serving smoke: the golden-pinned policy x WAN x
# deadline sweep must show the deadline-driven policy beating the static
# cut under degraded links, with zero offload-conservation violations.
./target/release/fig_edge > /tmp/fig_edge.out
grep -q "re-pricing the cut per request pays off" /tmp/fig_edge.out
grep -q "zero violations" /tmp/fig_edge.out
test -s /tmp/fig_edge.out

# Planning-at-scale smoke: the warm-started DP must plan a 10k-GPU
# cluster inside the budget (the binary self-judges and exits non-zero
# on FAIL).
./target/release/fig_scale | tee /tmp/fig_scale.out | grep -q "10k-GPU horizon PASS"
test -s /tmp/fig_scale.out

# Kernel event-throughput microbenchmark, archived as BENCH_kernel.json.
# The committed baseline is the regression bar: fail if the windowed or
# the continuous-batching kernel section drops more than 30% below it.
./target/release/bench_kernel | tee /tmp/bench_kernel.out
grep -q "events_per_sec" /tmp/bench_kernel.out
for section in kernel kernel_continuous; do
    scripts/bench_floor.sh "$section" BENCH_kernel.json /tmp/bench_kernel.out
done
cp /tmp/bench_kernel.out BENCH_kernel.json

# Optimizer planning-time benchmark (homogeneous sweep plus one cold
# heterogeneous solve), archived as BENCH_optimizer.json.
./target/release/bench_optimizer | tee BENCH_optimizer.json
grep -q '"gpus":10000' BENCH_optimizer.json
grep -q '"bench":"optimizer_hetero"' BENCH_optimizer.json

# Full figure suite with per-figure wall time, archived as
# BENCH_figures.json. Catches a figure quietly becoming 10x slower and
# doubles as an end-to-end run of every binary (the suite exits non-zero
# if any figure fails).
BENCH_FIGURES_JSON=BENCH_figures.json \
    ./target/release/all_figures > /tmp/all_figures.out
grep -q "experiments completed" /tmp/all_figures.out
grep -q '"total_wall_s"' BENCH_figures.json
