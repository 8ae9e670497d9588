#!/usr/bin/env bash
# Regression bar for one bench_kernel section: fails when the section's
# events_per_sec in CURRENT falls more than 30% below its rate in
# BASELINE (a committed BENCH_kernel.json).
#
#   scripts/bench_floor.sh <section> <BASELINE> <CURRENT>
set -euo pipefail
section=$1
rate() {
    sed -n "s/.*\"bench\":\"${section}\".*\"events_per_sec\":\([0-9]*\).*/\1/p" "$1" | head -n 1
}
baseline=$(rate "$2")
current=$(rate "$3")
if [ -z "$current" ]; then
    echo "bench_kernel: no ${section} section in $3" >&2
    exit 1
fi
if [ -n "$baseline" ] && [ "$baseline" -gt 0 ]; then
    floor=$((baseline * 7 / 10))
    if [ "$current" -lt "$floor" ]; then
        echo "bench_kernel regression: ${section} ${current} events/sec < 70% of baseline ${baseline}" >&2
        exit 1
    fi
fi
