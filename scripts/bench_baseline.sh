#!/bin/sh
# Regenerate the committed BENCH_fig19.json host-performance baseline.
#
# Builds the fig19 bench, then measures its grid (the paper's headline
# figure and the widest sweep) across a 1/2/4/8-worker scaling curve,
# plus the critical-path recording and span-tracing A/B overheads, and
# appends a fresh "scaling" entry (schema lergan-bench/3) to
# BENCH_fig19.json, preserving the earlier entries — the file is the
# perf trajectory. Run it on the reference container after a perf-
# relevant change and commit the result; scripts/check.sh guards future
# changes against the newest entry (see --bench-check in
# bench/runner.hh).
#
# Usage: scripts/bench_baseline.sh [jobs]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 2)}
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)

cmake -B "$root/build" -S "$root" >/dev/null
cmake --build "$root/build" -j "$jobs" --target fig19_lergan_vs_prime

# Append when the trajectory file exists, otherwise start one.
append=""
[ -f "$root/BENCH_fig19.json" ] && append="--bench-append"

"$root/build/bench/fig19_lergan_vs_prime" \
    --bench-json "$root/BENCH_fig19.json" $append \
    --bench-label scaling \
    --bench-commit "$commit" \
    --bench-workers 1,2,4,8 \
    --bench-repeats 3 >/dev/null

echo "wrote $root/BENCH_fig19.json (commit $commit)"
