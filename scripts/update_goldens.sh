#!/bin/sh
# Regenerate the committed golden snapshots in tests/golden/ from the
# current build. Run after an intentional change to simulator numbers
# or export formats, then review the diff like any other code change:
#
#   cmake --build build
#   scripts/update_goldens.sh [build-dir]
#   git diff tests/golden/
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
out="$root/tests/golden"
mkdir -p "$out"

for bench in fig16_zfdr_phases fig17_3d_vs_htree fig18_zfdr_vs_nr \
    fig19_lergan_vs_prime fig20_energy_vs_prime fig21_perf_fpga_gpu \
    fig22_energy_fpga_gpu fig23_energy_breakdown fig24_tile_breakdown \
    phase_breakdown
do
    echo "golden: $bench"
    "$build/bench/$bench" > "$out/$bench.txt"
done

# table5 measures wall-clock; --golden masks the host-dependent cells.
echo "golden: table5_benchmarks"
"$build/bench/table5_benchmarks" --golden > "$out/table5_benchmarks.txt"

echo "golden: export_results"
"$build/bench/export_results" --json "$out/export_results.json" \
    --csv "$out/export_results.csv" --threads 1 --audit > /dev/null

# Seeded Monte Carlo: deterministic for any worker count, so the same
# snapshot serves the 1- and 4-worker golden tests.
echo "golden: fault_sweep"
"$build/bench/fault_sweep" --golden --threads 1 > "$out/fault_sweep.txt"

# Sim-time telemetry snapshot: integer accumulators only, so the same
# golden serves the 1- and 4-worker determinism tests. host_* lines
# are wall-clock facts about the generating machine and stay out.
echo "golden: fig19_metrics"
raw="$(mktemp)"
"$build/bench/fig19_lergan_vs_prime" --threads 1 --metrics "$raw" \
    --metrics-format prom > /dev/null
grep -v -e '^host_' -e '^# TYPE host_' "$raw" \
    > "$out/fig19_metrics.prom"
rm -f "$raw"

# Span NDJSON export: trace/span ids and deterministic attributes are
# pure functions of the point grid, so the same golden serves the 1-
# and 4-worker determinism tests. Each line's "host" object (lane,
# begin/duration, queue wait — wall-clock facts) is stripped.
echo "golden: fig19_spans"
raw="$(mktemp)"
"$build/bench/fig19_lergan_vs_prime" --threads 1 --trace-spans "$raw" \
    > /dev/null
sed -E 's/,"host":\{[^{}]*\}\}$/}/' "$raw" \
    > "$out/fig19_spans.ndjson"
rm -f "$raw"

echo "done; review with: git diff tests/golden/"
