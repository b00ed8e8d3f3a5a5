#!/bin/sh
# Full verification: plain build + complete test suite, then a
# ThreadSanitizer build of the execution-engine tests (ctest label
# `tsan`) and an ASan+UBSan build of the audit/exporter, event-kernel,
# executor, trace-export, fault, critical-path, DSL-parser, perf-guard,
# build-ledger and causal-tracing tests (ctest labels `audit`, `sim`,
# `faults`, `critpath`, `parser`, `bench`, `ledger` and `tracing`), and
# last the fig19 perf guard, so that a guard tripped by a noisy host
# cannot stop the script before the sanitizer stages have run. Run from
# anywhere; builds land in build/, build-tsan/ and build-asan/.
#
# Usage: scripts/check.sh [jobs]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 2)}

echo "== plain build + full test suite =="
cmake -B "$root/build" -S "$root" >/dev/null
cmake --build "$root/build" -j "$jobs"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

# The exec tests exercise the worker pool and the compile cache under
# real concurrency, and the fault tests drive the Monte Carlo driver's
# seeded trials across the same pool; TSan is the check that the
# "shared immutable compiled model, per-worker mutable state" contract
# actually holds.
echo "== ThreadSanitizer availability probe =="
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
cat >"$probe_dir/probe.cc" <<'EOF'
#include <thread>
int main() { std::thread([] {}).join(); }
EOF
if c++ -std=c++20 -fsanitize=thread "$probe_dir/probe.cc" \
        -o "$probe_dir/probe" 2>/dev/null && "$probe_dir/probe"; then
    echo "== TSan build of the exec + fault + telemetry + critpath +" \
         "tracing tests (ctest -L 'tsan|faults|telemetry|critpath|tracing') =="
    cmake -B "$root/build-tsan" -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" >/dev/null
    cmake --build "$root/build-tsan" -j "$jobs" \
        --target test_exec test_faults test_telemetry test_critpath \
        test_tracing
    ctest --test-dir "$root/build-tsan" \
        -L 'tsan|faults|telemetry|critpath|tracing' \
        --output-on-failure -j "$jobs"
else
    echo "ThreadSanitizer unavailable on this toolchain; skipping the" \
         "tsan-labelled tests (plain suite already ran)."
fi

# The audit tests walk every cross-layer data structure a simulation
# produces (stats, traces, compiled mappings), which makes them the
# densest drivers for Address- and UBSanitizer; the sim tests drive the
# event kernel's vector insert/partition/erase and the CSR walks, and
# the trace export tests execute graphs and export their labels. The
# parser tests push malformed DSL text through the tokenizer, the fault
# tests compile degraded mappings, the critpath tests walk recorded
# timing graphs and the bench tests parse BENCH_fig19.json files. The
# ledger tests (tile, topology, accelerator) drive the iteration build's
# enum-indexed ledger arrays and the cached routes' resource lists, and
# the tracing tests index span events by their parent links (the
# --self-profile self-time pass). GCC's -fsanitize=undefined leaves out
# float-cast-overflow (an out-of-range double cast to an integer, such
# as a negative or NaN duration in nanoseconds), so it is named too.
echo "== ASan+UBSan availability probe =="
if c++ -std=c++20 -fsanitize=address,undefined "$probe_dir/probe.cc" \
        -o "$probe_dir/probe-asan" 2>/dev/null && \
        "$probe_dir/probe-asan"; then
    echo "== ASan+UBSan build of the audit + sim + faults + critpath +" \
         "parser + bench + ledger + tracing tests" \
         "(ctest -L 'audit|sim|faults|critpath|parser|bench|ledger|tracing') =="
    cmake -B "$root/build-asan" -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all" \
        >/dev/null
    cmake --build "$root/build-asan" -j "$jobs" \
        --target test_audit test_sweep_io test_sim test_json_trace \
        test_properties test_parser test_faults test_critpath test_bench_guard \
        test_reram test_interconnect test_accelerator test_tracing
    ctest --test-dir "$root/build-asan" \
        -L 'audit|sim|faults|critpath|parser|bench|ledger|tracing' \
        --output-on-failure -j "$jobs"
else
    echo "ASan+UBSan unavailable on this toolchain; skipping the" \
         "sanitizer rerun of the audit/sim/faults/critpath/parser/" \
         "bench/ledger/tracing suites (plain suite already ran)."
fi

# Host-performance guard (bench/runner.hh): measure the fig19 grid at 1
# and 4 workers plus the critical-path recording and span-tracing A/B
# overheads, and fail when any of the four verdicts against the newest
# BENCH_fig19.json entry regresses: 1-worker points/sec below 80% of the
# committed rate, a scaling efficiency below 80% of the committed one,
# recording overhead above committed + 4 points, or tracing overhead
# above max(3%, committed + 2). Wall-clock measurements are
# machine-dependent; set LERGAN_SKIP_PERF_GUARD=1 on slow or noisy
# machines.
if [ "${LERGAN_SKIP_PERF_GUARD:-0}" = "1" ]; then
    echo "== perf guard skipped (LERGAN_SKIP_PERF_GUARD=1) =="
else
    echo "== perf guard: fig19 vs committed BENCH_fig19.json =="
    "$root/build/bench/fig19_lergan_vs_prime" \
        --bench-check "$root/BENCH_fig19.json" \
        --bench-workers 1,4 --bench-repeats 2 >/dev/null
fi

echo "== all checks passed =="
