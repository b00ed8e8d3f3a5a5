#!/bin/sh
# Append per-layer benchmark rows to the committed BENCH_layers.json.
#
# For every workload of BENCHMARK.json, runs
#   python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 1
# in TREE and appends one row per workload to BENCH_layers.json next to
# this script's checkout: label, the measured tree's commit, workload,
# seed, seconds, host (CPU model, hardware threads), the correctness
# gate and the per-layer metrics. The file is the per-layer ledger: a
# PR that claims a speedup cites a before and an after row measured on
# the same host, so measure the parent checkout too, e.g.
#
#   git archive HEAD~1 --prefix=parent/ | tar -x -C /tmp
#   scripts/bench_layers.sh parent /tmp/parent
#   scripts/bench_layers.sh change
#
# Usage: scripts/bench_layers.sh LABEL [TREE] [SEED] [SECONDS]
#   TREE defaults to this checkout, SEED to 7, SECONDS to 35.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
[ $# -ge 1 ] || { echo "usage: $0 LABEL [TREE] [SEED] [SECONDS]" >&2; exit 2; }
label=$1
tree=$(CDPATH= cd -- "${2:-$root}" && pwd)
seed=${3:-7}
seconds=${4:-35}
# perfbench/run.py reuses TREE/.bench_build once it is configured, so a
# build tree copied from another checkout would silently measure that
# checkout's sources.
cache="$tree/.bench_build/perfbench/CMakeCache.txt"
if [ -f "$cache" ]; then
    home=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$cache")
    built=$(CDPATH= cd -- "$home" 2>/dev/null && pwd -P || echo "$home")
    if [ "$built" != "$(CDPATH= cd -- "$tree/perfbench" && pwd -P)" ]; then
        echo "$0: $cache builds $home, not $tree/perfbench;" \
            "remove $tree/.bench_build and rerun" >&2
        exit 2
    fi
fi
commit=$(git -C "$tree" rev-parse --short HEAD 2>/dev/null || echo unknown)
workloads=$(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")

for workload in $workloads; do
    echo "bench_layers: $label $workload" >&2
    result=$(cd "$tree" && python3 perfbench/run.py --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1)
    python3 - "$root/BENCH_layers.json" "$label" "$commit" "$workload" \
        "$seed" "$seconds" "$result" <<'EOF'
import json, os, sys

path, label, commit, workload, seed, seconds, result = sys.argv[1:]
run = json.loads(result)
model = "unknown"
try:
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
rows = json.load(open(path)) if os.path.exists(path) else []
rows.append({
    "label": label,
    "commit": commit,
    "workload": workload,
    "seed": int(seed),
    "seconds": float(seconds),
    "host": {"cpu": model, "hardware_threads": os.cpu_count()},
    "correct": run["correct"],
    "failed": run["failed"],
    "metrics": {name: m["value"] for name, m in run["metrics"].items()},
})
with open(path, "w") as out:
    json.dump(rows, out, indent=1)
    out.write("\n")
EOF
done
echo "appended to $root/BENCH_layers.json (commit $commit)" >&2
