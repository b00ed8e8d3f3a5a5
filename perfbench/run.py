#!/usr/bin/env python3
"""Build and run the LerGAN sweep benchmark.

One workload, one run (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload fig19-warm --seed 1 --seconds 35 --trace 0

Every workload, untraced and traced, as two tables:

    python3 perfbench/run.py --all --seed 1 --seconds 35

The benchmark's own tests:

    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds the simulator and
lergan_perfbench into .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fig19-warm", "fig19-observed", "cold-designs"]


def build():
    """Configure (once) and build; exit 2 when there is nothing to build."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources next to perfbench/",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit(2)


def binary_args(workload, seed, seconds, trace):
    return [os.path.join(BUILD, "lergan_perfbench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--reference-dir", os.path.join(HERE, "reference"),
            "--out-dir", os.path.join(BUILD, "spans")]


def run_all(seed, seconds):
    """Every workload untraced then traced; print both metric tables."""
    tables = {0: {}, 1: {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(binary_args(workload, seed, seconds, trace),
                                  stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            tables[trace][workload] = json.loads(lines[-1])
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        runs = tables[trace]
        if not runs:
            continue
        names = list(next(iter(runs.values()))["metrics"])
        print(f"\n{title}, seed {seed}, {seconds} s per run")
        print(f"{'metric':34}" + "".join(f"{w:>16}" for w in runs))
        for name in names + ["failed_frac"]:
            cells = []
            for result in runs.values():
                if name == "failed_frac":
                    cells.append(result["failed"] / result["attempted"])
                    unit = "ratio"
                else:
                    cells.append(result["metrics"][name]["value"])
                    unit = result["metrics"][name]["unit"]
            print(f"{name + ' (' + unit + ')':34}" +
                  "".join(f"{c:>16.6g}" for c in cells))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.selftest or args.workload):
        parser.error("give --workload, --all or --selftest")

    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                               os.path.join(HERE, "reference"),
                               os.path.join(ROOT, "BENCHMARK.json")]
                              ).returncode
    if args.all:
        return run_all(args.seed, args.seconds)
    return subprocess.run(binary_args(args.workload, args.seed,
                                      args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
