#!/usr/bin/env python3
"""Compare the per-layer ledger rows of two commits.

BENCH_layers.json holds one row per (commit, workload) perfbench run
(scripts/bench_layers.sh). On a shared host a layer that a change does
not touch moves by a quarter or more between two single rows, so one
row pair cannot show that a layer rose. Record several alternating rows
per side and compare their spreads instead:

    scripts/layers_diff.py PARENT CHANGE

PARENT and CHANGE each select rows by commit (a prefix of either the
row's short hash or the given hash) or by label. For every workload and
per-layer metric of BENCHMARK.json the script prints each side's median
and min-max, and flags the layer:

    rose   the change's min is above the parent's max
    fell   the change's max is below the parent's min

Either flag says "worse" or "better" by the metric's direction in
BENCHMARK.json, and the last line names every layer that got worse.
Overlapping ranges are not flagged. Exits 1 when a side has no rows.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def selects(row, key):
    """Whether ledger @row belongs to the side named @key."""
    commit = row.get("commit", "")
    if row.get("label") == key:
        return True
    return bool(commit) and commit != "unknown" and (
        commit.startswith(key) or key.startswith(commit))


def side_values(rows, key, workload, metric):
    return [row["metrics"][metric] for row in rows
            if selects(row, key) and row["workload"] == workload
            and metric in row.get("metrics", {})]


def fmt(value):
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return "%.4g" % value
    return "%.3e" % value


def span(values):
    if not values:
        return "-"
    return "%s [%s, %s] n=%d" % (fmt(statistics.median(values)),
                                 fmt(min(values)), fmt(max(values)),
                                 len(values))


def verdict(parent, change, better):
    if not parent or not change:
        return ""
    if min(change) > max(parent):
        return "rose (%s)" % ("worse" if better == "lower" else "better")
    if max(change) < min(parent):
        return "fell (%s)" % ("worse" if better == "higher" else "better")
    return ""


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="commit or label of the parent rows")
    parser.add_argument("change", help="commit or label of the change rows")
    parser.add_argument("--ledger",
                        default=os.path.join(ROOT, "BENCH_layers.json"))
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.ledger) as f:
        rows = json.load(f)
    with open(args.benchmark) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    layers = [(m["name"], m["better"]) for m in bench["per_layer"]]

    for key in (args.parent, args.change):
        if not any(selects(row, key) for row in rows):
            print("layers_diff: no ledger rows for %r" % key,
                  file=sys.stderr)
            return 1

    flagged = []
    for workload in workloads:
        print("== %s (parent %s, change %s)" % (workload, args.parent,
                                                 args.change))
        print("%-34s %-36s %-36s %s" % ("layer", "parent median [min, max]",
                                        "change median [min, max]", "flag"))
        for metric, better in layers:
            parent = side_values(rows, args.parent, workload, metric)
            change = side_values(rows, args.change, workload, metric)
            if not parent and not change:
                continue
            flag = verdict(parent, change, better)
            print("%-34s %-36s %-36s %s" % (metric, span(parent),
                                            span(change), flag))
            if flag.endswith("(worse)"):
                flagged.append("%s %s: %s" % (workload, metric, flag))
        print()
    print("worse layers: " + ("; ".join(flagged) if flagged else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
