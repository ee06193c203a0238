#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, summarized per workload.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs N --pr K \
        [--traced W] [--what TEXT]

Each tree is a checkout of katz-forge with its own perfbench/.  For every
workload of the parent's BENCHMARK.json, pair i runs ``python3
perfbench/run.py --workload W --seed S_i --seconds T --trace 0`` once in
each tree, one run at a time, T its ``run_seconds``, with a fresh seed
S_i = 1000 K + 100 (w + 1) + i + 1 (w the workload's index) shared by both
sides; the parent runs first in even pairs, the change in odd ones, so a
drift of the machine's speed does not favour one side.  ``--traced W`` adds
one traced pair (``--trace 1``, seed 1000 K + 901, parent first) of
workload W for the per-layer figures.  The summary reads the end-to-end
metrics and bounds of the same BENCHMARK.json.

The result goes to BENCH_K.json in the current directory: every run's
result line, and per workload and end-to-end metric the quartiles of each
side (statistics.quantiles, n=4, inclusive), how many pairs the change won
(strictly better than the parent in the same pair), the change of the
median in percent, the parent's interquartile range in percent of its
median, and whether the change of the median is worse than the bound.
The script only runs perfbench; it changes nothing in either tree but the
run files perfbench writes to its own out/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"perfbench failed in {tree} (exit {res.returncode}): "
                         f"{res.stderr.strip()[-2000:]}") from None


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize_metric(parent: list, change: list, better: str, bound: float) -> dict:
    """The summary of one metric from its values in pairs: parent[i] and
    change[i] come from pair i."""
    sign = 1 if better == "higher" else -1
    pq, cq = _quartiles(parent), _quartiles(change)
    median_change = (statistics.median(change) / statistics.median(parent) - 1.0) * 100.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "better": better,
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "change_wins": f"{wins}/{len(parent)}",
        "median_change_pct": round(median_change, 1),
        "parent_iqr_pct_of_median": round((pq[2] - pq[0]) / statistics.median(parent) * 100.0, 1),
        "parent_min_max": [round(min(parent), 4), round(max(parent), 4)],
        "change_min_max": [round(min(change), 4), round(max(change), 4)],
        "bound_pct": round(bound * 100.0, 1),
        "worse_beyond_bound": -sign * median_change > bound * 100.0,
    }


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: pairs, correctness, failures, attempts and the summary
    of every end-to-end metric, from the untraced runs."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: sorted((r for r in mine if r["side"] == s), key=lambda r: r["pair"])
                for s in ("parent", "change")}
        out[workload] = {
            "pairs": len(side["parent"]),
            "all_correct": all(r["result"]["correct"] for r in mine),
            "failed": {s: sum(r["result"]["failed"] for r in rs) for s, rs in side.items()},
            "attempted": {s: sum(r["result"]["attempted"] for r in rs) for s, rs in side.items()},
            "metrics": {
                m["name"]: summarize_metric(
                    *([r["result"]["metrics"][m["name"]]["value"] for r in side[s]]
                      for s in ("parent", "change")),
                    m["better"], m["bound"])
                for m in end_to_end},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--pr", type=int, required=True, help="K of the BENCH_K.json written")
    ap.add_argument("--traced", default=None, metavar="W")
    ap.add_argument("--what", default="")
    args = ap.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    base = 1000 * args.pr

    runs = []
    for w, workload in enumerate(x["name"] for x in bench["workloads"]):
        for i in range(args.pairs):
            seed = base + 100 * (w + 1) + i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], workload, seed, seconds, 0)
                runs.append({"side": side, "workload": workload, "seed": seed, "pair": i,
                             "first": order[0], "result": result})
                print(f"{workload} pair {i} {side}: {json.dumps(result['metrics'])}",
                      file=sys.stderr, flush=True)
    traced = []
    if args.traced:
        for side in ("parent", "change"):
            traced.append({"side": side, "workload": args.traced, "seed": base + 901,
                           "trace": 1,
                           "result": run_once(trees[side], args.traced, base + 901, seconds, 1)})

    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "protocol": (f"{args.pairs} pairs per workload made by scripts/bench_pairs.py, one "
                     f"fresh seed per pair shared by both sides (seed base {base}), the side "
                     "that runs first alternating (parent first in even pairs counted from "
                     "0), runs one at a time, workloads one after the other; quartiles by "
                     "statistics.quantiles(n=4, method='inclusive'); a win is a pair in "
                     "which the change is strictly better"),
        "python": platform.python_version(),
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
        "traced_runs": traced,
    }
    path = f"BENCH_{args.pr}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
