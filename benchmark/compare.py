#!/usr/bin/env python3
"""compare.py -- compare two sets of benchmark runs against the bounds.

Each set is a file or a directory of files holding run output. Every line
that is a JSON object with "workload" and "metrics" counts as one run: the
records cachetrie_benchmark prints, which run.py passes through. For each
workload and metric the script prints each set's median and quartiles, each
set's spread (quartile distance over the median), and the gap between the
medians in the metric's worse direction against its bound from
BENCHMARK.json.

    python3 benchmark/compare.py runs/set_a runs/set_b

Exit status: 1 if any end-to-end metric of set B is worse than set A's by
more than its bound (or a set has no runs), else 0. A spread above a third
of the bound is flagged: such a metric cannot resolve a change of its bound.
Stdlib only.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_runs(where):
    """[record] from a file, or from every file directly inside a directory."""
    path = Path(where)
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    runs = []
    for f in files:
        for line in f.read_text(encoding="utf-8", errors="replace").splitlines():
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and "workload" in rec and "metrics" in rec:
                runs.append(rec)
    return runs


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(runs):
    """{(workload, metric): [values]} and the set of workloads with a failed check."""
    table = defaultdict(list)
    incorrect = set()
    for rec in runs:
        if not rec.get("correct", True):
            incorrect.add(rec["workload"])
        for name, m in rec["metrics"].items():
            table[(rec["workload"], name)].append(m["value"])
    return table, incorrect


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("set_a", help="baseline runs: a file or a directory")
    ap.add_argument("set_b", help="runs compared against the baseline")
    args = ap.parse_args()

    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    a, bad_a = by_metric(read_runs(args.set_a))
    b, bad_b = by_metric(read_runs(args.set_b))
    if not a or not b:
        print("compare.py: a set holds no runs", file=sys.stderr)
        return 1
    for name, bad in (("A", bad_a), ("B", bad_b)):
        for w in sorted(bad):
            print(f"WARNING: set {name} has runs of {w} whose checks failed")

    print(f"{'workload':20s} {'metric':32s} {'n':>5s} {'A q1':>11s} {'A median':>11s} "
          f"{'A q3':>11s} {'A sprd':>7s} {'B q1':>11s} {'B median':>11s} {'B q3':>11s} "
          f"{'B sprd':>7s} {'worse':>7s} {'bound':>6s}  verdict")
    regressed = False
    for key in sorted(k for k in set(a) & set(b) if k[1] in e2e):
        workload, metric = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
        spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
        worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        if e2e[metric]["better"] == "higher":
            worse = -worse
        bound = e2e[metric]["bound"]
        verdict = "ok"
        if worse > bound:
            verdict = "WORSE"
            regressed = True
        if metric != "setup_s" and max(spread_a, spread_b) > bound / 3:
            verdict += " (spread > bound/3)"
        print(f"{workload:20s} {metric:32s} {len(a[key]):2d}/{len(b[key]):<2d} "
              f"{qa[0]:11.5g} {qa[1]:11.5g} {qa[2]:11.5g} {spread_a:7.2%} "
              f"{qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g} {spread_b:7.2%} "
              f"{worse:7.2%} {bound:6.0%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
