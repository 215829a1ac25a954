#!/usr/bin/env python3
"""perf_gate.py — diff two cachetrie-bench-v1 JSON artifacts for regressions.

Usage:
    scripts/perf_gate.py OLD.json NEW.json [--tolerance 0.5]
        [--min-ms 0.5] [--noise-stddevs 3.0]

A cell regresses when

    new_mean > old_mean * (1 + tolerance) + noise_stddevs * max(sd_old, sd_new)

i.e. the relative budget AND a statistical-noise allowance must both be
exceeded. Cells where both means are below --min-ms are skipped outright
(sub-millisecond timings on shared CI boxes are noise). Cells whose params
carry a non-timing unit (e.g. "unit": "bytes" footprints) are compared with
the same relative budget but no stddev allowance (they are exact counts) —
EXCEPT latency-percentile cells (params carry a "stat" key, e.g.
stat=p99 unit=ns), which are measured quantities with a cross-pass stddev
and get the same noise allowance as wall-clock timings. Their ns values are
numerically far above --min-ms, so tails are always gated, never skipped.

Cells are matched on (structure, params). Cells present in only one file
are reported but never fail the gate — benchmarks may gain or lose rows
across commits. Exit status: 0 = no regressions, 1 = at least one
regression, 2 = usage/schema error.

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys

SCHEMA = "cachetrie-bench-v1"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_gate: cannot load {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if doc.get("schema") != SCHEMA:
        print(
            f"perf_gate: {path}: schema {doc.get('schema')!r}, "
            f"expected {SCHEMA!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return doc


def index_cells(doc, path):
    cells = {}
    for cell in doc.get("results", []):
        params = cell.get("params", {})
        key = (cell.get("structure", "?"), frozenset(params.items()))
        if key in cells:
            print(f"perf_gate: {path}: duplicate cell {fmt_key(key)}",
                  file=sys.stderr)
            raise SystemExit(2)
        cells[key] = cell
    return cells


def fmt_key(key):
    structure, params = key
    ptxt = " ".join(f"{k}={v}" for k, v in sorted(params))
    return f"{structure} [{ptxt}]"


def has_noise(cell):
    """Measured (noisy) cells: wall-clock timings (no unit) and latency
    percentiles (a "stat" param). Exact counts (bytes, fractions) are
    neither and get no stddev allowance."""
    params = cell.get("params", {})
    return params.get("unit") is None or params.get("stat") is not None


def unit_of(cell):
    """The unit a cell's values are in: its "unit" param (ns, bytes,
    percent, ...), else milliseconds, the unit of a wall-clock timing. The
    values sit in the mean_ms/stddev_ms fields whatever their unit."""
    return cell.get("params", {}).get("unit", "ms")


def main():
    ap = argparse.ArgumentParser(
        description="Gate on perf regressions between two bench JSON files.")
    ap.add_argument("old", help="baseline artifact (known-good run)")
    ap.add_argument("new", help="candidate artifact (current run)")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="relative slowdown budget (0.5 = +50%%; container "
                         "runs are noisy, keep this generous)")
    ap.add_argument("--min-ms", type=float, default=0.5,
                    help="skip cells where both means are below this")
    ap.add_argument("--noise-stddevs", type=float, default=3.0,
                    help="additional absolute allowance in units of the "
                         "larger stddev of the two runs")
    args = ap.parse_args()

    old_doc = load(args.old)
    new_doc = load(args.new)
    old_cells = index_cells(old_doc, args.old)
    new_cells = index_cells(new_doc, args.new)

    if old_doc.get("env", {}).get("repro_scale") != \
            new_doc.get("env", {}).get("repro_scale"):
        print("perf_gate: WARNING: repro_scale differs between runs "
              f"({old_doc.get('env', {}).get('repro_scale')} vs "
              f"{new_doc.get('env', {}).get('repro_scale')}); timings are "
              "not comparable unless the bench uses fixed sizes.")

    regressions = []
    improvements = []
    compared = skipped = 0

    for key in sorted(old_cells.keys() & new_cells.keys()):
        old, new = old_cells[key], new_cells[key]
        m0, m1 = old.get("mean_ms", 0.0), new.get("mean_ms", 0.0)
        if m0 < args.min_ms and m1 < args.min_ms:
            skipped += 1
            continue
        compared += 1
        noise = 0.0
        if has_noise(old):
            sd = max(old.get("stddev_ms", 0.0), new.get("stddev_ms", 0.0))
            noise = args.noise_stddevs * sd
        budget = m0 * (1.0 + args.tolerance) + noise
        ratio = m1 / m0 if m0 > 0 else float("inf")
        if m1 > budget:
            regressions.append((key, m0, m1, ratio, budget, unit_of(old)))
        elif m0 > 0 and m1 < m0 / (1.0 + args.tolerance):
            improvements.append((key, m0, m1, ratio, unit_of(old)))

    only_old = sorted(old_cells.keys() - new_cells.keys())
    only_new = sorted(new_cells.keys() - old_cells.keys())

    print(f"perf_gate: compared {compared} cells "
          f"({skipped} below {args.min_ms} ms skipped, "
          f"{len(only_old)} only in old, {len(only_new)} only in new)")
    for key in only_old:
        print(f"  note: dropped cell {fmt_key(key)}")
    for key in only_new:
        print(f"  note: new cell {fmt_key(key)}")
    for key, m0, m1, ratio, unit in improvements:
        print(f"  improved: {fmt_key(key)}: {m0:.3f} -> {m1:.3f} {unit} "
              f"({ratio:.2f}x)")
    for key, m0, m1, ratio, budget, unit in regressions:
        print(f"  REGRESSION: {fmt_key(key)}: {m0:.3f} -> {m1:.3f} {unit} "
              f"({ratio:.2f}x; budget was {budget:.3f} {unit})")

    if regressions:
        print(f"perf_gate: FAIL ({len(regressions)} regression(s))")
        return 1
    print("perf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
