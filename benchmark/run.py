#!/usr/bin/env python3
"""run.py -- the benchmark's entry point: builds cachetrie_benchmark from
source, runs one workload, and prints its metrics as the last line.

    python3 benchmark/run.py --workload map_read_large --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout. The first run configures and builds
build-benchmark/ (later runs rebuild only what changed). --trace 0 reports
the end-to-end metrics of an untraced run; --trace 1 makes a traced run and
reports the per-layer metrics summarize.py derives from its dump. Everything
the binary prints passes through; the last line of standard output is one
JSON object with exactly the keys correct, attempted, failed and metrics,
whose metric names and units are the ones BENCHMARK.json declares.

Exit status: 0 when every check passed, 1 when a correctness check failed
(the result line is still printed), 2 when the build or the run could not
happen (no result line). Stdlib only.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory
import summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
BINARY = BUILD / "cachetrie_benchmark"
# A run sets up, warms for 1 s and measures --seconds; this bounds a hung one.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, check=False)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(BUILD / "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    if proc.returncode not in (0, 1) or len(records) != 1:
        fail(f"cachetrie_benchmark exited {proc.returncode} without a record")
    record = records[0]

    if args.trace:
        dump = summarize.load(record["trace_file"])
        summarize.print_report(dump)
        metrics = summarize.per_layer_metrics(dump)
    else:
        metrics = record["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared_metrics(args.trace):
        fail("the metrics produced differ from the ones BENCHMARK.json declares")

    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
