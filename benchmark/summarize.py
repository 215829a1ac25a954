#!/usr/bin/env python3
"""summarize.py -- per-layer metrics from a traced benchmark run.

Reads the Chrome-trace JSON dump that `cachetrie_benchmark --trace DIR`
writes for each workload, and prints every per-layer metric by name with
its unit, then each span name's duration and self time (a span's duration
minus the part of it that its child spans cover).

    python3 benchmark/summarize.py build-benchmark/traces/map_read_large_s1.json
    python3 benchmark/summarize.py --json DUMP      # metrics as one JSON object

A metric whose layer does no work on the dump's workload reads 0 (for
example net.client.* on the map_* workloads). Stdlib only.
"""

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def percentile(sorted_vals, q):
    """Linear-interpolated q-quantile (q in [0, 1]) of a sorted list; 0 if empty."""
    if not sorted_vals:
        return 0.0
    k = (len(sorted_vals) - 1) * q
    lo, hi = math.floor(k), math.ceil(k)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def durations_ns(events, name, overhead_ns):
    """Sorted durations of the spans called `name`, clock cost removed."""
    return sorted(max(0.0, e["dur"] * 1e3 - overhead_ns)
                  for e in events if e["name"] == name)


def self_times_us(events):
    """{span name: [self time in us, one per span]}.

    A child span names its parent in args.cause and carries the parent's
    args.id; a span's self time is its duration minus the union of its
    children's intervals (clipped to the parent).
    """
    children = defaultdict(list)
    for e in events:
        args = e.get("args", {})
        if "cause" in args:
            children[(args["cause"], args.get("id"))].append(
                (e["ts"], e["ts"] + e["dur"]))
    out = defaultdict(list)
    for e in events:
        args = e.get("args", {})
        start, end = e["ts"], e["ts"] + e["dur"]
        kids = children.get((e["name"], args["id"]), []) if "id" in args else []
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[e["name"]].append(e["dur"] - covered)
    return out


def trace_overhead_frac(windows):
    """1 - traced/untraced median throughput over the run's interleaved windows."""
    traced = [w["ops_per_s"] for w in windows if w["traced"]]
    plain = [w["ops_per_s"] for w in windows if not w["traced"]]
    if not traced or not plain:
        return 0.0
    return 1.0 - statistics.median(traced) / statistics.median(plain)


def per_layer_metrics(dump):
    """{name: {"value": v, "unit": u}} for every per-layer metric, in a fixed order."""
    od = dump["otherData"]
    events = dump["traceEvents"]
    overhead = od["clock_overhead_ns"]
    counters, hists = od["counters"], od["histograms"]
    g0, g1 = od["gauges_begin"], od["gauges_end"]
    calls, mp, srv = od["calls"], od["map"], od["server"]
    windows = od["windows"]

    def spans(name):
        return durations_ns(events, name, overhead)

    def gauge_delta(name):
        return g1.get(name, 0) - g0.get(name, 0)

    lookups = calls["gets"]
    writes = calls["puts"] + calls["removes"]
    puts = calls["puts"]
    lookup, insert, remove = spans("map.lookup"), spans("map.insert"), spans("map.remove")
    get, put = spans("map.get"), spans("map.put")
    send, wait, req = spans("client.send"), spans("client.wait"), spans("client.request")
    hit, slow = counters.get("cachetrie.cache.hit", 0), counters.get("cachetrie.lookup.slow", 0)
    depth = hists.get("cachetrie.lookup.depth", {"count": 0, "sum": 0})
    retired = gauge_delta("mr.epoch.retired")
    phase = srv.get("phase_us", {})

    def phase_q(name, q):
        return phase[name][q] if name in phase else 0.0

    traced_windows = [w for w in windows if w["traced"]]
    req_p50_us = percentile(req, 0.50) / 1e3
    served = srv.get("served", 0)

    used_p99 = [w["op_p99_ns"] for w in windows if w["used"]]
    used_run = [w["run_frac"] for w in windows if w["used"]]
    rows = [
        # the end-to-end tail, not gated: served tails do not repeat on a shared host
        ("op_p99_ns", "ns", statistics.median(used_p99) if used_p99 else 0.0),
        # cachetrie: the lookup path
        ("cachetrie.lookup_ns.p50", "ns", percentile(lookup, 0.50)),
        ("cachetrie.lookup_ns.p99", "ns", percentile(lookup, 0.99)),
        ("cachetrie.cache_hit_frac", "fraction", ratio(hit, hit + slow)),
        ("cachetrie.lookup_depth_mean", "derefs", ratio(depth["sum"], depth["count"])),
        ("cachetrie.cache_level", "level", float(max(mp["cache_level"], 0))),
        ("cachetrie.level_top_pair_share", "fraction", mp["level_top_pair_share"]),
        ("cachetrie.cache_miss_per_klookup", "1/klookup",
         ratio(counters.get("cachetrie.cache.miss", 0), lookups, 1e3)),
        # cachetrie: the write path
        ("cachetrie.insert_ns.p50", "ns", percentile(insert, 0.50)),
        ("cachetrie.insert_ns.p99", "ns", percentile(insert, 0.99)),
        ("cachetrie.remove_ns.p50", "ns", percentile(remove, 0.50)),
        ("cachetrie.remove_ns.p99", "ns", percentile(remove, 0.99)),
        ("cachetrie.txn_retry_per_kwrite", "1/kwrite",
         ratio(counters.get("cachetrie.txn.retry", 0), writes, 1e3)),
        ("cachetrie.expand_per_kwrite", "1/kwrite",
         ratio(counters.get("cachetrie.expand", 0), writes, 1e3)),
        ("cachetrie.compress_per_kwrite", "1/kwrite",
         ratio(counters.get("cachetrie.compress", 0), writes, 1e3)),
        ("cachetrie.freeze_per_kwrite", "1/kwrite",
         ratio(counters.get("cachetrie.freeze", 0), writes, 1e3)),
        # cachetrie.evict: bounded mode
        ("evict.lru_per_kput", "1/kput",
         ratio(counters.get("cachetrie.evict.lru", 0), puts, 1e3)),
        ("evict.backpressure_per_kput", "1/kput",
         ratio(counters.get("cachetrie.evict.backpressure", 0), puts, 1e3)),
        ("evict.resident_over_ceiling_max", "fraction",
         ratio(mp["resident_max_bytes"], mp["ceiling_bytes"])),
        # mr: epoch reclamation
        ("mr.retired_per_kwrite", "1/kwrite", ratio(retired, writes, 1e3)),
        ("mr.freed_over_retired", "fraction", ratio(gauge_delta("mr.epoch.freed"), retired)),
        ("mr.limbo_bytes_hwm", "B", float(g1.get("mr.epoch.limbo_bytes_hwm", 0))),
        ("mr.fallback_scans", "count", float(gauge_delta("mr.epoch.fallback_scans"))),
        # net.client
        ("net.client.send_ns.p50", "ns", percentile(send, 0.50)),
        ("net.client.send_ns.p99", "ns", percentile(send, 0.99)),
        ("net.client.wait_us.p50", "us", percentile(wait, 0.50) / 1e3),
        ("net.client.req_p50_us", "us", req_p50_us),
        ("net.client.req_per_s", "req/s",
         statistics.median([w["ops_per_s"] for w in traced_windows])
         if srv and traced_windows else 0.0),
        ("net.client.req_p99_us", "us",
         statistics.median([w["op_p99_ns"] for w in traced_windows]) / 1e3
         if srv and traced_windows else 0.0),
        # net.shard: the server's own phase accounting and the map calls it makes
        ("net.shard.queue_us.p50", "us", phase_q("queue", "p50")),
        ("net.shard.queue_us.p99", "us", phase_q("queue", "p99")),
        ("net.shard.execute_us.p50", "us", phase_q("execute", "p50")),
        ("net.shard.execute_us.p99", "us", phase_q("execute", "p99")),
        ("net.shard.flush_us.p50", "us", phase_q("flush", "p50")),
        ("net.shard.flush_us.p99", "us", phase_q("flush", "p99")),
        ("net.shard.total_us.p50", "us", phase_q("total", "p50")),
        ("net.shard.total_us.p99", "us", phase_q("total", "p99")),
        ("net.map.get_ns.p50", "ns", percentile(get, 0.50)),
        ("net.map.get_ns.p99", "ns", percentile(get, 0.99)),
        ("net.map.put_ns.p50", "ns", percentile(put, 0.50)),
        ("net.map.put_ns.p99", "ns", percentile(put, 0.99)),
        ("net.shard.served_frac", "fraction",
         ratio(served, served + srv.get("shed", 0) + srv.get("deadline_expired", 0))),
        ("net.shard.degraded_frac", "fraction", ratio(srv.get("degraded_replies", 0), served)),
        ("net.shard.queue_hwm", "requests", float(srv.get("queue_hwm", 0))),
        # net.kernel: what the client sees beyond the server's own accounting
        ("net.outside_server_us.p50", "us",
         req_p50_us - phase_q("total", "p50") if srv else 0.0),
        # run-wide
        ("host.steal_frac", "fraction", od["host.steal_frac"]),
        # the callers' runnable share of the wall time: 1 minus the steal on
        # their vCPUs, and lower again by any time they slept
        ("host.caller_run_frac", "fraction",
         statistics.median(used_run) if used_run else 0.0),
        ("trace_overhead_frac", "fraction", trace_overhead_frac(windows)),
    ]
    return {name: {"value": float(value), "unit": unit} for name, unit, value in rows}


def print_report(dump, out=sys.stdout):
    od = dump["otherData"]
    print(f"== per-layer metrics: {od['workload']}  seed {od['seed']}", file=out)
    for name, m in per_layer_metrics(dump).items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=out)
    print("  span                   count   dur_p50_us  self_p50_us  dur_p99_us",
          file=out)
    durs = defaultdict(list)
    for e in dump["traceEvents"]:
        durs[e["name"]].append(e["dur"])
    for name, selfs in sorted(self_times_us(dump["traceEvents"]).items()):
        d = sorted(durs[name])
        print(f"  {name:20s} {len(d):7d} {percentile(d, 0.5):12.3f} "
              f"{percentile(sorted(selfs), 0.5):12.3f} {percentile(d, 0.99):11.3f}",
              file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dumps", nargs="+", help="trace dumps written by --trace DIR")
    ap.add_argument("--json", action="store_true",
                    help="print each dump's metrics as one JSON object per line")
    args = ap.parse_args()
    for path in args.dumps:
        dump = load(path)
        if args.json:
            print(json.dumps(per_layer_metrics(dump)))
        else:
            print_report(dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
