#!/usr/bin/env python3
"""trace_summarize.py — offline digest of cachetrie-trace-v1 JSON dumps.

Usage:
    scripts/trace_summarize.py TRACE_foo.json [TRACE_bar.json ...] [--top 10]

For each file (a Chrome trace-event dump written by obs/trace_export.hpp):

  * header: reason, event count, how many events ever emitted and how many
    scrolled out of the rings before the drain (overwrite loss);
  * per-event-name counts, sorted descending — names missing from the
    event table the dump embeds (otherData.event_table, written from
    obs/sites.hpp's site table) are flagged, so a name the exporter did not
    take from the table shows up in the digest instead of silently forking
    the event namespace;
  * inter-event gap statistics per event name (min/mean/max microseconds
    between consecutive occurrences on the global timeline) — a cheap way
    to spot "the epoch stopped flipping for 400 ms";
  * the top-N longest spans ('B'/'E' pairs matched per thread by name,
    e.g. chm.bin_lock waits+holds and ctrie.gcas funnels), with thread id,
    start timestamp and payload args;
  * when the dump carries serving-layer events (net.*), a per-connection
    rollup: requests served (net.request spans keyed by a0=conn id) with
    mean/max service time, shed/deadline/backpressure counts, and the
    connection's close reason.

Stdlib only; no third-party imports. Exit status: 0 on success, 2 on a
missing/undecodable/foreign-schema file, and with --strict also 2 when a
dump carries no event table or names an event its own table lacks.
"""

import argparse
import json
import sys

SCHEMA = "cachetrie-trace-v1"

def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_summarize: cannot load {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    other = doc.get("otherData", {})
    if other.get("schema") != SCHEMA:
        print(
            f"trace_summarize: {path}: schema {other.get('schema')!r}, "
            f"expected {SCHEMA!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return doc


def gap_stats(timestamps):
    """(min, mean, max) of consecutive deltas; None for <2 samples."""
    if len(timestamps) < 2:
        return None
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
    return min(gaps), sum(gaps) / len(gaps), max(gaps)


def collect_spans(events):
    """Match 'B'/'E' per (tid, name) with a stack; returns a list of
    (duration_us, name, tid, start_ts, args). Unmatched ends (their 'B'
    scrolled out of the ring) are already demoted to instants by the
    exporter, so leftovers here are spans still open at the drain."""
    stacks = {}
    spans = []
    for ev in events:
        ph = ev.get("ph")
        key = (ev.get("tid"), ev.get("name"))
        if ph == "B":
            stacks.setdefault(key, []).append(ev)
        elif ph == "E":
            stack = stacks.get(key)
            if stack:
                begin = stack.pop()
                spans.append((
                    ev["ts"] - begin["ts"],
                    ev.get("name", "?"),
                    ev.get("tid"),
                    begin["ts"],
                    begin.get("args", {}),
                ))
    open_spans = sum(len(s) for s in stacks.values())
    return spans, open_spans


CLOSE_REASONS = {0: "eof", 1: "error", 2: "proto", 3: "backpressure",
                 4: "shutdown"}

# net.* events carrying a connection id in a0 (net.drain / net.shutdown
# carry a shard index there instead and stay out of the connection view).
CONN_EVENTS = frozenset({
    "net.accept", "net.conn.close", "net.request", "net.shed",
    "net.deadline_expire", "net.backpressure_kill",
})


def connection_view(events, spans, top):
    """Per-connection rollup of the serving layer's trace: requests served
    (matched net.request spans keyed by a0=conn id), sheds, deadline
    expiries, backpressure kills, and how the connection ended. Prints
    nothing when the dump has no net.* connection events."""
    conns = {}

    def row(cid):
        return conns.setdefault(cid, {
            "shard": None, "requests": 0, "dur_sum": 0.0, "dur_max": 0.0,
            "shed": 0, "deadline": 0, "bp_kill": 0, "close": None,
        })

    seen = False
    for ev in events:
        name = ev.get("name")
        if name not in CONN_EVENTS or name == "net.request":
            continue
        args = ev.get("args", {})
        if "a0" not in args:
            continue
        seen = True
        r = row(args["a0"])
        if name == "net.accept":
            r["shard"] = args.get("a1")
        elif name == "net.conn.close":
            r["close"] = CLOSE_REASONS.get(args.get("a1"), args.get("a1"))
        elif name == "net.shed":
            r["shed"] += 1
        elif name == "net.deadline_expire":
            r["deadline"] += 1
        elif name == "net.backpressure_kill":
            r["bp_kill"] += 1
    for dur, name, _tid, _start, args in spans:
        if name != "net.request" or "a0" not in args:
            continue
        seen = True
        r = row(args["a0"])
        r["requests"] += 1
        r["dur_sum"] += dur
        r["dur_max"] = max(r["dur_max"], dur)
    if not seen:
        return

    print(f"  connections (top {min(top, len(conns))} of {len(conns)} "
          f"by requests):")
    ranked = sorted(conns.items(),
                    key=lambda kv: (-kv[1]["requests"], kv[0]))
    for cid, r in ranked[:top]:
        mean = r["dur_sum"] / r["requests"] if r["requests"] else 0.0
        shard = "?" if r["shard"] is None else r["shard"]
        close = r["close"] if r["close"] is not None else "open"
        print(f"    conn {cid:<6} shard {shard:<3} requests {r['requests']:>6}"
              f"  serve us mean/max {mean:.1f}/{r['dur_max']:.1f}"
              f"  shed {r['shed']}  deadline {r['deadline']}"
              f"  bp_kill {r['bp_kill']}  close {close}")


# Request-phase lifecycle stamps (obs/sites.hpp's net.req.* rows): every
# one carries (a0=conn id, a1=request id), the join key of the phase view.
PHASE_EVENTS = frozenset({
    "net.req.parsed", "net.req.admitted", "net.req.dequeued",
    "net.req.execute", "net.req.flushed",
})


def phase_view(events, spans, top):
    """Tail attribution: for the slowest decile of net.request spans, which
    phase — queue (admitted->dequeued), execute (execute B->E), or flush
    (execute E->flushed) — dominated the request. Stamps join per request
    on (a0=conn id, a1=request id). Prints nothing when the dump carries no
    phase stamps (pre-PR-9 dumps, or non-serving workloads)."""
    stamps = {}
    for ev in events:
        name = ev.get("name")
        if name not in PHASE_EVENTS:
            continue
        args = ev.get("args", {})
        if "a0" not in args or "a1" not in args:
            continue
        rec = stamps.setdefault((args["a0"], args["a1"]), {})
        if name == "net.req.execute":
            rec["exec_b" if ev.get("ph") == "B" else "exec_e"] = ev.get("ts", 0)
        else:
            rec[name.rsplit(".", 1)[-1]] = ev.get("ts", 0)
    if not stamps:
        return

    reqs = []
    for dur, name, _tid, _start, args in spans:
        if name != "net.request" or "a0" not in args or "a1" not in args:
            continue
        reqs.append((dur, (args["a0"], args["a1"])))
    if not reqs:
        return
    reqs.sort(key=lambda s: -s[0])
    slow = reqs[:max(1, len(reqs) // 10)]

    needed = {"admitted", "dequeued", "exec_b", "exec_e", "flushed"}
    rows = []
    dominated = {"queue": 0, "execute": 0, "flush": 0}
    skipped = 0
    for dur, key in slow:
        rec = stamps.get(key)
        if rec is None or not needed <= rec.keys():
            skipped += 1  # some stamps scrolled out of the ring
            continue
        phases = {
            "queue": rec["dequeued"] - rec["admitted"],
            "execute": rec["exec_e"] - rec["exec_b"],
            "flush": rec["flushed"] - rec["exec_e"],
        }
        dom = max(phases, key=phases.get)
        dominated[dom] += 1
        rows.append((dur, key, phases, dom))

    print(f"  tail attribution (slowest decile: {len(slow)} of {len(reqs)} "
          f"net.request spans"
          + (f", {skipped} without full stamps" if skipped else "") + "):")
    if not rows:
        print("    no slow-decile request carries a full stamp set "
              "(ring overwrite?)")
        return
    for ph in ("queue", "execute", "flush"):
        share = 100.0 * dominated[ph] / len(rows)
        print(f"    dominated by {ph:<8} {dominated[ph]:>6}  ({share:.1f}%)")
    for dur, key, phases, dom in rows[:top]:
        print(f"    {dur:>10.1f} us  conn {key[0]} req {key[1]}  "
              f"queue {phases['queue']:.1f}  execute {phases['execute']:.1f}"
              f"  flush {phases['flush']:.1f}  -> {dom}")


def summarize(path, top):
    doc = load(path)
    other = doc.get("otherData", {})
    events = sorted(doc.get("traceEvents", []), key=lambda e: e.get("ts", 0))

    print(f"== {path}")
    print(f"  reason: {other.get('reason', '')!r}  events: {len(events)}  "
          f"emitted_total: {other.get('emitted_total', '?')}  "
          f"overwritten: {other.get('overwritten', '?')}")

    by_name = {}
    for ev in events:
        by_name.setdefault(ev.get("name", "?"), []).append(ev.get("ts", 0))

    # Dumps from before the table was embedded have none: the digest still
    # prints, but nothing can be checked against it (--strict fails).
    table = other.get("event_table")
    known = None if table is None else {e.get("name") for e in table}
    if known is None:
        print("  WARNING: dump carries no event_table; names are unchecked")

    print("  event counts:")
    unknown = []
    for name, stamps in sorted(by_name.items(),
                               key=lambda kv: (-len(kv[1]), kv[0])):
        # The exporter demotes an 'E' whose 'B' scrolled out of the ring to
        # an instant named "<name> (unmatched)" — an overwrite artifact of a
        # known event, not namespace drift.
        base = name.removesuffix(" (unmatched)")
        drifted = known is not None and base not in known
        tag = " [?]" if drifted else ""
        line = f"    {name + tag:<34} {len(stamps):>7}"
        stats = gap_stats(stamps)
        if stats is not None:
            lo, mean, hi = stats
            line += (f"   gap us min/mean/max "
                     f"{lo:.1f}/{mean:.1f}/{hi:.1f}")
        print(line)
        if drifted:
            unknown.append(name)
    if unknown:
        print(f"  WARNING: {len(unknown)} event name(s) not in the dump's "
              f"event_table: {', '.join(sorted(unknown))}")

    spans, open_spans = collect_spans(events)
    if spans:
        spans.sort(key=lambda s: -s[0])
        print(f"  longest spans (top {min(top, len(spans))} of {len(spans)}"
              + (f", {open_spans} still open" if open_spans else "") + "):")
        for dur, name, tid, start, args in spans[:top]:
            atxt = " ".join(f"{k}={v}" for k, v in sorted(args.items()))
            print(f"    {dur:>10.1f} us  {name:<20} tid {tid}  "
                  f"@ {start:.1f} us  [{atxt}]")
    else:
        print("  no completed spans" +
              (f" ({open_spans} still open)" if open_spans else ""))

    connection_view(events, spans, top)
    phase_view(events, spans, top)
    return known is None, len(unknown)


def main():
    ap = argparse.ArgumentParser(
        description="Summarize cachetrie flight-recorder trace dumps.")
    ap.add_argument("traces", nargs="+", help="TRACE_*.json files")
    ap.add_argument("--top", type=int, default=10,
                    help="how many longest spans to print (default 10)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 2 if a dump carries no event table, or names "
                         "an event its own table lacks (CI mode: these fail "
                         "instead of scrolling by as warnings)")
    args = ap.parse_args()
    tableless = drifted = 0
    for i, path in enumerate(args.traces):
        if i:
            print()
        no_table, unknown = summarize(path, args.top)
        tableless += no_table
        drifted += unknown
    if args.strict and (tableless or drifted):
        print(f"trace_summarize: --strict: {tableless} dump(s) without an "
              f"event_table, {drifted} event name(s) missing from their "
              f"dump's table", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
