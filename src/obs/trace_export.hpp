// trace_export.hpp — drains the flight recorder into Chrome trace-event
// JSON, the array-of-events dialect that chrome://tracing and Perfetto's
// legacy importer both load directly (EXPERIMENTS.md shows how).
//
// Shape:
//   { "displayTimeUnit": "ms",
//     "otherData": { "schema": "cachetrie-trace-v1", "reason": ...,
//                    "events": N, "emitted_total": M, "overwritten": K,
//                    "ns_per_tick": T,
//                    "event_table": [ {"name", "cat", "ph"} ... ] },
//     "traceEvents": [ { "name", "cat", "ph", "ts", "pid", "tid",
//                        "args": {"a0", "a1"} } ... ] }
//
// "event_table" is obs/sites.hpp's kEventInfo in EventId order, so a dump
// names every event this build could emit and scripts/trace_summarize.py
// checks the dump against it instead of keeping its own copy.
//
// Timestamps are microseconds relative to the earliest drained event,
// converted from raw ticks with the shared tsc calibration. Span begins
// and ends ('B'/'E') pair up per thread by name; because rings overwrite
// their oldest events, an 'E' whose 'B' scrolled away would corrupt the
// viewer's per-thread stack, so the writer tracks span depth per tid and
// demotes unmatched ends to instants.
//
// dump_to_file() honors $CACHETRIE_TRACE_OUT (directory) and names files
// TRACE_<reason>.json; post_mortem_dump() is the once-per-process variant
// the watchdog/lin-check failure hooks call, so the first failure's
// timeline is preserved and later failures cannot overwrite it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // detail_emit::json_escape
#include "obs/sites.hpp"
#include "obs/trace.hpp"

namespace cachetrie::obs::trace {

/// Writes `events` (drained, any order) as Chrome trace JSON.
inline void write_chrome_json(std::ostream& os, std::vector<Event> events,
                              const char* reason) {
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });
  const double ns_per_tick = tsc::calibration().ns_per_tick;
  const std::uint64_t t0 = events.empty() ? 0 : events.front().ts;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"schema\":\"cachetrie-trace-v1\",\"reason\":\"";
  detail_emit::json_escape(os, reason == nullptr ? "" : reason);
  os << "\",\"events\":" << events.size()
     << ",\"emitted_total\":" << registry().total_emitted()
     << ",\"overwritten\":" << registry().total_overwritten()
     << ",\"ns_per_tick\":" << ns_per_tick << ",\"event_table\":[";
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const EventInfo& info = kEventInfo[i];
    os << (i == 0 ? "" : ",") << "{\"name\":\"" << info.name
       << "\",\"cat\":\"" << info.category << "\",\"ph\":\"" << info.phase
       << "\"}";
  }
  os << "]},\"traceEvents\":[";
  std::map<std::uint32_t, int> depth;
  bool first = true;
  char buf[32];
  for (const Event& ev : events) {
    const EventInfo& info = event_info(ev.id);
    char ph = info.phase;
    bool unmatched = false;
    if (ph == 'E') {
      int& d = depth[ev.tid];
      if (d == 0) {
        ph = 'i';  // its 'B' was overwritten — demote to an instant
        unmatched = true;
      } else {
        --d;
      }
    } else if (ph == 'B') {
      ++depth[ev.tid];
    }
    if (!first) os << ",";
    first = false;
    const double us =
        static_cast<double>(ev.ts - t0) * ns_per_tick / 1000.0;
    std::snprintf(buf, sizeof buf, "%.3f", us);
    os << "{\"name\":\"" << info.name << (unmatched ? " (unmatched)" : "")
       << "\",\"cat\":\"" << info.category << "\",\"ph\":\"" << ph
       << "\",\"ts\":" << buf << ",\"pid\":1,\"tid\":" << ev.tid;
    if (ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"args\":{\"a0\":" << ev.a0 << ",\"a1\":" << ev.a1 << "}}";
  }
  os << "]}";
}

/// `TRACE_<reason>.json`, under $CACHETRIE_TRACE_OUT when set.
inline std::string dump_path(const char* reason) {
  std::string p;
  if (const char* dir = std::getenv("CACHETRIE_TRACE_OUT")) {
    p = dir;
    if (!p.empty() && p.back() != '/') p += '/';
  }
  p += "TRACE_";
  p += (reason == nullptr || *reason == '\0') ? "dump" : reason;
  p += ".json";
  return p;
}

/// Drains every ring and writes the timeline. Returns the path written,
/// or "" on metrics-OFF builds / I/O failure. Safe while recording continues.
inline std::string dump_to_file(const char* reason) {
  if (!kMetricsCompiled) return {};
  const std::string file = dump_path(reason);
  std::ofstream os{file};
  if (!os) {
    std::fprintf(stderr, "trace: cannot open %s\n", file.c_str());
    return {};
  }
  write_chrome_json(os, registry().drain(), reason);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "trace: write to %s failed\n", file.c_str());
    return {};
  }
  std::fprintf(stderr, "trace: wrote %s\n", file.c_str());
  return file;
}

/// Once-per-process post-mortem dump (first failure wins; later calls are
/// no-ops). No-op when tracing is compiled out or not runtime-enabled, so
/// ordinary fault tests don't spray files.
inline std::string post_mortem_dump(const char* reason) {
  if (!kMetricsCompiled || !enabled()) return {};
  static std::atomic<bool> done{false};
  if (done.exchange(true, std::memory_order_acq_rel)) return {};
  return dump_to_file(reason);
}

}  // namespace cachetrie::obs::trace
