// sites.hpp — the instrumentation-site table: every metric and every trace
// event in the tree is declared once, here, X-macro style (same idiom as
// util/ordering_contracts.hpp).
//
// One row per site:
//
//   X(handle, Metric, "metric.name", shape, kEvent, "event.name", "cat")
//
//   * handle — the obs::sites:: variable call sites record through.
//   * Metric — Counter, Histogram or Gauge (registered in obs::registry()
//     under "metric.name"), or NoMetric for a trace-only site (the name is
//     then nullptr).
//   * shape  — none (metric only), instant ('i'), or span (a 'B'/'E' pair;
//     the enumerators are kEvent##Begin / kEvent##End). For `none` the last
//     three columns are `_`.
//
// Everything else is generated from the rows: the trace::EventId enum, the
// kEventInfo name/category/phase table (which trace_export.hpp embeds in
// every dump, so scripts/trace_summarize.py reads it instead of a copy),
// and the handles:
//
//   * Metric-only handles are the metric itself (`.add()`, `.record(v)`,
//     `.set(v)`).
//   * Instant handles add `.record(a0, a1)`: one Counter::add (its pre-add
//     value is returned, for 1-in-2^k samplers) then trace::emit — the
//     same code as writing the two calls out. Counter-only hot sites keep
//     calling `.add()`.
//   * Span handles add `.span(a0, a1)`: an RAII trace::Span.
//
// When CACHETRIE_METRICS is off every handle is empty (the Null* types),
// record() does nothing and span() returns the zero-size NullSpan. Handles
// are namespace-scope `inline` variables: constructed during static
// initialization (before any structure runs an operation), shared across
// translation units, and one pointer each.
//
// Naming: <layer>.<subsystem>.<event>, all lowercase. Where a site's
// metric and event names differ, both are kept as they were first
// published. The mr/ epoch-domain and node-pool numbers are not rows: they
// are callback gauges (mr.epoch.*, mr.pool.*) that EpochDomain and
// NodePool register themselves, so snapshots fold them in without double
// bookkeeping. Chaos sites are rows of their own table, CACHETRIE_CHAOS_SITES
// in testkit/chaos.hpp; a chaos-site name that matches a name here is not
// the same row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// clang-format off
#define CACHETRIE_SITES(X)                                                     \
  /* --- cachetrie: cache behaviour (paper §3.6, analysis report §4).       \
     hit-rate = hit / (hit + lookup.slow): `hit` counts lookups answered     \
     through the cache (SNode fast path and ANode-entry path), `slow`        \
     lookups that fell through to a root descent (no cache, no entry, or a   \
     frozen/stale cached node). `miss` counts the paper's per-lookup         \
     miss-counter increments (decrements are not counted: the signal is how \
     much miss pressure the workload exerts). `inhabit` counts stores into a \
     cache entry (maybe_inhabit at the deepest level). --- */                \
  X(cachetrie_cache_hit, Counter, "cachetrie.cache.hit", none, _, _, _)      \
  X(cachetrie_lookup_slow, Counter, "cachetrie.lookup.slow", none, _, _, _)  \
  X(cachetrie_cache_miss, Counter, "cachetrie.cache.miss", none, _, _, _)    \
  X(cachetrie_cache_install, Counter, "cachetrie.cache.install",             \
    instant, kCachetrieCacheInstall, "cachetrie.cache.install", "cachetrie") \
  X(cachetrie_cache_inhabit, Counter, "cachetrie.cache.inhabit",             \
    none, _, _, _)                                                           \
  X(cachetrie_cache_level_change, Counter, "cachetrie.cache.level_change",   \
    instant, kCachetrieCacheLevelChange, "cachetrie.cache.level_change",     \
    "cachetrie")                                                             \
  X(cachetrie_sampling_pass, Counter, "cachetrie.cache.sampling_pass",       \
    none, _, _, _)                                                           \
  /* Pointer dereferences per lookup (cache hit == 1 for SNode entries, 2   \
     for ANode entries; slow lookups record their true walked depth). Every \
     entry point samples ~1/64 off its own counter's pre-add value, so the   \
     histogram is an unbiased sample of the per-lookup depth distribution.   \
     sample.leaf_level: leaf levels (bits/4) seen by the miss-counter        \
     sampling passes that drive cache growth. */                             \
  X(cachetrie_lookup_depth, Histogram, "cachetrie.lookup.depth",             \
    none, _, _, _)                                                           \
  X(cachetrie_sample_leaf_level, Histogram, "cachetrie.sample.leaf_level",   \
    none, _, _, _)                                                           \
  /* --- cachetrie: protocol transitions (paper §3.3-§3.5). freeze: one     \
     slot frozen during an ENode copy; expand/compress: an ENode committed;  \
     txn_commit: two-CAS txn announcement won, slot committed; txn.retry: a  \
     competing announcement or commit forced this thread to retry the       \
     level (§3.3). --- */                                                    \
  X(cachetrie_freeze, Counter, "cachetrie.freeze",                           \
    instant, kCachetrieFreeze, "cachetrie.freeze", "cachetrie")              \
  X(cachetrie_expand, Counter, "cachetrie.expand",                           \
    instant, kCachetrieExpand, "cachetrie.expand", "cachetrie")              \
  X(cachetrie_compress, Counter, "cachetrie.compress",                       \
    instant, kCachetrieCompress, "cachetrie.compress", "cachetrie")          \
  X(cachetrie_txn_commit, NoMetric, nullptr,                                 \
    instant, kCachetrieTxnCommit, "cachetrie.txn_commit", "cachetrie")       \
  X(cachetrie_txn_retry, Counter, "cachetrie.txn.retry", none, _, _, _)      \
  X(cachetrie_root_restart, Counter, "cachetrie.root.restart", none, _, _, _)\
  /* --- cachetrie: operation outcomes (drive the chaos-test invariant:     \
     insert_new - remove == size on a fresh trie after quiescence) --- */    \
  X(cachetrie_insert_new, Counter, "cachetrie.op.insert_new", none, _, _, _) \
  X(cachetrie_replace, Counter, "cachetrie.op.replace", none, _, _, _)       \
  X(cachetrie_remove, Counter, "cachetrie.op.remove", none, _, _, _)         \
  /* --- cachetrie: bounded-memory mode (DESIGN.md §3). Evictions are       \
     linearizable removes performed by the eviction machinery rather than a \
     user remove(); they are counted here, not in op.remove, so the          \
     invariant above stays exact for unbounded tries and the TTL tests can   \
     assert evictions + expiries == pairs that vanished. backpressure:       \
     operations that entered an over-ceiling eviction scan before doing      \
     their own work (event a0 = resident bytes, a1 = ceiling). --- */        \
  X(cachetrie_evict_lru, Counter, "cachetrie.evict.lru",                     \
    instant, kCachetrieEvict, "cachetrie.evict", "cachetrie")                \
  X(cachetrie_evict_ttl, Counter, "cachetrie.evict.ttl",                     \
    instant, kCachetrieExpire, "cachetrie.expire", "cachetrie")              \
  X(cachetrie_evict_backpressure, Counter, "cachetrie.evict.backpressure",   \
    instant, kCachetrieCeilingHit, "cachetrie.ceiling_hit", "cachetrie")     \
  /* --- ctrie. gcas: span over the main-node CAS funnel, clean and        \
     clean_parent commits included; gcas.retry: a main-node CAS failure;     \
     entomb: live SNode entombed into a TNode; clean: clean() compressed an  \
     INode's main node; clean_parent: a TNode contracted one level up. */    \
  X(ctrie_gcas, NoMetric, nullptr, span, kCtrieGcas, "ctrie.gcas", "ctrie")  \
  X(ctrie_gcas_retry, Counter, "ctrie.gcas.retry",                           \
    instant, kCtrieGcasRetry, "ctrie.gcas.retry", "ctrie")                   \
  X(ctrie_entomb, NoMetric, nullptr,                                         \
    instant, kCtrieEntomb, "ctrie.entomb", "ctrie")                          \
  X(ctrie_clean, Counter, "ctrie.clean",                                     \
    instant, kCtrieClean, "ctrie.clean", "ctrie")                            \
  X(ctrie_clean_parent, Counter, "ctrie.clean_parent",                       \
    instant, kCtrieCleanParent, "ctrie.clean_parent", "ctrie")               \
  /* --- chashmap. bin_lock: the counter counts acquisitions, the span      \
     covers wait + hold (a0 = bin index); resize: new table allocated;       \
     transfer.help: a thread joined an in-progress transfer; transfer.bin:   \
     one bin migrated to the next table. --- */                              \
  X(chm_bin_lock, Counter, "chm.bin_lock",                                   \
    span, kChmBinLock, "chm.bin_lock", "chm")                                \
  X(chm_resize, Counter, "chm.resize",                                       \
    instant, kChmResize, "chm.resize", "chm")                                \
  X(chm_transfer_help, Counter, "chm.transfer.help",                         \
    instant, kChmTransferHelp, "chm.transfer.help", "chm")                   \
  X(chm_transfer_bin, Counter, "chm.transfer.bin",                           \
    instant, kChmTransferBin, "chm.transfer.bin", "chm")                     \
  /* --- skiplist. mark_bottom: bottom-level link marked (logical delete);  \
     help_mark: a thread marked an upper-level link on behalf of a          \
     logically deleted node it encountered. --- */                           \
  X(csl_mark_bottom, NoMetric, nullptr,                                      \
    instant, kCslMarkBottom, "csl.mark_bottom", "csl")                       \
  X(csl_help_mark, Counter, "csl.help_mark",                                 \
    instant, kCslHelpMark, "csl.help_mark", "csl")                           \
  X(csl_cas_retry, Counter, "csl.cas.retry", none, _, _, _)                  \
  /* --- mr: epoch domain. flip: a0 = new epoch. --- */                      \
  X(mr_epoch_flip, NoMetric, nullptr,                                        \
    instant, kMrEpochFlip, "mr.epoch.flip", "mr")                            \
  /* --- testkit. park: the fault engine parked a thread (a0 = the           \
     testkit::Site row it crossed); resume: a stalled thread woke and        \
     resumed; kill: a die() victim unwound as killed;                        \
     watchdog.violation: a tick saw zero completed operations;               \
     watchdog.ticks / last_tick_delta: every watchdog's completed ticks and  \
     the last tick's completed-op delta (survivor throughput per tick);      \
     lin_check.fail: the checker rejected a history. --- */                  \
  X(fault_park, NoMetric, nullptr,                                           \
    instant, kFaultPark, "testkit.fault.park", "testkit")                    \
  X(fault_resume, NoMetric, nullptr,                                         \
    instant, kFaultResume, "testkit.fault.resume", "testkit")                \
  X(fault_kill, NoMetric, nullptr,                                           \
    instant, kFaultKill, "testkit.fault.kill", "testkit")                    \
  X(watchdog_violation, Counter, "testkit.watchdog.violations",              \
    instant, kWatchdogViolation, "testkit.watchdog.violation", "testkit")    \
  X(watchdog_ticks, Counter, "testkit.watchdog.ticks", none, _, _, _)        \
  X(watchdog_last_tick_delta, Gauge, "testkit.watchdog.last_tick_delta",     \
    none, _, _, _)                                                           \
  X(lin_check_fail, NoMetric, nullptr,                                       \
    instant, kLinCheckFail, "testkit.lin_check.fail", "testkit")             \
  /* --- net: serving layer (DESIGN.md §4). Connection-scoped events carry  \
     the connection id in a0 so trace_summarize.py can build the             \
     per-connection view: accept (a1 = shard), conn.close (a1 = reason),     \
     request span: admission -> reply enqueued (a1 = request id), shed and   \
     deadline_expire (a1 = request id), backpressure_kill (a1 = buffered    \
     bytes). drain and shutdown carry the shard in a0 (a1 = open conns,      \
     served total). The shed/deadline/backpressure triple is the             \
     overload-audit surface: a soak run where net.shed stays zero while      \
     latency grows means admission control is mis-tuned. degraded_replies:  \
     replies stamped kFlagDegraded (map near its resident ceiling);          \
     conns_open: currently open connections across all shards;               \
     client.kicks: eventfd writes by net::Client::send() that woke a parked  \
     I/O thread. --- */                                                      \
  X(net_accept, Counter, "net.accept", instant, kNetAccept, "net.accept",    \
    "net")                                                                   \
  X(net_conn_close, Counter, "net.conn.close",                               \
    instant, kNetConnClose, "net.conn.close", "net")                         \
  X(net_request, NoMetric, nullptr, span, kNetRequest, "net.request", "net") \
  X(net_request_served, Counter, "net.request.served", none, _, _, _)        \
  X(net_shed, Counter, "net.shed", instant, kNetShed, "net.shed", "net")     \
  X(net_deadline_expired, Counter, "net.deadline_expired",                   \
    instant, kNetDeadlineExpire, "net.deadline_expire", "net")               \
  X(net_backpressure_kill, Counter, "net.backpressure_kill",                 \
    instant, kNetBackpressureKill, "net.backpressure_kill", "net")           \
  X(net_drain, NoMetric, nullptr, instant, kNetDrain, "net.drain", "net")    \
  X(net_shutdown, NoMetric, nullptr,                                         \
    instant, kNetShutdown, "net.shutdown", "net")                            \
  X(net_proto_error, Counter, "net.proto_error", none, _, _, _)              \
  X(net_degraded_replies, Counter, "net.degraded_replies", none, _, _, _)    \
  X(net_conns_open, Gauge, "net.conns_open", none, _, _, _)                  \
  X(net_client_kicks, Counter, "net.client.kicks", none, _, _, _)            \
  /* --- net: request-phase attribution (DESIGN.md §4). Every stamp is      \
     keyed (a0 = conn id, a1 = request id) so trace_summarize.py can join    \
     them per request. The three phase histograms partition a served         \
     request's shard-side lifetime exactly: queue (admission -> dequeue),    \
     execute (map operation), flush (reply bytes accepted by the kernel).    \
     They record in stamp_flushed from the same stamps, in the same          \
     geometry, as the per-shard net::PhaseLatency set, so a kStats poll      \
     (and any snapshot) describes the requests fig15 reports.                \
     introspect.ops: kStats/kTraceCtl requests served. --- */                \
  X(net_req_parsed, NoMetric, nullptr,                                       \
    instant, kNetReqParsed, "net.req.parsed", "net")                         \
  X(net_req_admitted, NoMetric, nullptr,                                     \
    instant, kNetReqAdmitted, "net.req.admitted", "net")                     \
  X(net_req_dequeued, NoMetric, nullptr,                                     \
    instant, kNetReqDequeued, "net.req.dequeued", "net")                     \
  X(net_req_execute, NoMetric, nullptr,                                      \
    span, kNetExecute, "net.req.execute", "net")                             \
  X(net_req_flushed, NoMetric, nullptr,                                      \
    instant, kNetReqFlushed, "net.req.flushed", "net")                       \
  X(net_phase_queue_us, Histogram, "net.phase.queue_us", none, _, _, _)      \
  X(net_phase_execute_us, Histogram, "net.phase.execute_us", none, _, _, _)  \
  X(net_phase_flush_us, Histogram, "net.phase.flush_us", none, _, _, _)      \
  X(net_introspect_ops, Counter, "net.introspect.ops", none, _, _, _)

// The trace facet of a row, by shape: F(id, name, category, phase) once per
// event the row emits. A span row is where the 'B'/'E' pair comes from.
#define CACHETRIE_SITE_SHAPE_none(F, id, name, cat)
#define CACHETRIE_SITE_SHAPE_instant(F, id, name, cat) F(id, name, cat, 'i')
#define CACHETRIE_SITE_SHAPE_span(F, id, name, cat)                          \
  F(id##Begin, name, cat, 'B') F(id##End, name, cat, 'E')
#define CACHETRIE_SITE_EVENTS(F, handle, Metric, metric, shape, id, name, cat) \
  CACHETRIE_SITE_SHAPE_##shape(F, id, name, cat)
// clang-format on

namespace cachetrie::obs {

namespace trace {

enum class EventId : std::uint16_t {
  kNone = 0,
#define CACHETRIE_SITE_ENUM(id, name, cat, phase) id,
#define CACHETRIE_SITE_ROW(...) \
  CACHETRIE_SITE_EVENTS(CACHETRIE_SITE_ENUM, __VA_ARGS__)
  CACHETRIE_SITES(CACHETRIE_SITE_ROW)
#undef CACHETRIE_SITE_ROW
#undef CACHETRIE_SITE_ENUM
  kCount
};

struct EventInfo {
  const char* name;      // Chrome-trace "name"
  const char* category;  // Chrome-trace "cat": the owning layer
  char phase;            // 'i' instant, 'B' span begin, 'E' span end
};

inline constexpr EventInfo kEventInfo[] = {
    {"none", "none", 'i'},
#define CACHETRIE_SITE_INFO(id, name, cat, phase) {name, cat, phase},
#define CACHETRIE_SITE_ROW(...) \
  CACHETRIE_SITE_EVENTS(CACHETRIE_SITE_INFO, __VA_ARGS__)
    CACHETRIE_SITES(CACHETRIE_SITE_ROW)
#undef CACHETRIE_SITE_ROW
#undef CACHETRIE_SITE_INFO
};

inline constexpr std::size_t kEventCount = std::size(kEventInfo);
static_assert(kEventCount == static_cast<std::size_t>(EventId::kCount));

constexpr const EventInfo& event_info(EventId id) noexcept {
  const auto i = static_cast<std::size_t>(id);
  return kEventInfo[i < kEventCount ? i : 0];
}

}  // namespace trace

/// The metric facet of a trace-only row: registers nothing, records nothing.
using NoMetric = NullCounter;

namespace sites {

/// A row's handle: its metric, plus the calls its trace shape allows.
template <typename Metric, trace::EventId... Ids>
struct Site : Metric {
  using Metric::Metric;
};

template <typename Metric, trace::EventId Id>
struct Site<Metric, Id> : Metric {
  using Metric::Metric;

  /// Counts one occurrence and emits the event. Returns the counter's
  /// pre-add value, as Counter::add does.
  [[gnu::always_inline]] std::uint64_t record(std::uint64_t a0 = 0,
                                              std::uint64_t a1 = 0) noexcept {
    const std::uint64_t before = this->add();
    trace::emit(Id, a0, a1);
    return before;
  }
};

template <typename Metric, trace::EventId Begin, trace::EventId End>
struct Site<Metric, Begin, End> : Metric {
  using Metric::Metric;

  /// Begin event now, end event when the returned span is destroyed.
  static trace::Span span(std::uint64_t a0 = 0, std::uint64_t a1 = 0) noexcept {
    return {Begin, End, a0, a1};
  }
};

#define CACHETRIE_SITE_ID(id, name, cat, phase) , trace::EventId::id
#define CACHETRIE_SITE_HANDLE(handle, Metric, metric, shape, id, name, cat) \
  inline Site<Metric CACHETRIE_SITE_SHAPE_##shape(CACHETRIE_SITE_ID, id,   \
                                                  name, cat)>              \
      handle{metric};
CACHETRIE_SITES(CACHETRIE_SITE_HANDLE)
#undef CACHETRIE_SITE_HANDLE
#undef CACHETRIE_SITE_ID

// With metrics compiled out, every shape of handle is empty.
static_assert(std::is_empty_v<Site<NullHistogram>> &&
              std::is_empty_v<Site<NullGauge>> &&
              kMetricsCompiled != std::is_empty_v<decltype(cachetrie_freeze)> &&
              std::is_empty_v<decltype(ctrie_gcas)>);

}  // namespace sites

namespace detail_sites {

constexpr bool same(const char* a, const char* b) {
  return a != nullptr && b != nullptr && std::string_view{a} == b;
}

/// Names are unique within each facet: metric keys across rows, event names
/// across kEventInfo (a span's 'E' repeats its 'B' and is skipped).
constexpr bool names_unique() {
#define CACHETRIE_SITE_METRIC(handle, Metric, metric, ...) metric,
  constexpr const char* metrics[] = {CACHETRIE_SITES(CACHETRIE_SITE_METRIC)};
#undef CACHETRIE_SITE_METRIC
  for (std::size_t i = 0; i < std::size(metrics); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (same(metrics[i], metrics[j])) return false;
    }
  }
  for (std::size_t i = 0; i < trace::kEventCount; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (trace::kEventInfo[i].phase != 'E' &&
          same(trace::kEventInfo[i].name, trace::kEventInfo[j].name)) {
        return false;
      }
    }
  }
  return true;
}

/// Every 'B' is directly followed by an 'E' of the same name, and every 'E'
/// directly follows a 'B'.
constexpr bool spans_pair_up() {
  using trace::kEventInfo;
  for (std::size_t i = 1; i < trace::kEventCount; ++i) {
    const bool begin = kEventInfo[i - 1].phase == 'B';
    if (begin != (kEventInfo[i].phase == 'E') ||
        (begin && !same(kEventInfo[i - 1].name, kEventInfo[i].name))) {
      return false;
    }
  }
  return kEventInfo[trace::kEventCount - 1].phase != 'B';
}

static_assert(names_unique(), "two rows share a metric key or event name");
static_assert(spans_pair_up(), "a span row lost its 'B'/'E' pair");

}  // namespace detail_sites

}  // namespace cachetrie::obs
