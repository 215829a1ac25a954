// trace_events.hpp — the central event inventory of the flight recorder.
//
// Every trace point in the tree names one EventId from this enum; the
// parallel kEventInfo table carries the Chrome-trace name, category and
// phase ('i' = instant, 'B'/'E' = begin/end of a span), so DESIGN.md §2e,
// the exporter, scripts/trace_summarize.py and the tests all agree on the
// spelling. The table is constexpr and unconditional — it costs nothing
// when CACHETRIE_TRACE is off and lets OFF builds still name events in
// (dead-coded) call sites.
//
// Naming convention matches obs/inventory.hpp: <layer>.<subsystem>.<event>.
// B and E entries of one span share a name (Chrome pairs them per thread).
#pragma once

#include <cstddef>
#include <cstdint>

namespace cachetrie::obs::trace {

enum class EventId : std::uint16_t {
  kNone = 0,

  // --- cachetrie: protocol transitions (paper §3.3-§3.6) -------------------
  kCachetrieFreeze,            // one slot frozen during an ENode copy
  kCachetrieExpand,            // ENode committed a narrow->wide expansion
  kCachetrieCompress,          // ENode committed a compression
  kCachetrieTxnCommit,         // two-CAS txn: announcement won, slot committed
  kCachetrieCacheInstall,      // cache array (re)published
  kCachetrieCacheLevelChange,  // sampling pass moved the cached level
  kCachetrieEvict,             // bounded mode: stale pair lazily evicted (LRU)
  kCachetrieExpire,            // bounded mode: TTL-expired pair evicted
  kCachetrieCeilingHit,        // bounded mode: resident bytes over the ceiling
                               // (a0 = resident, a1 = ceiling)

  // --- ctrie ----------------------------------------------------------------
  kCtrieGcasBegin,   // span: main-node CAS funnel (incl. retiring the loser)
  kCtrieGcasEnd,
  kCtrieGcasRetry,   // CAS lost — operation retries
  kCtrieEntomb,      // live SNode entombed into a TNode
  kCtrieClean,       // clean() compressed an INode's main node
  kCtrieCleanParent, // clean_parent() contracted a TNode one level up

  // --- chashmap ---------------------------------------------------------------
  kChmBinLockBegin,  // span: bin-lock wait + hold (payload a0 = bin index)
  kChmBinLockEnd,
  kChmResize,        // resize initiated (new table allocated)
  kChmTransferHelp,  // thread joined an in-progress transfer
  kChmTransferBin,   // one bin migrated to the next table

  // --- skiplist ---------------------------------------------------------------
  kCslMarkBottom,    // bottom-level link marked (logical delete)
  kCslHelpMark,      // helper marked an upper link of a deleted node

  // --- mr: epoch domain -------------------------------------------------------
  kMrEpochFlip,          // global epoch advanced (a0 = new epoch)
  kMrFallbackScanBegin,  // span: over-cap stall sweep (a0 = limbo bytes)
  kMrFallbackScanEnd,
  kMrStallDeclare,       // sweep declared a reader stalled (a0 = record)
  kMrStalledGuardExit,   // a sweep saw a declared-stalled reader exit

  // --- testkit ----------------------------------------------------------------
  kFaultPark,          // fault engine parked a thread (a0 = site hash)
  kFaultResume,        // parked thread resumed (passed the resume fence)
  kFaultKill,          // parked thread unwound as killed (die() or fence)
  kWatchdogViolation,  // a watchdog tick saw zero completed operations
  kLinCheckFail,       // linearizability checker rejected a history

  // --- net: serving layer (DESIGN.md §4). Connection-scoped events carry
  // the connection id in a0 so trace_summarize.py can build the
  // per-connection view. Appended after the PR-6 block — indices of
  // existing events never move. -----------------------------------------
  kNetAccept,            // connection accepted (a0 = conn id, a1 = shard)
  kNetConnClose,         // connection closed (a0 = conn id, a1 = reason)
  kNetRequestBegin,      // span: admission -> reply enqueued
  kNetRequestEnd,        //   (a0 = conn id, a1 = request id)
  kNetShed,              // admission control refused (a0 = conn, a1 = req)
  kNetDeadlineExpire,    // budget ran out pre-execution (a0 = conn, a1 = req)
  kNetBackpressureKill,  // write buffer over cap (a0 = conn, a1 = buffered)
  kNetDrain,             // shard entered drain (a0 = shard, a1 = open conns)
  kNetShutdown,          // shard loop exited (a0 = shard, a1 = served total)

  // --- net: request-phase attribution (PR-9 block, appended after the
  // PR-7 events — indices of existing events never move). One request's
  // lifecycle, every stamp keyed (a0 = conn id, a1 = request id) so
  // scripts/trace_summarize.py can join the stamps per request and report
  // which phase a slow request burned its budget in. ----------------------
  kNetReqParsed,       // frame pulled off the wire, pre-admission
  kNetReqAdmitted,     // admission control accepted it into the queue
  kNetReqDequeued,     // popped for execution (queue-wait phase ends)
  kNetExecuteBegin,    // span: map execution (or introspection-op build)
  kNetExecuteEnd,
  kNetReqFlushed,      // last reply byte accepted by the kernel socket

  kCount
};

struct EventInfo {
  const char* name;      // Chrome-trace "name"
  const char* category;  // Chrome-trace "cat" — the owning layer
  char phase;            // 'i' instant, 'B' span begin, 'E' span end
};

inline constexpr EventInfo kEventInfo[static_cast<std::size_t>(
    EventId::kCount)] = {
    {"none", "none", 'i'},
    {"cachetrie.freeze", "cachetrie", 'i'},
    {"cachetrie.expand", "cachetrie", 'i'},
    {"cachetrie.compress", "cachetrie", 'i'},
    {"cachetrie.txn_commit", "cachetrie", 'i'},
    {"cachetrie.cache.install", "cachetrie", 'i'},
    {"cachetrie.cache.level_change", "cachetrie", 'i'},
    {"cachetrie.evict", "cachetrie", 'i'},
    {"cachetrie.expire", "cachetrie", 'i'},
    {"cachetrie.ceiling_hit", "cachetrie", 'i'},
    {"ctrie.gcas", "ctrie", 'B'},
    {"ctrie.gcas", "ctrie", 'E'},
    {"ctrie.gcas.retry", "ctrie", 'i'},
    {"ctrie.entomb", "ctrie", 'i'},
    {"ctrie.clean", "ctrie", 'i'},
    {"ctrie.clean_parent", "ctrie", 'i'},
    {"chm.bin_lock", "chm", 'B'},
    {"chm.bin_lock", "chm", 'E'},
    {"chm.resize", "chm", 'i'},
    {"chm.transfer.help", "chm", 'i'},
    {"chm.transfer.bin", "chm", 'i'},
    {"csl.mark_bottom", "csl", 'i'},
    {"csl.help_mark", "csl", 'i'},
    {"mr.epoch.flip", "mr", 'i'},
    {"mr.epoch.fallback_scan", "mr", 'B'},
    {"mr.epoch.fallback_scan", "mr", 'E'},
    {"mr.epoch.stall_declare", "mr", 'i'},
    {"mr.epoch.stalled_guard_exit", "mr", 'i'},
    {"testkit.fault.park", "testkit", 'i'},
    {"testkit.fault.resume", "testkit", 'i'},
    {"testkit.fault.kill", "testkit", 'i'},
    {"testkit.watchdog.violation", "testkit", 'i'},
    {"testkit.lin_check.fail", "testkit", 'i'},
    {"net.accept", "net", 'i'},
    {"net.conn.close", "net", 'i'},
    {"net.request", "net", 'B'},
    {"net.request", "net", 'E'},
    {"net.shed", "net", 'i'},
    {"net.deadline_expire", "net", 'i'},
    {"net.backpressure_kill", "net", 'i'},
    {"net.drain", "net", 'i'},
    {"net.shutdown", "net", 'i'},
    {"net.req.parsed", "net", 'i'},
    {"net.req.admitted", "net", 'i'},
    {"net.req.dequeued", "net", 'i'},
    {"net.req.execute", "net", 'B'},
    {"net.req.execute", "net", 'E'},
    {"net.req.flushed", "net", 'i'},
};

constexpr const EventInfo& event_info(EventId id) noexcept {
  const auto i = static_cast<std::size_t>(id);
  return kEventInfo[i < static_cast<std::size_t>(EventId::kCount) ? i : 0];
}

static_assert(event_info(EventId::kMrStallDeclare).phase == 'i');
static_assert(event_info(EventId::kChmBinLockBegin).phase == 'B');
static_assert(event_info(EventId::kChmBinLockEnd).phase == 'E');
static_assert(event_info(EventId::kNetRequestBegin).phase == 'B');
static_assert(event_info(EventId::kNetRequestEnd).phase == 'E');
static_assert(event_info(EventId::kNetShutdown).phase == 'i');
static_assert(event_info(EventId::kNetExecuteBegin).phase == 'B');
static_assert(event_info(EventId::kNetExecuteEnd).phase == 'E');
static_assert(event_info(EventId::kNetReqFlushed).phase == 'i');

}  // namespace cachetrie::obs::trace
