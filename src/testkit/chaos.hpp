// chaos.hpp — seeded schedule perturbation for the linearizability testkit.
//
// The multi-CAS protocols in this repo (the cache-trie's two-CAS txn commit
// and freeze/ENode replacement, the ctrie's clean/cleanParent, the
// chashmap's bin transfer, the skip list's mark/unlink) have decision
// windows of a handful of instructions. Plain stress tests almost never
// land a preemption inside them. A chaos point is a marker placed exactly
// inside such a window; in testkit builds it injects a deterministic
// pseudo-random yield or spin so those rare interleavings occur routinely,
// and the whole schedule-perturbation stream is reproducible from a single
// seed.
//
// Every chaos site is one row of CACHETRIE_CHAOS_SITES below. chaos_point,
// chaos::site_hits and fault::Plan take the row (a Site), not a string, so a
// misspelled site does not compile, and each row has one exact hit counter.
//
// Build modes
//   * CACHETRIE_TESTKIT off (default, all release/bench builds):
//     chaos_point() is a constexpr no-op — zero code, zero data, zero cost.
//     The table is defined in both modes.
//   * CACHETRIE_TESTKIT on (test binaries opt in per-target, or configure
//     with -DCACHETRIE_TESTKIT=ON): each call advances a thread-local
//     xorshift stream exactly once and derives a decision (nothing / yield /
//     bounded spin) from the stream value mixed with the row's mixing word.
//
// Determinism: the decision sequence of a thread is a pure function of
// (global seed, bound thread index, call ordinal). It does not depend on
// the OS schedule, so a failing seed replays the same perturbation stream
// even though the actual interleaving the kernel picks may differ run to
// run — in practice a protocol bug reachable under a seed's stream is
// re-reachable within a few histories of the same seed (see
// DESIGN.md "Testing the protocols").
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#if defined(CACHETRIE_TESTKIT) && CACHETRIE_TESTKIT
#include <array>
#include <atomic>
#include <thread>

#include "util/thread_id.hpp"
#endif

// clang-format off
// One row per chaos site: X(handle, "name", owner, ops).
//
//   * handle — the Site enumerator that call sites and tests name.
//   * name   — what plan descriptions and storm logs print.
//   * owner  — the structure whose protocol the site sits in (Owner).
//   * ops    — the lost-race matrix's column (tests/lost_race_matrix_test.cpp,
//     DESIGN.md §2b): the map operations that, run as a victim on a small
//     map, cross the row (row_ops below; `writes` is every write), plus two
//     flags. `locked`: a victim parked here holds something other writers
//     wait for (a bin lock, or a table whose publication they spin on), so
//     the matrix never pairs it with an intruder that needs it. `bounded`:
//     the row is crossed in bounded mode only. `none`: no op of a small map
//     reaches the row. Net rows belong to no map, and the chm transfer rows
//     need a resize, which a thread starts only on its 64th insert.
//
// Within an owner, rows are in the order the stall storms derive their
// fault specs (Plan::randomized walks its rows in order), so a row appended
// after an owner's last row leaves every earlier row's spec unchanged.
#define CACHETRIE_CHAOS_SITES(X)                                             \
  /* --- cachetrie: the post-pin site, the two-CAS txn (§3.3), and         \
     expansion/compression through freeze and the ENode (§3.4-§3.5) --- */   \
  X(cachetrie_pinned, "cachetrie.pinned", cachetrie, lkp | ins | rem)        \
  X(cachetrie_txn_announce, "cachetrie.txn_announce", cachetrie, writes)     \
  X(cachetrie_txn_commit, "cachetrie.txn_commit", cachetrie, ins | rem)      \
  X(cachetrie_expand_announce, "cachetrie.expand_announce", cachetrie,       \
    ins | pia)                                                               \
  X(cachetrie_compress_announce, "cachetrie.compress_announce", cachetrie,   \
    rem)                                                                     \
  X(cachetrie_freeze_slot, "cachetrie.freeze_slot", cachetrie, ins | rem)    \
  X(cachetrie_enode_complete, "cachetrie.enode_complete", cachetrie,         \
    ins | rem)                                                               \
  X(cachetrie_enode_publish, "cachetrie.enode_publish", cachetrie,           \
    ins | rem)                                                               \
  X(cachetrie_enode_commit, "cachetrie.enode_commit", cachetrie, ins | rem)  \
  /* bounded mode only: the backpressure scan and an eviction's txn pair */  \
  X(cachetrie_evict_scan, "cachetrie.evict_scan", cachetrie, bounded | ins)  \
  X(cachetrie_evict_announce, "cachetrie.evict_announce", cachetrie,         \
    bounded | ins | rem)                                                     \
  X(cachetrie_evict_commit, "cachetrie.evict_commit", cachetrie,             \
    bounded | ins | rem)                                                     \
  /* a new hash grows an inner path below a collision chain: its slot CAS */ \
  X(cachetrie_chain_grow, "cachetrie.chain_grow", cachetrie, ins | pia)      \
  /* an inhabit stored its cache word and has not re-checked liveness; a     \
     remove never inhabits, only an expansion it helps commit does */        \
  X(cachetrie_cache_inhabit, "cachetrie.cache_inhabit", cachetrie,           \
    lkp | ins | pia | rpl | rpe)                                             \
  /* a write read an ANode one level above the cache head and has not yet    \
     stored its word in the head's parent array */                           \
  X(cachetrie_cache_inhabit_parent, "cachetrie.cache_inhabit_parent",        \
    cachetrie, ins | pia | rpl | rpe)                                        \
  /* --- ctrie: the post-pin site and the three INode-main commits --- */    \
  X(ctrie_pinned, "ctrie.pinned", ctrie, lkp | ins | rem)                    \
  X(ctrie_gcas, "ctrie.gcas", ctrie, ins | pia | rem)                        \
  X(ctrie_clean_commit, "ctrie.clean_commit", ctrie, lkp | ins | rem)        \
  X(ctrie_clean_parent, "ctrie.clean_parent", ctrie, rem)                    \
  /* --- chashmap: bin locks, the empty-bin CAS and the transfer --- */      \
  X(chm_pinned, "chm.pinned", chm, lkp | ins | rem)                          \
  X(chm_bin_lock, "chm.bin_lock", chm, ins | rem)                            \
  X(chm_bin_locked, "chm.bin_locked", chm, locked | ins | rem)               \
  X(chm_bin_cas, "chm.bin_cas", chm, ins | pia)                              \
  X(chm_transfer_help, "chm.transfer_help", chm, none)                       \
  X(chm_table_publish, "chm.table_publish", chm, locked)                     \
  X(chm_transfer_plant, "chm.transfer_plant", chm, locked)                   \
  /* --- skiplist: link and mark/unlink, bottom level then upper --- */      \
  X(csl_pinned, "csl.pinned", csl, lkp | ins | rem)                          \
  X(csl_link_bottom, "csl.link_bottom", csl, ins | pia)                      \
  X(csl_mark_bottom, "csl.mark_bottom", csl, rem)                            \
  X(csl_unlink, "csl.unlink", csl, rem)                                      \
  X(csl_mark_upper, "csl.mark_upper", csl, rem)                              \
  X(csl_link_upper, "csl.link_upper", csl, ins)                              \
  /* --- net: a connection's and a request's path (DESIGN.md §4) --- */      \
  X(net_accept, "net.accept", net, none)                                     \
  X(net_shard_start, "net.shard_start", net, none)                           \
  X(net_conn_adopt, "net.conn_adopt", net, none)                             \
  X(net_request_admit, "net.request_admit", net, none)                       \
  X(net_shed, "net.shed", net, none)                                         \
  X(net_deadline_expire, "net.deadline_expire", net, none)                   \
  X(net_request_execute, "net.request_execute", net, none)                   \
  X(net_reply_enqueue, "net.reply_enqueue", net, none)                       \
  X(net_reply_flush, "net.reply_flush", net, none)                           \
  X(net_backpressure_kill, "net.backpressure_kill", net, none)               \
  X(net_conn_close, "net.conn_close", net, none)                             \
  X(net_drain, "net.drain", net, none)                                       \
  X(net_shutdown, "net.shutdown", net, none)                                 \
  X(net_client_park, "net.client_park", net, none)
// clang-format on

namespace cachetrie::testkit {

/// Compile-time FNV-1a of a site name: a row's mixing word.
constexpr std::uint64_t site_hash(const char* s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  while (*s != '\0') {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*s++));
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

/// The structure whose protocol a chaos site sits in.
enum class Owner : std::uint8_t { cachetrie, ctrie, chm, csl, net };

/// A chaos site: one row of CACHETRIE_CHAOS_SITES.
enum class Site : std::uint8_t {
#define CACHETRIE_CHAOS_ENUM(handle, name, owner, ops) handle,
  CACHETRIE_CHAOS_SITES(CACHETRIE_CHAOS_ENUM)
#undef CACHETRIE_CHAOS_ENUM
};

/// The words of the ops column. Op bits follow testkit::Op (history.hpp).
namespace row_ops {
inline constexpr std::uint16_t ins = 1u << 0, pia = 1u << 1, rpl = 1u << 2,
                               rpe = 1u << 3, lkp = 1u << 4, rem = 1u << 5,
                               rme = 1u << 6;
inline constexpr std::uint16_t writes = ins | pia | rpl | rpe | rem | rme;
inline constexpr std::uint16_t none = 0;
inline constexpr std::uint16_t locked = 1u << 14, bounded = 1u << 15;
}  // namespace row_ops

namespace detail_chaos {

struct SiteInfo {
  const char* name;
  Owner owner;
  std::uint64_t mixing_word;
  std::uint16_t ops;
};

inline constexpr SiteInfo kSiteInfo[] = {
#define CACHETRIE_CHAOS_INFO(handle, name, owner, ops)               \
  {name, Owner::owner, site_hash(name), [] {                        \
     using namespace row_ops;                                       \
     return static_cast<std::uint16_t>(ops);                        \
   }()},
    CACHETRIE_CHAOS_SITES(CACHETRIE_CHAOS_INFO)
#undef CACHETRIE_CHAOS_INFO
};

constexpr bool names_unique() {
  for (std::size_t i = 0; i < std::size(kSiteInfo); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (std::string_view{kSiteInfo[i].name} == kSiteInfo[j].name) {
        return false;
      }
    }
  }
  return true;
}

static_assert(names_unique(), "two chaos-site rows share a name");

}  // namespace detail_chaos

inline constexpr std::size_t kSiteCount = std::size(detail_chaos::kSiteInfo);

constexpr const char* name(Site s) noexcept {
  return detail_chaos::kSiteInfo[static_cast<std::size_t>(s)].name;
}

constexpr Owner owner(Site s) noexcept {
  return detail_chaos::kSiteInfo[static_cast<std::size_t>(s)].owner;
}

/// The row's ops column: row_ops bits.
constexpr std::uint16_t crossing_ops(Site s) noexcept {
  return detail_chaos::kSiteInfo[static_cast<std::size_t>(s)].ops;
}

/// The word chaos::point mixes into the thread's stream value at this site:
/// the FNV-1a hash of its name, so a seed replays the decisions it made
/// when sites were named by string.
constexpr std::uint64_t mixing_word(Site s) noexcept {
  return detail_chaos::kSiteInfo[static_cast<std::size_t>(s)].mixing_word;
}

namespace chaos {

/// splitmix64 finalizer — shared by seeding and per-call decision mixing.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Aggregate perturbation counters, readable from tests.
struct Totals {
  std::uint64_t points = 0;  // chaos points crossed while enabled
  std::uint64_t yields = 0;
  std::uint64_t spins = 0;
};

}  // namespace chaos

#if defined(CACHETRIE_TESTKIT) && CACHETRIE_TESTKIT

inline constexpr bool kChaosCompiled = true;

namespace chaos {
namespace detail {

inline std::atomic<bool> g_enabled{false};
inline std::atomic<std::uint64_t> g_seed{0};

/// Fault-verdict hook, installed by the fault-injection engine
/// (testkit/fault.hpp). Consulted on every chaos crossing while chaos is
/// enabled; receives the crossed row. May throw (fault::ThreadKilled
/// simulates thread death by unwinding), which is why the instrumented
/// point() is not noexcept.
using FaultHook = void (*)(Site site);
inline std::atomic<FaultHook> g_fault_hook{nullptr};

struct Counters {
  std::atomic<std::uint64_t> points{0};
  std::atomic<std::uint64_t> yields{0};
  std::atomic<std::uint64_t> spins{0};
  std::array<std::atomic<std::uint64_t>, kSiteCount> hits{};  // per row
};

inline Counters g_counters;

struct ThreadStream {
  std::uint64_t state = 0;
  std::uint64_t index = 0;
  bool bound = false;
};

inline ThreadStream& stream() noexcept {
  thread_local ThreadStream ts;
  return ts;
}

}  // namespace detail

/// Installs the seed every subsequently bound thread stream derives from.
inline void set_global_seed(std::uint64_t seed) noexcept {
  detail::g_seed.store(seed, std::memory_order_relaxed);
}

/// Master switch; chaos points are free-of-side-effects while disabled so
/// unrelated tests in the same binary are not perturbed.
inline void enable(bool on) noexcept {
  // [publishes: TK_CHAOS_ENABLE]
  detail::g_enabled.store(on, std::memory_order_release);
}

inline bool enabled() noexcept {
  // [acquires: TK_CHAOS_ENABLE]
  return detail::g_enabled.load(std::memory_order_acquire);
}

/// Derives this thread's decision stream from (global seed, index). Call
/// once per worker per history with a stable worker index — that is what
/// makes a printed seed replayable regardless of OS thread identity.
inline void bind_thread(std::uint64_t index) noexcept {
  auto& ts = detail::stream();
  ts.state = mix(detail::g_seed.load(std::memory_order_relaxed) ^
                 (0x9e3779b97f4a7c15ULL * (index + 1)));
  if (ts.state == 0) ts.state = 0x853c49e6748fea9bULL;
  ts.index = index;
  ts.bound = true;
}

/// The index this thread was bound with (fault plans filter victims by it).
/// Auto-bound threads report their derived per-process index.
inline std::uint64_t bound_index() noexcept { return detail::stream().index; }

/// Installs (or, with nullptr, removes) the fault-verdict hook.
inline void set_fault_hook(detail::FaultHook hook) noexcept {
  detail::g_fault_hook.store(hook, std::memory_order_release);
}

inline void reset_counters() noexcept {
  detail::g_counters.points.store(0, std::memory_order_relaxed);
  detail::g_counters.yields.store(0, std::memory_order_relaxed);
  detail::g_counters.spins.store(0, std::memory_order_relaxed);
  for (auto& c : detail::g_counters.hits) {
    c.store(0, std::memory_order_relaxed);
  }
}

inline Totals totals() noexcept {
  return Totals{
      detail::g_counters.points.load(std::memory_order_relaxed),
      detail::g_counters.yields.load(std::memory_order_relaxed),
      detail::g_counters.spins.load(std::memory_order_relaxed),
  };
}

/// Crossings of `site` while enabled since the last reset_counters().
inline std::uint64_t site_hits(Site site) noexcept {
  return detail::g_counters.hits[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

/// The instrumented hook body. Always advances the stream exactly once so
/// a thread's decision sequence is independent of which sites it visits.
/// Not noexcept: the fault hook may simulate thread death by throwing.
inline void point(Site site) {
  if (!enabled()) return;
  auto& ts = detail::stream();
  if (!ts.bound) {
    // Threads nobody bound (e.g. the test main thread constructing a map)
    // still get a deterministic-per-process stream.
    bind_thread(0x7f7f7f7fULL + util::current_thread_id());
  }
  std::uint64_t x = ts.state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  ts.state = x;
  const std::uint64_t r = mix(x ^ mixing_word(site));
  detail::g_counters.points.fetch_add(1, std::memory_order_relaxed);
  detail::g_counters.hits[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  switch (r & 15u) {
    case 0:
    case 1:  // 2/16: give the slice away — forces a full reschedule
      detail::g_counters.yields.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
      break;
    case 2:
    case 3:
    case 4: {  // 3/16: stretch the window without a syscall
      detail::g_counters.spins.fetch_add(1, std::memory_order_relaxed);
      const std::uint32_t iters = 1 + ((r >> 8) & 127u);
      for (std::uint32_t i = 0; i < iters; ++i) {
        // Opaque to the optimizer so the loop is not folded away.
        asm volatile("" ::: "memory");
      }
      break;
    }
    default:  // 11/16: pass through — most crossings stay cheap
      break;
  }
  if (auto* hook = detail::g_fault_hook.load(std::memory_order_acquire)) {
    hook(site);
  }
}

}  // namespace chaos

inline void chaos_point(Site site) { chaos::point(site); }

#else  // !CACHETRIE_TESTKIT

inline constexpr bool kChaosCompiled = false;

namespace chaos {

// No-op control surface so testkit-aware code compiles in both modes.
inline void set_global_seed(std::uint64_t) noexcept {}
inline void enable(bool) noexcept {}
inline bool enabled() noexcept { return false; }
inline void bind_thread(std::uint64_t) noexcept {}
inline std::uint64_t bound_index() noexcept { return 0; }
inline void reset_counters() noexcept {}
inline Totals totals() noexcept { return {}; }
inline std::uint64_t site_hits(Site) noexcept { return 0; }

}  // namespace chaos

/// Release builds: an empty constexpr inline the optimizer erases entirely
/// (the acceptance bar: micro_ops throughput unchanged within noise).
inline constexpr void chaos_point(Site) noexcept {}

#endif  // CACHETRIE_TESTKIT

}  // namespace cachetrie::testkit
