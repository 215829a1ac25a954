// eviction_lin_test.cpp — linearizability of the bounded-memory cache mode.
//
// Two hazards distinguish the bounded mode from the plain trie:
//   1. evict() is a remove that runs through the eviction bookkeeping — it
//      must linearize exactly like remove() when raced against every other
//      operation (evict-racing-remove, evict-racing-upsert, ...).
//   2. Lazy corpse eviction fires *inside other operations' traversals*
//      (try_evict_snode: the same two-CAS announce/commit the remove path
//      uses). A protocol bug there would corrupt neighbouring live pairs.
//
// A spontaneous eviction of a checker-visible key would be an unrecorded
// remove — the checker would (rightly) reject the history, but that tells
// us nothing. So the sweeps are split:
//   * EvictApiRacesUserOps keeps horizons inert (no TTL, no ceiling) and
//     drives eviction through explicit evict(k) calls, recorded as removes.
//   * CorpseEvictionUnderneathLiveKeys plants TTL-expired "ballast" pairs
//     in a disjoint key range before each history (via the injectable
//     clock), so the real lazy-eviction CAS path fires constantly beneath
//     the checker's keys while the recorded history stays closed: ballast
//     keys are never operated on, checker keys never expire.
//
// Compiled with CACHETRIE_TESTKIT=1, labeled `bounded`. The per-seed
// history count honours CACHETRIE_BOUNDED_LIN_HISTORIES (check.sh shrinks
// it under tsan); the default 8 seeds x 1250 histories meet the >= 10k
// acceptance bar.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>

#include "cachetrie/evict.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "testkit/driver.hpp"

namespace tk = cachetrie::testkit;
using tk::Site;
namespace sites = cachetrie::obs::sites;

static_assert(tk::kChaosCompiled,
              "eviction_lin_test must build with CACHETRIE_TESTKIT=1");

namespace {

constexpr std::uint64_t kSeeds = 8;

std::uint32_t histories_per_seed() {
  if (const char* s = std::getenv("CACHETRIE_BOUNDED_LIN_HISTORIES")) {
    const unsigned long v = std::strtoul(s, nullptr, 10);
    if (v != 0) return static_cast<std::uint32_t>(v);
  }
  return 1250;  // 8 seeds x 1250 = 10k histories
}

// Injectable clock shared by every trie in this file: histories run at a
// frozen `now`, so horizons are deterministic and checker keys (stamped
// `now` on insert) can never expire mid-history.
std::atomic<std::uint64_t> g_clock{0};
std::uint64_t test_clock() { return g_clock.load(std::memory_order_relaxed); }

constexpr std::uint64_t kTtl = 1000;
constexpr std::uint64_t kNow = 1u << 20;  // ttl_floor = kNow - kTtl
constexpr std::uint64_t kBallastBase = 1u << 16;  // disjoint from checker keys

// Eviction counts are registry counter deltas taken around a sweep; with
// metrics compiled out every counter reads 0, so those checks run only
// when kCounted.
constexpr bool kCounted = cachetrie::obs::kMetricsCompiled;

/// Test fake over a bounded CacheTrie. remove() alternates (per
/// thread) between user remove(k) and forced evict(k): both are
/// linearizable removes, so the checker treats them identically — any
/// divergence in the eviction path's linearization shows up as a violation.
class BoundedTrieAdapter {
 public:
  using Map =
      cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t>;

  explicit BoundedTrieAdapter(const cachetrie::evict::BoundedConfig& cfg,
                              bool plant_ballast)
      : map_(cfg) {
    if (plant_ballast) {
      // Stamp the ballast at tick 1, then jump the clock: every ballast
      // pair is a corpse for the whole history, every checker key is live.
      g_clock.store(1, std::memory_order_relaxed);
      for (std::uint64_t i = 0; i < 16; ++i) {
        map_.insert(kBallastBase + i, i);
      }
    }
    g_clock.store(kNow, std::memory_order_relaxed);
  }

  bool insert(std::uint64_t k, std::uint64_t v) { return map_.insert(k, v); }
  bool put_if_absent(std::uint64_t k, std::uint64_t v) {
    return map_.put_if_absent(k, v);
  }
  bool replace(std::uint64_t k, std::uint64_t v) { return map_.replace(k, v); }
  bool replace_if_equals(std::uint64_t k, std::uint64_t expected,
                         std::uint64_t v) {
    return map_.replace_if_equals(k, expected, v);
  }
  std::optional<std::uint64_t> lookup(std::uint64_t k) const {
    return map_.lookup(k);
  }
  std::optional<std::uint64_t> remove(std::uint64_t k) {
    thread_local std::uint64_t flip = 0;
    return (++flip & 1) != 0 ? map_.evict(k) : map_.remove(k);
  }
  bool remove_if_equals(std::uint64_t k, std::uint64_t expected) {
    return map_.remove_if_equals(k, expected);
  }

 private:
  Map map_;
};

template <typename Factory>
void sweep(Factory&& make, const char* what) {
  tk::DriverConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 12;
  cfg.key_range = 6;
  cfg.histories = histories_per_seed();
  std::uint64_t total = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    cfg.seed = seed;
    auto result = tk::run_histories(make, cfg);
    ASSERT_FALSE(result.violation.has_value())
        << what << " produced a non-linearizable history\n"
        << result.trace;
    total += result.histories_checked;
  }
  EXPECT_GE(total, kSeeds * histories_per_seed()) << what;
}

cachetrie::evict::BoundedConfig inert_bounded_config() {
  cachetrie::evict::BoundedConfig cfg;
  // Bounded (stamps written, horizons computed) but inert: no TTL and no
  // ceiling, so nothing ever expires and nothing is pressured.
  cfg.tick_fn = &test_clock;
  return cfg;
}

TEST(EvictionLinSweep, EvictApiRacesUserOps) {
  tk::chaos::reset_counters();
  const std::uint64_t lru0 = sites::cachetrie_evict_lru.total();
  sweep(
      [] {
        return std::make_unique<BoundedTrieAdapter>(inert_bounded_config(),
                                                    /*plant_ballast=*/false);
      },
      "bounded cache-trie (evict vs user ops)");
  // The alternation actually exercised the eviction-counted remove path
  // and the perturbation reached the txn decision windows.
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_evict_lru.total() - lru0, 0u);
  }
  EXPECT_GT(tk::chaos::site_hits(Site::cachetrie_txn_announce), 0u);
  EXPECT_GT(tk::chaos::totals().yields, 0u);
}

TEST(EvictionLinSweep, CorpseEvictionUnderneathLiveKeys) {
  cachetrie::evict::BoundedConfig cfg;
  cfg.ttl_ticks = kTtl;
  cfg.tick_fn = &test_clock;
  tk::chaos::reset_counters();
  const std::uint64_t ttl0 = sites::cachetrie_evict_ttl.total();
  sweep(
      [cfg] {
        return std::make_unique<BoundedTrieAdapter>(cfg,
                                                    /*plant_ballast=*/true);
      },
      "bounded cache-trie (ballast corpses)");
  // The lazy-eviction CAS path (announce on the corpse's txn word) really
  // fired under perturbation, and corpses were counted as TTL expiries.
  EXPECT_GT(tk::chaos::site_hits(Site::cachetrie_evict_announce), 0u);
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_evict_ttl.total() - ttl0, 0u);
  }
}

}  // namespace
