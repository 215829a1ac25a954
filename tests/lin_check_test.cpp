// lin_check_test — the testkit pointed at the real structures.
//
// For every map in the repo (cache-trie, its no-cache ablation and two
// degraded-hash variants, ctrie, chashmap, skip list) this runs >= 10k
// short multi-threaded histories spread over >= 8 chaos seeds, each
// history perturbed at the structures' CAS decision points, and feeds
// every recorded history through the Wing–Gong checker. Any
// non-linearizable interleaving fails the test and prints a reproducible
// trace (seed + history ordinal + per-key events).
//
// Compiled with CACHETRIE_TESTKIT=1 and labeled `slow` (run `ctest -L fast`
// to skip it during edit-compile loops).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "skiplist/skiplist.hpp"
#include "testkit/chaos.hpp"
#include "testkit/driver.hpp"

namespace tk = cachetrie::testkit;
using tk::Site;

static_assert(tk::kChaosCompiled,
              "lin_check_test must build with CACHETRIE_TESTKIT=1");

namespace {

constexpr std::uint64_t kSeeds = 8;
constexpr std::uint32_t kHistoriesPerSeed = 1250;  // 8 * 1250 = 10k total

/// Runs the full seed sweep against maps from `make`; fails loudly with the
/// reproduction trace on the first non-linearizable history.
template <typename Factory>
void sweep(Factory&& make, const char* what,
           std::uint64_t key_range = 6) {
  tk::DriverConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 12;
  cfg.key_range = key_range;
  cfg.histories = kHistoriesPerSeed;
  std::uint64_t total = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    cfg.seed = seed;
    auto result = tk::run_histories(make, cfg);
    ASSERT_FALSE(result.violation.has_value())
        << what << " produced a non-linearizable history\n"
        << result.trace;
    total += result.histories_checked;
  }
  EXPECT_GE(total, 10000u) << what;
}

TEST(LinSweep, CacheTrie) {
  using Map = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;
  tk::chaos::reset_counters();
  sweep([] { return std::make_unique<Map>(); }, "cache-trie");
  // The perturbation actually reached the txn protocol's decision windows.
  EXPECT_GT(tk::chaos::site_hits(Site::cachetrie_txn_announce), 0u);
  EXPECT_GT(tk::chaos::totals().yields, 0u);
}

TEST(LinSweep, CacheTrieNoCacheAblation) {
  using Map = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;
  cachetrie::Config cfg;
  cfg.use_cache = false;
  sweep([cfg] { return std::make_unique<Map>(cfg); }, "cache-trie (no cache)");
}

TEST(LinSweep, CacheTrieDeepCollidingPrefix) {
  // All keys share a 14-level hash prefix and diverge only in the top
  // byte: every history walks deep chains of narrow ANodes and the
  // divergence node overflows its 4 slots, so the ENode expansion +
  // freeze protocol runs constantly — under perturbation, with helpers.
  struct DeepPrefixHash {
    std::uint64_t operator()(const std::uint64_t& k) const noexcept {
      return (k << 56) | (0x00FFFFFFFFFFFFFFull >> 8);
    }
  };
  using Map =
      cachetrie::CacheTrie<std::uint64_t, std::uint64_t, DeepPrefixHash>;
  tk::chaos::reset_counters();
  sweep([] { return std::make_unique<Map>(); }, "cache-trie (deep prefix)",
        /*key_range=*/16);
  EXPECT_GT(tk::chaos::site_hits(Site::cachetrie_freeze_slot), 0u);
  EXPECT_GT(tk::chaos::site_hits(Site::cachetrie_enode_complete), 0u);
}

TEST(LinSweep, CacheTrieHashFreeCollisions) {
  // u64 keys keep no hash in their leaves. This degraded hash gives the 12
  // keys six hashes, two keys each, that share the path to level 8 and
  // part there (three 2-bit classes) and at level 12: a narrow node at
  // level 8 expands, equal hashes form chains built from rehashed leaves,
  // a chain is pushed deeper when a key of its class but not its hash
  // arrives, and removals collapse chains to leaves and compress nodes.
  struct SixHashes {
    std::uint64_t operator()(const std::uint64_t& k) const noexcept {
      return ((k % 3) << 8) | (((k / 3) % 2) << 12);
    }
  };
  static_assert(!cachetrie::detail::kLeafStoresHash<std::uint64_t>);
  using Map = cachetrie::CacheTrie<std::uint64_t, std::uint64_t, SixHashes>;
  tk::chaos::reset_counters();
  sweep([] { return std::make_unique<Map>(); }, "cache-trie (hash-free chains)",
        /*key_range=*/12);
  EXPECT_GT(tk::chaos::site_hits(Site::cachetrie_enode_complete), 0u);
  EXPECT_GT(tk::chaos::site_hits(Site::cachetrie_chain_grow), 0u);
}

TEST(LinSweep, Ctrie) {
  using Map = cachetrie::ctrie::Ctrie<std::uint64_t, std::uint64_t>;
  tk::chaos::reset_counters();
  sweep([] { return std::make_unique<Map>(); }, "ctrie");
  EXPECT_GT(tk::chaos::site_hits(Site::ctrie_gcas), 0u);
}

TEST(LinSweep, Chashmap) {
  using Map = cachetrie::chm::ConcurrentHashMap<std::uint64_t, std::uint64_t>;
  tk::chaos::reset_counters();
  // 4 initial bins with 6 live keys: the incremental transfer (resize)
  // machinery runs in-history, not just at warm-up.
  sweep([] { return std::make_unique<Map>(4); }, "chashmap");
  EXPECT_GT(tk::chaos::site_hits(Site::chm_bin_locked), 0u);
}

TEST(LinSweep, Skiplist) {
  using Map = cachetrie::csl::ConcurrentSkipList<std::uint64_t, std::uint64_t>;
  tk::chaos::reset_counters();
  sweep([] { return std::make_unique<Map>(); }, "skip list");
  EXPECT_GT(tk::chaos::site_hits(Site::csl_mark_bottom), 0u);
}

}  // namespace
