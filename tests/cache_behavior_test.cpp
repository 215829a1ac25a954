// cache_behavior_test.cpp — targeted tests of the cache subsystem
// (paper §3.4-3.6): creation trigger, inhabitation, fast hits, automatic
// eviction of stale entries, miss counting, depth sampling, level
// adaptation in both directions, and the shape tags cache words carry.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>

#include "cachetrie/cache_trie.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace {

using cachetrie::CacheTrie;
using cachetrie::Config;
namespace sites = cachetrie::obs::sites;

using Trie = CacheTrie<std::uint64_t, std::uint64_t>;

// Cache-path counts are registry counter deltas, read through the site
// handles. With metrics compiled out every counter reads 0, so those
// checks run only when kCounted; the rest of each test still runs.
constexpr bool kCounted = cachetrie::obs::kMetricsCompiled;

Config sampling_config() {
  Config cfg;
  cfg.max_misses = 64;  // sample aggressively so tests converge fast
  return cfg;
}

TEST(CacheBehavior, NoCacheWhileTrieIsShallow) {
  // The cache is created only once some key reaches
  // kCacheInitTriggerLevel (12). Grow the trie key by key and check the
  // cache appears exactly when the histogram says depth >= 3 exists.
  Trie trie{sampling_config()};
  for (std::uint64_t k = 0; k < 3000; ++k) {
    trie.insert(k, k);
    (void)trie.lookup(k);
    const auto hist = trie.level_histogram();
    bool deep = false;
    for (std::size_t d = 3; d < hist.counts.size(); ++d) {
      if (hist.counts[d] != 0) deep = true;
    }
    if (!deep) {
      ASSERT_EQ(trie.cache_level(), -1) << "cache created too early at key "
                                        << k;
    } else {
      return;  // trigger depth reached; creation may now happen any time
    }
  }
}

TEST(CacheBehavior, CacheCreatedWhenTrieDeepens) {
  const std::uint64_t installs0 = sites::cachetrie_cache_install.total();
  Trie trie{sampling_config()};
  const auto keys = cachetrie::harness::random_keys(300000);
  for (auto k : keys) trie.insert(k, k);
  for (auto k : keys) (void)trie.lookup(k);
  EXPECT_GE(trie.cache_level(), 8);
  if (kCounted) {
    EXPECT_GE(sites::cachetrie_cache_install.total() - installs0, 1u);
  }
}

TEST(CacheBehavior, LookupsHitTheCacheAfterWarmup) {
  Trie trie{sampling_config()};
  const auto keys = cachetrie::harness::random_keys(300000);
  for (auto k : keys) trie.insert(k, k);
  for (auto k : keys) (void)trie.lookup(k);  // create + adapt + warm
  for (auto k : keys) (void)trie.lookup(k);  // warm at the settled level
  const auto hits0 = sites::cachetrie_cache_hit.total();
  for (auto k : keys) {
    ASSERT_EQ(trie.lookup(k).value(), k);
  }
  const auto hits = sites::cachetrie_cache_hit.total() - hits0;
  // The vast majority of lookups must be served through the cache.
  if (kCounted) {
    EXPECT_GT(hits, keys.size() * 9 / 10);
  }
}

TEST(CacheBehavior, SamplingMovesCacheToPopulatedLevel) {
  const std::uint64_t samples0 = sites::cachetrie_sampling_pass.total();
  Trie trie{sampling_config()};
  const std::size_t n = 1000000;  // most keys at levels 16/20 (16^5 = n)
  const auto keys = cachetrie::harness::random_keys(n);
  for (auto k : keys) trie.insert(k, k);
  for (int round = 0; round < 3; ++round) {
    for (auto k : keys) (void)trie.lookup(k);
    if (trie.cache_level() >= 16) break;
  }
  EXPECT_GE(trie.cache_level(), 16);
  EXPECT_LE(trie.cache_level(), 20);
  if (kCounted) {
    EXPECT_GE(sites::cachetrie_sampling_pass.total() - samples0, 1u);
  }
}

TEST(CacheBehavior, CacheLevelShrinksWhenPopulationShrinks) {
  // Note: removing only a fraction of the keys does NOT move the cache —
  // survivors keep their depth (compression collapses empty/singleton
  // nodes, it does not rebalance). The downward adjustment shows when the
  // deep population is replaced by a shallow one.
  Config cfg = sampling_config();
  Trie trie{cfg};
  const auto big = cachetrie::harness::random_keys(1000000, 1);
  for (auto k : big) trie.insert(k, k);
  for (int round = 0; round < 3 && trie.cache_level() < 16; ++round) {
    for (auto k : big) (void)trie.lookup(k);
  }
  const auto deep_level = trie.cache_level();
  ASSERT_GE(deep_level, 16);
  for (auto k : big) (void)trie.remove(k);
  const auto small = cachetrie::harness::random_keys(20000, 2);
  for (auto k : small) trie.insert(k, k);
  for (int round = 0;
       round < 10 && trie.cache_level() >= deep_level; ++round) {
    for (auto k : small) (void)trie.lookup(k);
  }
  EXPECT_LT(trie.cache_level(), deep_level);
  // Lookups remain exact across the shrink.
  for (std::size_t i = 0; i < small.size(); i += 17) {
    ASSERT_EQ(trie.lookup(small[i]).value(), small[i]);
  }
}

TEST(CacheBehavior, SteadyChurnKeepsItsCacheLevel) {
  // Lookups, inserts and removes over 2^14 keys at ~50% occupancy leave
  // most leaves at level 16, some at 12 and some at 20, so the pairs
  // (12,16) and (16,20) share the middle level and a pass that draws
  // almost no level-12 leaf prefers (16,20) by chance. kLevelHysteresis
  // keeps such a pass from moving the cache: once settled, the level holds
  // through thousands of passes.
  Config cfg = sampling_config();
  cfg.max_misses = 16;
  Trie trie{cfg};
  const auto keys = cachetrie::harness::random_keys(1u << 14, 3);
  for (std::size_t i = 0; i < keys.size() / 2; ++i) trie.insert(keys[i], i);
  cachetrie::util::XorShift64Star rng{7};
  const auto churn = [&] {
    const std::uint64_t r = rng.next();
    const std::uint64_t k = keys[r & (keys.size() - 1)];
    switch ((r >> 32) % 4) {
      case 0: trie.insert(k, r); break;
      case 1: (void)trie.remove(k); break;
      default: (void)trie.lookup(k);
    }
  };
  for (int i = 0; i < 200000; ++i) churn();
  const auto level = trie.cache_level();
  ASSERT_GE(level, 8);
  const auto passes0 = sites::cachetrie_sampling_pass.total();
  for (int i = 0; i < 2000000; ++i) {
    churn();
    ASSERT_EQ(trie.cache_level(), level) << "moved after " << i << " ops";
  }
  if (kCounted) {
    EXPECT_GE(sites::cachetrie_sampling_pass.total() - passes0, 1000u);
  }
}

TEST(CacheBehavior, RemovedKeysInvisibleThroughWarmCache) {
  // The automatic-eviction property (§3.4): after a removal, a lookup that
  // goes through a stale cache entry must still answer "absent".
  Trie trie{sampling_config()};
  const auto keys = cachetrie::harness::random_keys(300000);
  for (auto k : keys) trie.insert(k, k);
  for (auto k : keys) (void)trie.lookup(k);  // warm cache with SNodes
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(trie.remove(keys[i]).has_value());
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(trie.lookup(keys[i]).has_value(), i % 2 == 1) << i;
  }
}

TEST(CacheBehavior, ReplacedValueVisibleThroughWarmCache) {
  Trie trie{sampling_config()};
  const auto keys = cachetrie::harness::random_keys(300000);
  for (auto k : keys) trie.insert(k, 1);
  for (auto k : keys) (void)trie.lookup(k);  // warm
  for (auto k : keys) trie.insert(k, 2);     // replace every pair
  for (auto k : keys) {
    ASSERT_EQ(trie.lookup(k).value(), 2u);
  }
}

TEST(CacheBehavior, MissCounterTriggersSampling) {
  if (!kCounted) GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
  Config cfg = sampling_config();
  cfg.max_misses = 16;
  Trie trie{cfg};
  const auto keys = cachetrie::harness::random_keys(400000);
  for (auto k : keys) trie.insert(k, k);
  const auto samples0 = sites::cachetrie_sampling_pass.total();
  const auto misses0 = sites::cachetrie_cache_miss.total();
  for (auto k : keys) (void)trie.lookup(k);
  EXPECT_GT(sites::cachetrie_sampling_pass.total(), samples0);
  EXPECT_GT(sites::cachetrie_cache_miss.total() - misses0, 0u);
}

TEST(CacheBehavior, WithoutCacheNoStatsAccumulate) {
  Config cfg = sampling_config();
  cfg.use_cache = false;
  const auto hits0 = sites::cachetrie_cache_hit.total();
  const auto installs0 = sites::cachetrie_cache_install.total();
  Trie trie{cfg};
  const auto keys = cachetrie::harness::random_keys(200000);
  for (auto k : keys) trie.insert(k, k);
  for (auto k : keys) (void)trie.lookup(k);
  EXPECT_EQ(trie.cache_level(), -1);
  EXPECT_EQ(sites::cachetrie_cache_hit.total(), hits0);
  EXPECT_EQ(sites::cachetrie_cache_install.total(), installs0);
}

// --- telemetry-based invariants (obs/ layer; paper §3.4 + Theorem 4.2) -----
//
// The two tests below verify the paper's cache claims through registry
// snapshots, the same counters operators would watch in production.

TEST(CacheBehaviorTelemetry, HitRateRisesTowardOneOnWarmReadOnlyPhase) {
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
  }
  auto& reg = cachetrie::obs::registry();
  Trie trie{sampling_config()};
  const auto keys = cachetrie::harness::random_keys(300000);
  constexpr std::size_t kProbe = 200;  // fixed probe set, re-looked-up later

  auto probe_hit_rate = [&] {
    const auto before = reg.snapshot().counter_value("cachetrie.cache.hit");
    for (std::size_t i = 0; i < kProbe; ++i) (void)trie.lookup(keys[i]);
    const auto after = reg.snapshot().counter_value("cachetrie.cache.hit");
    return static_cast<double>(after - before) / kProbe;
  };

  // Cold: only the probe keys are inserted. The trie is shallow, so the
  // cache either does not exist yet or covers almost none of these keys —
  // probing them goes through the slow path.
  for (std::size_t i = 0; i < kProbe; ++i) trie.insert(keys[i], keys[i]);
  const double cold = probe_hit_rate();

  // Warm-up: grow to full size (inserts deepen the trie and create the
  // cache), then read-only passes settle the level and inhabit entries.
  for (std::size_t i = kProbe; i < keys.size(); ++i) {
    trie.insert(keys[i], keys[i]);
  }
  for (int round = 0; round < 3; ++round) {
    for (auto k : keys) (void)trie.lookup(k);
  }
  const double warm = probe_hit_rate();

  EXPECT_LT(cold, warm);
  EXPECT_GT(warm, 0.9) << "warm read-only phase should be nearly all cache "
                          "hits (paper §3.4)";
}

TEST(CacheBehaviorTelemetry, SampledDepthAtMostTwoAfterCacheGrowth) {
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
  }
  auto& reg = cachetrie::obs::registry();
  Trie trie{sampling_config()};
  // Population size matters for the 90% bound: 50k random keys concentrate
  // on levels 16/20 (Theorem 4.2's two adjacent levels), exactly the pair
  // a settled level-16 cache serves in 1-2 dereferences. A population
  // straddling 20/24 instead (e.g. 300k keys) legitimately takes a third
  // dereference for the deeper level while the cache sits at 16 — that is
  // the theorem's shape, not a cache defect.
  const auto keys = cachetrie::harness::random_keys(50000);
  for (auto k : keys) trie.insert(k, k);
  // Warm until the cache has grown and every key's entry is inhabited —
  // four full passes settle level adaptation on this population.
  for (int round = 0; round < 4; ++round) {
    for (auto k : keys) (void)trie.lookup(k);
  }
  ASSERT_GE(trie.cache_level(), 8);

  const auto before = reg.snapshot();
  const auto* h0 = before.find_histogram("cachetrie.lookup.depth");
  ASSERT_NE(h0, nullptr);
  const auto hit0 = before.counter_value("cachetrie.cache.hit");
  // Two measured passes just to double the ~1/64 depth sample count.
  for (int round = 0; round < 2; ++round) {
    for (auto k : keys) (void)trie.lookup(k);
  }
  const auto after = reg.snapshot();
  const auto* h1 = after.find_histogram("cachetrie.lookup.depth");
  ASSERT_NE(h1, nullptr);
  const std::uint64_t hits = after.counter_value("cachetrie.cache.hit") - hit0;
  const double lookups = 2.0 * static_cast<double>(keys.size());

  // Delta histogram of just the measured passes. Every lookup entry point
  // (fast SNode hit, one-hop ANode hit, root walk) samples its depth with
  // the same 1-in-64 counter-return trick, so the delta is an unbiased
  // systematic sample of the per-lookup depth distribution and its CDF can
  // be read off directly. ~1560 samples expected; at this population the
  // true <=2 fraction is ~0.95, putting the 0.9 threshold several binomial
  // standard deviations away.
  cachetrie::obs::Snapshot::Histogram delta = *h1;
  for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
    delta.buckets[b] -= h0->buckets[b];
  }
  delta.count -= h0->count;
  delta.sum -= h0->sum;
  ASSERT_GT(delta.count, lookups / 64.0 * 0.5);
  // Sanity on the companion signal: a settled cache serves essentially
  // every lookup on this read-only workload.
  EXPECT_GT(static_cast<double>(hits), 0.95 * lookups);
  EXPECT_GE(delta.fraction_at_most(2), 0.9)
      << "after cache growth, >=90% of lookups should resolve within 2 "
         "dereferences (Theorem 4.2 / paper §3.4); sampled=" << delta.count
      << " hits=" << hits;
}

TEST(CacheBehavior, PinnedCacheLevelStaysPinned) {
  Config cfg = sampling_config();
  cfg.cache_init_level = 12;
  cfg.min_cache_level = 12;
  cfg.max_cache_level = 12;
  Trie trie{cfg};
  const auto keys = cachetrie::harness::random_keys(1000000);
  for (auto k : keys) trie.insert(k, k);
  for (int round = 0; round < 3; ++round) {
    for (auto k : keys) (void)trie.lookup(k);
  }
  EXPECT_EQ(trie.cache_level(), 12);
  // Lookups remain exact even at a suboptimal pinned level.
  for (std::size_t i = 0; i < keys.size(); i += 1000) {
    ASSERT_EQ(trie.lookup(keys[i]).value(), keys[i]);
  }
}

TEST(CacheBehavior, OneHopLookupLeavesItsEntryAlone) {
  // Every key's level-8 entry holds the ANode its leaf hangs from, so the
  // second pass is all one-hop hits. Each starts at the ANode it just read
  // from the entry; storing it back would change nothing, so none may.
  Config cfg = sampling_config();
  cfg.cache_init_level = 8;
  cfg.min_cache_level = 8;
  cfg.max_cache_level = 8;
  Trie trie{cfg};
  const auto keys = cachetrie::harness::random_keys(3000);
  for (auto k : keys) trie.insert(k, k);
  for (auto k : keys) (void)trie.lookup(k);
  ASSERT_EQ(trie.cache_level(), 8);

  const std::uint64_t inhabits0 = sites::cachetrie_cache_inhabit.total();
  const std::uint64_t hits0 = sites::cachetrie_cache_hit.total();
  std::size_t one_hop = 0;
  for (auto k : keys) {
    const auto* entry = trie.debug_cache_entry(k, 8);
    if (entry == nullptr || entry->kind != cachetrie::detail::Kind::kANode) {
      continue;
    }
    ++one_hop;
    ASSERT_EQ(trie.lookup(k).value(), k);
    ASSERT_EQ(trie.debug_cache_entry(k, 8), entry);
  }
  EXPECT_GT(one_hop, keys.size() / 2);
  if (kCounted) {
    EXPECT_EQ(sites::cachetrie_cache_hit.total(), hits0 + one_hop);
  }
  EXPECT_EQ(sites::cachetrie_cache_inhabit.total(), inhabits0);
}

TEST(CacheBehavior, DescentFromShallowerArrayInhabitsDeepestLevel) {
  // Inserts fill the level-8 array; the first lookups miss (the leaves sit
  // deeper) until sampling grows the cache to 12, so the chain becomes
  // [12 -> 8]. A key whose level-12 entry is empty but whose level-8 entry
  // holds an ANode starts its descent one array up; passing level 12 on the
  // way down must fill the deepest entry (Fig. 6).
  Config cfg = sampling_config();
  cfg.cache_init_level = 8;
  cfg.min_cache_level = 8;
  cfg.max_cache_level = 12;
  Trie trie{cfg};
  const auto keys = cachetrie::harness::random_keys(20000);
  for (auto k : keys) trie.insert(k, k);
  ASSERT_EQ(trie.cache_level(), 8);
  for (std::size_t i = 0; i < keys.size() && trie.cache_level() != 12; ++i) {
    (void)trie.lookup(keys[i]);
  }
  ASSERT_EQ(trie.cache_level(), 12);

  using cachetrie::detail::Kind;
  std::size_t descents = 0;
  std::size_t filled = 0;
  for (auto k : keys) {
    const auto* shallow = trie.debug_cache_entry(k, 8);
    if (trie.debug_cache_entry(k, 12) != nullptr || shallow == nullptr ||
        shallow->kind != Kind::kANode) {
      continue;
    }
    ++descents;
    const std::uint64_t inhabits0 = sites::cachetrie_cache_inhabit.total();
    ASSERT_EQ(trie.lookup(k).value(), k);
    const auto* deep = trie.debug_cache_entry(k, 12);
    if (deep != nullptr && deep->kind == Kind::kANode) {
      ++filled;
      if (kCounted) {
        EXPECT_GT(sites::cachetrie_cache_inhabit.total(), inhabits0);
      }
    }
  }
  // Nearly every such descent passes an ANode at level 12 (the rest end in
  // a leaf at level 12, which note_leaf_level caches instead).
  EXPECT_GT(descents, 1000u);
  EXPECT_GT(filled, descents * 3 / 4);
}

// --- shape-tagged cache words ----------------------------------------------
//
// Under the identity hash a key is its own path. 0x001 and 0x101 split at
// level 8 into a narrow ANode (two bits tell them apart), 0x002 and 0x402
// into a wide one (four bits do), and 0x003 and 0x013 split at level 4, so
// 0x013 is a leaf at level 8. The cache is pinned at level 8, where it holds
// all three shapes.

using PlacedTrie =
    CacheTrie<std::uint64_t, std::uint64_t, cachetrie::util::IdentityHash>;
using cachetrie::detail::ANode;
using cachetrie::detail::Kind;
using cachetrie::detail::NodeBase;
using SNodeT = cachetrie::detail::SNode<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kPlacedKeys[] = {0x001, 0x101, 0x002,
                                         0x402, 0x003, 0x013};

Config level8_config() {
  Config cfg;
  cfg.min_cache_level = 8;
  cfg.max_cache_level = 8;
  return cfg;
}

/// Inserts `keys` (value = key) and looks each up twice: the first lookup
/// reaching a level-12 leaf builds the level-8 array, the rest inhabit it.
void fill_and_warm(PlacedTrie& trie, std::span<const std::uint64_t> keys) {
  for (const auto k : keys) trie.insert(k, k);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto k : keys) ASSERT_EQ(trie.lookup(k), k);
  }
  ASSERT_EQ(trie.cache_level(), 8);
}

/// The key SNode `n` holds, or nullopt when `n` is not an SNode.
std::optional<std::uint64_t> snode_key(const NodeBase* n) {
  if (n == nullptr || n->kind != Kind::kSNode) return std::nullopt;
  return static_cast<const SNodeT*>(n)->key;
}

/// The key of the SNode in slot `i` of ANode `n`.
std::optional<std::uint64_t> slot_key(const NodeBase* n, std::uint32_t i) {
  return snode_key(static_cast<const ANode*>(n)->slots()[i].load());
}

/// Looks `key` up and checks the lookup was a cache hit with `want`.
void expect_hit(PlacedTrie& trie, std::uint64_t key,
                std::optional<std::uint64_t> want) {
  const std::uint64_t hits0 = sites::cachetrie_cache_hit.total();
  EXPECT_EQ(trie.lookup(key), want) << std::hex << key;
  if (kCounted) {
    EXPECT_EQ(sites::cachetrie_cache_hit.total(), hits0 + 1)
        << std::hex << key << " did not hit the cache";
  }
}

TEST(CacheWords, EachShapeDecodesToItsNodeAndServesLookups) {
  PlacedTrie trie{level8_config()};
  fill_and_warm(trie, kPlacedKeys);

  const NodeBase* narrow = trie.debug_cache_entry(0x001, 8);
  ASSERT_NE(narrow, nullptr);
  ASSERT_EQ(narrow->kind, Kind::kANode);
  EXPECT_EQ(static_cast<const ANode*>(narrow)->length, 4u);
  EXPECT_EQ(slot_key(narrow, 0), 0x001u);
  EXPECT_EQ(slot_key(narrow, 1), 0x101u);

  const NodeBase* wide = trie.debug_cache_entry(0x002, 8);
  ASSERT_NE(wide, nullptr);
  ASSERT_EQ(wide->kind, Kind::kANode);
  EXPECT_EQ(static_cast<const ANode*>(wide)->length, 16u);
  EXPECT_EQ(slot_key(wide, 0), 0x002u);
  EXPECT_EQ(slot_key(wide, 4), 0x402u);

  EXPECT_EQ(snode_key(trie.debug_cache_entry(0x013, 8)), 0x013u);
  EXPECT_TRUE(trie.debug_validate().empty());

  // Every key is a hit through its word; so are absent keys, which end in
  // an empty slot of the narrow (0x201) or wide (0x802) node, or at the
  // cached leaf whose hash differs (0x113).
  for (const auto k : kPlacedKeys) expect_hit(trie, k, k);
  expect_hit(trie, 0x201, std::nullopt);
  expect_hit(trie, 0x802, std::nullopt);
  expect_hit(trie, 0x113, std::nullopt);
}

TEST(CacheWords, ExpandedCachedNodeLeavesNoWordBehind) {
  PlacedTrie trie{level8_config()};
  const std::uint64_t keys[] = {0x001, 0x101};
  fill_and_warm(trie, keys);
  const NodeBase* narrow = trie.debug_cache_entry(0x001, 8);
  ASSERT_NE(narrow, nullptr);
  ASSERT_EQ(narrow->kind, Kind::kANode);

  // 0x401 collides with 0x001 in the narrow node's slot 0: the node is
  // expanded, and the expansion caches its wide copy in the same entry.
  ASSERT_TRUE(trie.insert(0x401, 0x401));
  const auto after_expand = trie.debug_validate();
  EXPECT_TRUE(after_expand.empty()) << after_expand.front();
  const NodeBase* wide = trie.debug_cache_entry(0x001, 8);
  ASSERT_NE(wide, nullptr);
  EXPECT_NE(wide, narrow);
  ASSERT_EQ(wide->kind, Kind::kANode);
  EXPECT_EQ(static_cast<const ANode*>(wide)->length, 16u);
  for (const std::uint64_t k : {0x001, 0x101, 0x401}) expect_hit(trie, k, k);
  expect_hit(trie, 0x201, std::nullopt);
}

TEST(CacheWords, InhabitingAFrozenNodeUndoesItsOwnWord) {
  // An expansion of the cached narrow node parks after freezing it, before
  // its copy is committed and the old node's word cleared. A lookup meanwhile
  // walks through the frozen node at the cache level: it stores the node's
  // word, sees the freeze on its re-check, and must take that word back.
  namespace tk = cachetrie::testkit;
  static_assert(tk::kChaosCompiled,
                "cache_behavior_test must build with CACHETRIE_TESTKIT=1");
  PlacedTrie trie{level8_config()};
  const std::uint64_t keys[] = {0x001, 0x101};
  fill_and_warm(trie, keys);
  const tk::Site row = tk::Site::cachetrie_enode_publish;
  const std::uint64_t inhabits0 = sites::cachetrie_cache_inhabit.total();
  const std::size_t parks = tk::fault::lose_race(
      7, std::span<const tk::Site>(&row, 1),
      [&] { EXPECT_TRUE(trie.insert(0x401, 0x401)); },
      [&](std::size_t) {
        EXPECT_EQ(trie.lookup(0x101), 0x101u);
        if (kCounted) {
          EXPECT_GT(sites::cachetrie_cache_inhabit.total(), inhabits0);
        }
        EXPECT_EQ(trie.debug_cache_entry(0x101, 8), nullptr)
            << "the frozen node's word outlived the inhabit's re-check";
      });
  ASSERT_EQ(parks, 1u);
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  for (const std::uint64_t k : {0x001, 0x101, 0x401}) {
    EXPECT_EQ(trie.lookup(k), k);
  }
}

}  // namespace
