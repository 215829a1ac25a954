// cache_behavior_test.cpp — targeted tests of the cache subsystem
// (paper §3.4-3.6): creation trigger, inhabitation, fast hits, automatic
// eviction of stale entries, miss counting, depth sampling, level
// adaptation in both directions, and the shape tags cache words carry.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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
/// Under the identity hash a key is its own path.
using PlacedTrie =
    CacheTrie<std::uint64_t, std::uint64_t, cachetrie::util::IdentityHash>;

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

TEST(CacheBehavior, UncontendedChurnNeverRestartsFromTheRoot) {
  // Alone, a write finishes every expansion and compression it starts, so
  // its walk never meets a frozen word and never goes back to the root. In
  // particular an insert that expands a narrow node goes on at the wide
  // copy. The trie stays unbounded: a bounded one's hygiene eviction can
  // compress the node a writer stands in, which restarts it legitimately.
  if (!kCounted) GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
  Trie trie;
  const auto keys = cachetrie::harness::random_keys(1u << 14, 7);
  const std::uint64_t restarts0 = sites::cachetrie_root_restart.total();
  const std::uint64_t expands0 = sites::cachetrie_expand.total();
  const std::uint64_t compresses0 = sites::cachetrie_compress.total();
  cachetrie::util::XorShift64Star rng{7};
  for (int i = 0; i < 400000; ++i) {
    const std::uint64_t r = rng.next();
    const std::uint64_t k = keys[r & (keys.size() - 1)];
    switch ((r >> 32) % 4) {
      case 0: trie.insert(k, r); break;
      case 1: (void)trie.remove(k); break;
      default: (void)trie.lookup(k);
    }
  }
  EXPECT_EQ(sites::cachetrie_root_restart.total(), restarts0);
  EXPECT_GT(sites::cachetrie_expand.total(), expands0);
  EXPECT_GT(sites::cachetrie_compress.total(), compresses0);
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
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
    const auto entry = trie.debug_cache_entry(k, 8);
    if (!entry.is_anode()) continue;
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
  // Under the identity hash, keys 0..4095 put one leaf at level 12 in each
  // slot of 256 level-8 ANodes, within reach of the first cache array
  // (level 8), which the inserts fill with those ANodes. Each key + 4096
  // then splits its twin's leaf into a narrow node at 12 with two leaves at
  // 16; a split counts no miss. Keys + 8192 then land in the narrow nodes'
  // empty slots, leaves at 16 out of the level-8 array's reach: those
  // inserts miss until sampling grows the cache to 12, and the last of
  // them is the one that moves it. So the chain becomes [12 -> 8] with the
  // level-12 array empty. A key whose level-12 entry is empty but whose
  // level-8 entry holds an ANode starts its descent one array up; passing
  // level 12 on the way down must fill the deepest entry (Fig. 6).
  Config cfg = sampling_config();
  cfg.cache_init_level = 8;
  cfg.min_cache_level = 8;
  cfg.max_cache_level = 12;
  PlacedTrie trie{cfg};
  std::vector<std::uint64_t> keys;
  for (std::uint64_t twin = 0; twin < 2; ++twin) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      keys.push_back(i + 4096 * twin);
      trie.insert(keys.back(), keys.back());
    }
  }
  ASSERT_EQ(trie.cache_level(), 8);
  for (std::uint64_t i = 0; i < 4096 && trie.cache_level() != 12; ++i) {
    keys.push_back(i + 8192);
    trie.insert(keys.back(), keys.back());
  }
  ASSERT_EQ(trie.cache_level(), 12);

  std::size_t descents = 0;
  std::size_t filled = 0;
  for (auto k : keys) {
    if (!trie.debug_cache_entry(k, 12).null() ||
        !trie.debug_cache_entry(k, 8).is_anode()) {
      continue;
    }
    ++descents;
    const std::uint64_t inhabits0 = sites::cachetrie_cache_inhabit.total();
    ASSERT_EQ(trie.lookup(k).value(), k);
    if (trie.debug_cache_entry(k, 12).is_anode()) {
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

TEST(CacheBehavior, InsertOnlyFillFindsTheLevelLookupsPick) {
  // Inserts alone feed the miss rule: a fill whose leaves sink past the
  // first array's reach samples and moves the cache to where its leaves
  // are, the level a pass of lookups over the same keys then keeps.
  const std::uint64_t misses0 = sites::cachetrie_cache_miss.total();
  Trie trie;
  const auto keys = cachetrie::harness::random_keys(std::size_t{1} << 16);
  for (auto k : keys) trie.insert(k, k);
  const std::int32_t filled = trie.cache_level();
  EXPECT_GT(filled, 8);
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_cache_miss.total(), misses0);
  }
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  for (auto k : keys) ASSERT_EQ(trie.lookup(k), k);
  EXPECT_EQ(trie.cache_level(), filled);
}

// --- tagged cache words ----------------------------------------------------
//
// Under the identity hash a key is its own path. 0x001 and 0x101 split at
// level 8 into a narrow ANode (two bits tell them apart), 0x002 and 0x402
// into a wide one (four bits do), and 0x003 and 0x013 split at level 4, so
// 0x013 is a leaf at level 8. The cache is pinned at level 8, where it holds
// all three shapes.

using cachetrie::detail::Ref;
using cachetrie::detail::Tag;
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

/// The key SNode word `n` refers to, or nullopt when `n` is not an SNode's.
std::optional<std::uint64_t> snode_key(Ref n) {
  if (n.tag() != Tag::kSNode) return std::nullopt;
  return n.as<const SNodeT>()->key;
}

/// The key of the SNode in slot `i` of ANode word `n`.
std::optional<std::uint64_t> slot_key(Ref n, std::uint32_t i) {
  return snode_key(n.slot_at(i).load(std::memory_order_acquire));
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

  const Ref narrow = trie.debug_cache_entry(0x001, 8);
  ASSERT_EQ(narrow.tag(), Tag::kNarrow);
  EXPECT_EQ(narrow.length(), 4u);
  EXPECT_EQ(slot_key(narrow, 0), 0x001u);
  EXPECT_EQ(slot_key(narrow, 1), 0x101u);

  const Ref wide = trie.debug_cache_entry(0x002, 8);
  ASSERT_EQ(wide.tag(), Tag::kWide);
  EXPECT_EQ(wide.length(), 16u);
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
  const Ref narrow = trie.debug_cache_entry(0x001, 8);
  ASSERT_EQ(narrow.tag(), Tag::kNarrow);

  // 0x401 collides with 0x001 in the narrow node's slot 0: the node is
  // expanded, and the expansion caches its wide copy in the same entry.
  ASSERT_TRUE(trie.insert(0x401, 0x401));
  const auto after_expand = trie.debug_validate();
  EXPECT_TRUE(after_expand.empty()) << after_expand.front();
  const Ref wide = trie.debug_cache_entry(0x001, 8);
  EXPECT_NE(wide.node(), narrow.node());
  ASSERT_EQ(wide.tag(), Tag::kWide);
  EXPECT_EQ(wide.length(), 16u);
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
        EXPECT_TRUE(trie.debug_cache_entry(0x101, 8).null())
            << "the frozen node's word outlived the inhabit's re-check";
      });
  ASSERT_EQ(parks, 1u);
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  for (const std::uint64_t k : {0x001, 0x101, 0x401}) {
    EXPECT_EQ(trie.lookup(k), k);
  }
}

TEST(CacheBehavior, SamplingAndLookupsReadThroughAPendingExpansion) {
  // Under the identity hash, 0x01, 0x11, 0x21 and 0x31 fill a narrow node
  // at level 4 in root slot 1, with their leaves at 8. 0x41 collides with
  // 0x01 in it, so inserting it expands that node: the inserter parks with
  // its ENode in root slot 1 over the frozen narrow node. 0x002 and 0x102
  // put leaves at 12 (the first lookup of one builds the level-8 array),
  // and 0x03 is a leaf at 4, outside that array's reach. With
  // max_misses = 0, each lookup of 0x03 misses and runs a sampling pass:
  // a random path takes root slot 1 one time in 16, and every such path
  // must read through the ENode to a leaf at level 8, the only level-8
  // leaves in the trie.
  namespace tk = cachetrie::testkit;
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
  }
  Config cfg = level8_config();
  cfg.max_misses = 0;
  PlacedTrie trie{cfg};
  const std::uint64_t narrow_keys[] = {0x01, 0x11, 0x21, 0x31};
  const std::uint64_t other_keys[] = {0x002, 0x102, 0x03};
  fill_and_warm(trie, other_keys);
  fill_and_warm(trie, narrow_keys);
  ASSERT_EQ(trie.debug_cache_entry(0x01, 8).tag(), Tag::kSNode);

  auto& reg = cachetrie::obs::registry();
  const std::size_t level8 = cachetrie::obs::LatencyHistogram::index_of(2);
  constexpr int kPasses = 8;
  const tk::Site row = tk::Site::cachetrie_enode_publish;
  const std::size_t parks = tk::fault::lose_race(
      7, std::span<const tk::Site>(&row, 1),
      [&] { EXPECT_TRUE(trie.insert(0x41, 0x41)); },
      [&](std::size_t) {
        // 0x01's cached leaf is frozen now: the probe must pass over it.
        ASSERT_EQ(trie.debug_cache_entry(0x01, 8).tag(), Tag::kSNode);
        for (const auto k : narrow_keys) EXPECT_EQ(trie.lookup(k), k);
        for (const auto k : other_keys) EXPECT_EQ(trie.lookup(k), k);
        EXPECT_EQ(trie.lookup(0x41), std::nullopt);

        const auto before = reg.snapshot();
        const std::uint64_t passes0 = sites::cachetrie_sampling_pass.total();
        for (int i = 0; i < kPasses; ++i) EXPECT_EQ(trie.lookup(0x03), 0x03u);
        const auto after = reg.snapshot();
        ASSERT_EQ(sites::cachetrie_sampling_pass.total(), passes0 + kPasses);
        const auto* h0 = before.find_histogram("cachetrie.sample.leaf_level");
        const auto* h1 = after.find_histogram("cachetrie.sample.leaf_level");
        ASSERT_NE(h0, nullptr);
        ASSERT_NE(h1, nullptr);
        // 192 paths a pass, 1 in 16 through the ENode: about 96 in all.
        // Half of that is more than five standard deviations below.
        EXPECT_GE(h1->buckets[level8] - h0->buckets[level8],
                  kPasses * cachetrie::kSampleSize / 16 / 2)
            << "paths through the ENode were not read to their leaves";
      });
  ASSERT_EQ(parks, 1u);
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  for (const auto k : narrow_keys) EXPECT_EQ(trie.lookup(k), k);
  EXPECT_EQ(trie.lookup(0x41), 0x41u);
}

TEST(CacheWords, RemoveStartingAtACachedNodeDoesNotCompressIt) {
  // Pins the compression rule under the cache (DESIGN.md §1): a remove whose
  // descent starts at a cached ANode has no parent slot to compress that
  // node into, so the node keeps its one remaining leaf. The same remove
  // descending from the root compresses the node away. Changing the rule
  // (say, finding the parent by a root re-descent) trades footprint for
  // throughput; EXPERIMENTS.md "Compression under the cache" has the
  // measurements, so a change here should come with new ones.
  const std::uint64_t keys[] = {0x001, 0x101};
  PlacedTrie cached{level8_config()};
  fill_and_warm(cached, keys);
  const Ref narrow = cached.debug_cache_entry(0x001, 8);
  ASSERT_EQ(narrow.tag(), Tag::kNarrow);
  const std::uint64_t compress0 = sites::cachetrie_compress.total();
  ASSERT_EQ(cached.remove(0x101), 0x101u);
  if (kCounted) {
    EXPECT_EQ(sites::cachetrie_compress.total(), compress0);
  }
  EXPECT_EQ(cached.debug_cache_entry(0x001, 8), narrow);
  EXPECT_EQ(slot_key(narrow, 0), 0x001u);
  EXPECT_TRUE(narrow.slot_at(1).load(std::memory_order_acquire).null());
  auto issues = cached.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  expect_hit(cached, 0x001, 0x001);

  Config uncached = level8_config();
  uncached.use_cache = false;
  PlacedTrie walked{uncached};
  for (const auto k : keys) ASSERT_TRUE(walked.insert(k, k));
  const std::uint64_t compress1 = sites::cachetrie_compress.total();
  ASSERT_EQ(walked.remove(0x101), 0x101u);
  if (kCounted) {
    EXPECT_EQ(sites::cachetrie_compress.total(), compress1 + 1);
  }
  issues = walked.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  EXPECT_EQ(walked.lookup(0x001), 0x001u);
}

// --- the head's parent array ------------------------------------------------
//
// With the cache head at level L and its parent array at L - 4, a write that
// passes an ANode at L - 4 caches it in the parent array. Here L is 12: the
// narrow node that 0x001 and 0x101 split into sits at level 8.

/// Grows a level-8 cache to 12 on its first miss, keeping the level-8
/// array as the head's parent.
Config two_array_config() {
  Config cfg;
  cfg.max_misses = 0;
  cfg.cache_init_level = 8;
  cfg.min_cache_level = 12;
  cfg.max_cache_level = 12;
  return cfg;
}

/// Inserts 0x001 and 0x101; the lookup of 0x001 reaches its leaf at level
/// 12 and builds the level-8 array, and the insert of 0x002 puts a leaf at
/// level 4, whose miss grows the chain to [12 -> 8]. Both arrays are empty.
void grow_to_two_arrays(PlacedTrie& trie) {
  ASSERT_TRUE(trie.insert(0x001, 0x001));
  ASSERT_TRUE(trie.insert(0x101, 0x101));
  ASSERT_EQ(trie.lookup(0x001), 0x001u);
  ASSERT_EQ(trie.cache_level(), 8);
  ASSERT_TRUE(trie.insert(0x002, 0x002));
  ASSERT_EQ(trie.cache_level(), 12);
  ASSERT_TRUE(trie.debug_cache_entry(0x001, 8).null());
}

TEST(CacheWords, WriteCachesItsParentLevelANodeAndCompressionClearsIt) {
  // A remove of 0x101 descends from the root (no array holds a node on its
  // path yet) and parks before announcing. Meanwhile an upsert of 0x001
  // passes the narrow node at level 8 and caches it in the parent array.
  // The remove then leaves that node one leaf, so it compresses it, and
  // the compression must clear the word.
  namespace tk = cachetrie::testkit;
  PlacedTrie trie{two_array_config()};
  grow_to_two_arrays(trie);
  const tk::Site row = tk::Site::cachetrie_txn_announce;
  const std::size_t parks = tk::fault::lose_race(
      11, std::span<const tk::Site>(&row, 1),
      [&] { EXPECT_EQ(trie.remove(0x101), 0x101u); },
      [&](std::size_t) {
        EXPECT_FALSE(trie.insert(0x001, 0x1001));
        const Ref narrow = trie.debug_cache_entry(0x001, 8);
        ASSERT_EQ(narrow.tag(), Tag::kNarrow);
        EXPECT_EQ(narrow.length(), 4u);
        EXPECT_EQ(slot_key(narrow, 1), 0x101u);
        // The word sits at the node's canonical index with its shape tag.
        const auto issues = trie.debug_validate();
        EXPECT_TRUE(issues.empty()) << issues.front();
      });
  ASSERT_EQ(parks, 1u);
  EXPECT_TRUE(trie.debug_cache_entry(0x001, 8).null())
      << "the compressed node's word outlived its retirement";
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  EXPECT_EQ(trie.lookup(0x001), 0x1001u);
  EXPECT_EQ(trie.lookup(0x101), std::nullopt);
}

TEST(CacheWords, InhabitingAFrozenParentLevelNodeUndoesItsOwnWord) {
  // An insert of 0x201 reads the narrow node at level 8 and parks before
  // storing its word in the parent array. A remove of 0x101 meanwhile
  // compresses the node and clears its words, finding none. The insert then
  // stores the dead node's word, sees the freeze on its re-check, and must
  // take that word back.
  namespace tk = cachetrie::testkit;
  PlacedTrie trie{two_array_config()};
  grow_to_two_arrays(trie);
  const tk::Site row = tk::Site::cachetrie_cache_inhabit_parent;
  const std::uint64_t inhabits0 = sites::cachetrie_cache_inhabit.total();
  const std::size_t parks = tk::fault::lose_race(
      13, std::span<const tk::Site>(&row, 1),
      [&] { EXPECT_TRUE(trie.insert(0x201, 0x201)); },
      [&](std::size_t) {
        EXPECT_EQ(trie.remove(0x101), 0x101u);
        EXPECT_TRUE(trie.debug_cache_entry(0x001, 8).null());
      });
  ASSERT_EQ(parks, 1u);
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_cache_inhabit.total(), inhabits0);
  }
  EXPECT_TRUE(trie.debug_cache_entry(0x201, 8).null())
      << "the frozen node's word outlived the inhabit's re-check";
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  for (const std::uint64_t k : {0x001, 0x002, 0x201}) {
    EXPECT_EQ(trie.lookup(k), k);
  }
  EXPECT_EQ(trie.lookup(0x101), std::nullopt);
}

}  // namespace
