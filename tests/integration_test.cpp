// integration_test.cpp — cross-module integration: all four concurrent
// maps driven through identical workloads must agree with each other (and
// with a sequential reference) at every checkpoint; plus whole-repo
// workflows combining the harness generators with the structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "harness/workload.hpp"
#include "skiplist/skiplist.hpp"
#include "util/rng.hpp"

namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <typename M1, typename M2>
void expect_equal_content(const M1& a, const M2& b) {
  ASSERT_EQ(a.size(), b.size());
  std::map<Key, Val> av;
  a.for_each([&](const Key& k, const Val& v) { av[k] = v; });
  std::map<Key, Val> bv;
  b.for_each([&](const Key& k, const Val& v) { bv[k] = v; });
  ASSERT_EQ(av, bv);
}

TEST(Integration, AllFourStructuresAgreeUnderChurn) {
  cachetrie::CacheTrie<Key, Val> trie;
  cachetrie::ctrie::Ctrie<Key, Val> ctrie;
  cachetrie::chm::ConcurrentHashMap<Key, Val> chm;
  cachetrie::csl::ConcurrentSkipList<Key, Val> slist;
  std::map<Key, Val> ref;

  cachetrie::util::XorShift64Star rng{2024};
  for (int step = 0; step < 60000; ++step) {
    const Key key = rng.next_below(3000);
    if (rng.next_below(5) < 3) {
      const bool expect_new = ref.find(key) == ref.end();
      ASSERT_EQ(trie.insert(key, step), expect_new);
      ASSERT_EQ(ctrie.insert(key, step), expect_new);
      ASSERT_EQ(chm.insert(key, step), expect_new);
      ASSERT_EQ(slist.insert(key, step), expect_new);
      ref[key] = static_cast<Val>(step);
    } else {
      const bool expect_removed = ref.erase(key) == 1;
      ASSERT_EQ(trie.remove(key).has_value(), expect_removed);
      ASSERT_EQ(ctrie.remove(key).has_value(), expect_removed);
      ASSERT_EQ(chm.remove(key).has_value(), expect_removed);
      ASSERT_EQ(slist.remove(key).has_value(), expect_removed);
    }
    if (step % 20000 == 19999) {
      expect_equal_content(trie, ctrie);
      expect_equal_content(trie, chm);
      expect_equal_content(trie, slist);
    }
  }
  ASSERT_EQ(trie.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(trie.lookup(k).value(), v);
    ASSERT_EQ(ctrie.lookup(k).value(), v);
    ASSERT_EQ(chm.lookup(k).value(), v);
    ASSERT_EQ(slist.lookup(k).value(), v);
  }
}

// Seeded single-threaded churn; then size() must count exactly the pairs
// for_each visits, and both the pairs a reference map holds.
template <typename Map>
void expect_size_counts_visits() {
  Map map;
  std::map<Key, Val> ref;
  cachetrie::util::SplitMix64 rng(40);
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t r = rng.next();
    const Key key = r % 4000;
    if (r >> 62 == 0) {
      map.remove(key);
      ref.erase(key);
    } else {
      map.insert(key, r);
      ref[key] = r;
    }
  }
  std::size_t visits = 0;
  map.for_each([&](const Key&, const Val&) { ++visits; });
  EXPECT_EQ(map.size(), visits);
  EXPECT_EQ(visits, ref.size());
}

TEST(Integration, BaselineSizeCountsEveryForEachVisit) {
  using Few = cachetrie::util::DegradedHash<6>;  // chains and deep paths
  expect_size_counts_visits<cachetrie::ctrie::Ctrie<Key, Val>>();
  expect_size_counts_visits<cachetrie::ctrie::Ctrie<Key, Val, Few>>();
  expect_size_counts_visits<cachetrie::chm::ConcurrentHashMap<Key, Val>>();
  expect_size_counts_visits<
      cachetrie::chm::ConcurrentHashMap<Key, Val, Few>>();
  expect_size_counts_visits<cachetrie::csl::ConcurrentSkipList<Key, Val>>();
}

TEST(Integration, WorkloadGeneratorsDriveAllStructures) {
  const cachetrie::harness::DisjointKeys workload{4, 5000};
  cachetrie::CacheTrie<Key, Val> trie;
  cachetrie::chm::ConcurrentHashMap<Key, Val> chm;
  for (int t = 0; t < 4; ++t) {
    for (auto k : workload.for_thread(t)) {
      trie.insert(k, k * 2);
      chm.insert(k, k * 2);
    }
  }
  expect_equal_content(trie, chm);
  EXPECT_EQ(trie.size(), 20000u);
}

TEST(Integration, StringKeysAcrossTrieAndChm) {
  cachetrie::CacheTrie<std::string, std::string> trie;
  cachetrie::chm::ConcurrentHashMap<std::string, std::string> chm;
  std::vector<std::string> keys;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back("user:" + std::to_string(i * 7919) + ":session");
  }
  for (const auto& k : keys) {
    trie.insert(k, k + "!");
    chm.insert(k, k + "!");
  }
  for (const auto& k : keys) {
    ASSERT_EQ(trie.lookup(k).value(), k + "!");
    ASSERT_EQ(chm.lookup(k).value(), k + "!");
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(trie.remove(keys[i]).has_value());
    ASSERT_TRUE(chm.remove(keys[i]).has_value());
  }
  ASSERT_EQ(trie.size(), chm.size());
}

TEST(Integration, FootprintOrderingMatchesFigure9) {
  // The cross-structure property Figure 9 reports: skip list leanest, the
  // tries heaviest, CHM in between; the cache adds a modest overhead.
  constexpr std::size_t kN = 200000;
  const auto keys = cachetrie::harness::random_keys(kN);
  cachetrie::csl::ConcurrentSkipList<Key, Val> slist;
  cachetrie::chm::ConcurrentHashMap<Key, Val> chm;
  cachetrie::ctrie::Ctrie<Key, Val> ctrie;
  cachetrie::CacheTrie<Key, Val> trie;
  cachetrie::Config nc;
  nc.use_cache = false;
  cachetrie::CacheTrie<Key, Val> trie_nocache{nc};
  for (auto k : keys) {
    slist.insert(k, k);
    chm.insert(k, k);
    ctrie.insert(k, k);
    trie.insert(k, k);
    trie_nocache.insert(k, k);
  }
  for (auto k : keys) (void)trie.lookup(k);  // materialize the cache

  const auto sl = slist.footprint_bytes();
  const auto hm = chm.footprint_bytes();
  const auto ct = ctrie.footprint_bytes();
  const auto tn = trie_nocache.footprint_bytes();
  const auto tc = trie.footprint_bytes();
  EXPECT_LT(sl, hm);
  EXPECT_LT(hm, tn);
  EXPECT_LT(tn, tc);
  // Cache overhead stays well below 25% (paper: typically <10%).
  EXPECT_LT(static_cast<double>(tc),
            static_cast<double>(tn) * 1.25);
  // Everything within sane absolute bounds (40-120 bytes/key).
  for (const std::size_t fp : {sl, hm, ct, tn, tc}) {
    EXPECT_GT(fp, kN * 16);
    EXPECT_LT(fp, kN * 120);
  }
}

TEST(Integration, MultipleTriesAreIndependent) {
  // The sentinels (frozen empty, NoTxn, frozen NoTxn, Pending) are word
  // values that every CacheTrie instantiation shares; instances must still
  // be fully independent.
  cachetrie::CacheTrie<int, int> a;
  cachetrie::CacheTrie<int, int> b;
  cachetrie::CacheTrie<int, std::string> c;  // different instantiation
  for (int k = 0; k < 5000; ++k) {
    a.insert(k, k);
    b.insert(k, -k);
    c.insert(k, std::to_string(k));
  }
  for (int k = 0; k < 5000; k += 2) a.remove(k);
  for (int k = 0; k < 5000; ++k) {
    ASSERT_EQ(a.contains(k), k % 2 == 1);
    ASSERT_EQ(b.lookup(k).value(), -k);
    ASSERT_EQ(c.lookup(k).value(), std::to_string(k));
  }
  EXPECT_TRUE(a.debug_validate().empty());
  EXPECT_TRUE(b.debug_validate().empty());
}

TEST(Integration, EpochDomainSharedAcrossStructures) {
  // All structures retire through one process-wide domain; a drain after
  // heavy churn in all of them must leave nothing in limbo.
  auto& dom = cachetrie::mr::EpochDomain::instance();
  {
    cachetrie::CacheTrie<Key, Val> trie;
    cachetrie::ctrie::Ctrie<Key, Val> ctrie;
    cachetrie::chm::ConcurrentHashMap<Key, Val> chm;
    cachetrie::csl::ConcurrentSkipList<Key, Val> slist;
    for (int round = 0; round < 3; ++round) {
      for (Key k = 0; k < 4000; ++k) {
        trie.insert(k, k);
        ctrie.insert(k, k);
        chm.insert(k, k);
        slist.insert(k, k);
      }
      for (Key k = 0; k < 4000; ++k) {
        trie.remove(k);
        ctrie.remove(k);
        chm.remove(k);
        slist.remove(k);
      }
    }
  }
  dom.drain_for_testing();
  EXPECT_EQ(dom.retired_count(), dom.freed_count());
}

}  // namespace
