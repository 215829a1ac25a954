// cachetrie_basic_test.cpp — single-threaded functional tests of the
// cache-trie public API: insert/lookup/remove, upsert semantics,
// put_if_absent/replace, traversal, and structural invariants.
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

#include <map>
#include <string>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "mr/leak.hpp"
#include "util/rng.hpp"

namespace {

using cachetrie::CacheTrie;
using cachetrie::Config;

TEST(CacheTrieBasic, EmptyTrie) {
  CacheTrie<int, int> trie;
  EXPECT_FALSE(trie.lookup(42).has_value());
  EXPECT_FALSE(trie.contains(0));
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.remove(42).has_value());
  EXPECT_TRUE(trie.debug_validate().empty());
}

TEST(CacheTrieBasic, SingleInsertLookup) {
  CacheTrie<int, std::string> trie;
  EXPECT_TRUE(trie.insert(1, "one"));
  auto v = trie.lookup(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "one");
  EXPECT_FALSE(trie.lookup(2).has_value());
  EXPECT_EQ(trie.size(), 1u);
}

TEST(CacheTrieBasic, InsertReplacesExisting) {
  CacheTrie<int, int> trie;
  EXPECT_TRUE(trie.insert(7, 70));
  EXPECT_FALSE(trie.insert(7, 71));  // same key: replaced, not new
  EXPECT_EQ(trie.lookup(7).value(), 71);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(CacheTrieBasic, PutIfAbsent) {
  CacheTrie<int, int> trie;
  EXPECT_TRUE(trie.put_if_absent(3, 30));
  EXPECT_FALSE(trie.put_if_absent(3, 31));
  EXPECT_EQ(trie.lookup(3).value(), 30);
}

TEST(CacheTrieBasic, ReplaceOnlyWhenPresent) {
  CacheTrie<int, int> trie;
  EXPECT_FALSE(trie.replace(5, 50));
  EXPECT_FALSE(trie.contains(5));
  trie.insert(5, 50);
  EXPECT_TRUE(trie.replace(5, 51));
  EXPECT_EQ(trie.lookup(5).value(), 51);
}

TEST(CacheTrieBasic, ReplaceIfEquals) {
  CacheTrie<int, int> trie;
  EXPECT_FALSE(trie.replace_if_equals(1, 10, 11));  // absent
  trie.insert(1, 10);
  EXPECT_FALSE(trie.replace_if_equals(1, 99, 11));  // wrong expected value
  EXPECT_EQ(trie.lookup(1).value(), 10);
  EXPECT_TRUE(trie.replace_if_equals(1, 10, 11));
  EXPECT_EQ(trie.lookup(1).value(), 11);
}

TEST(CacheTrieBasic, ReplaceIfEqualsOnCollisionChain) {
  CacheTrie<int, int, cachetrie::util::DegradedHash<0>> trie;  // one chain
  trie.insert(1, 10);
  trie.insert(2, 20);
  EXPECT_TRUE(trie.replace_if_equals(2, 20, 21));
  EXPECT_FALSE(trie.replace_if_equals(2, 20, 22));
  EXPECT_EQ(trie.lookup(2).value(), 21);
  EXPECT_EQ(trie.lookup(1).value(), 10);
}

TEST(CacheTrieBasic, RemoveIfEquals) {
  CacheTrie<int, int> trie;
  EXPECT_FALSE(trie.remove_if_equals(4, 40));  // absent
  trie.insert(4, 40);
  EXPECT_FALSE(trie.remove_if_equals(4, 41));  // wrong value
  EXPECT_TRUE(trie.contains(4));
  EXPECT_TRUE(trie.remove_if_equals(4, 40));
  EXPECT_FALSE(trie.contains(4));
}

TEST(CacheTrieBasic, RemoveIfEqualsOnCollisionChain) {
  CacheTrie<int, int, cachetrie::util::DegradedHash<0>> trie;
  trie.insert(1, 10);
  trie.insert(2, 20);
  trie.insert(3, 30);
  EXPECT_FALSE(trie.remove_if_equals(2, 99));
  EXPECT_TRUE(trie.remove_if_equals(2, 20));
  EXPECT_FALSE(trie.contains(2));
  EXPECT_EQ(trie.size(), 2u);
}

TEST(CacheTrieBasic, GetOrInsertWith) {
  CacheTrie<int, std::string> trie;
  int calls = 0;
  const auto v1 = trie.get_or_insert_with(5, [&] {
    ++calls;
    return std::string{"computed"};
  });
  EXPECT_EQ(v1, "computed");
  EXPECT_EQ(calls, 1);
  const auto v2 = trie.get_or_insert_with(5, [&] {
    ++calls;
    return std::string{"recomputed"};
  });
  EXPECT_EQ(v2, "computed");  // already present: factory not used
  EXPECT_EQ(calls, 1);
}

TEST(CacheTrieBasic, RemoveReturnsValue) {
  CacheTrie<int, int> trie;
  trie.insert(9, 90);
  auto removed = trie.remove(9);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 90);
  EXPECT_FALSE(trie.contains(9));
  EXPECT_FALSE(trie.remove(9).has_value());
}

TEST(CacheTrieBasic, ManyKeysRoundTrip) {
  CacheTrie<int, int> trie;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(trie.insert(i, i * 2));
  }
  EXPECT_EQ(trie.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    auto v = trie.lookup(i);
    ASSERT_TRUE(v.has_value()) << "missing key " << i;
    ASSERT_EQ(*v, i * 2);
  }
  EXPECT_FALSE(trie.lookup(kN).has_value());
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieBasic, InsertThenRemoveAll) {
  CacheTrie<int, int> trie;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) trie.insert(i, i);
  for (int i = 0; i < kN; ++i) {
    auto removed = trie.remove(i);
    ASSERT_TRUE(removed.has_value()) << "missing key " << i;
    ASSERT_EQ(*removed, i);
  }
  EXPECT_EQ(trie.size(), 0u);
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieBasic, MixedChurnMatchesReferenceMap) {
  CacheTrie<std::uint64_t, std::uint64_t> trie;
  std::map<std::uint64_t, std::uint64_t> ref;
  cachetrie::util::XorShift64Star rng{12345};
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = rng.next_below(5000);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const bool was_new = trie.insert(key, step);
        EXPECT_EQ(was_new, ref.find(key) == ref.end());
        ref[key] = static_cast<std::uint64_t>(step);
        break;
      }
      case 2: {
        const auto got = trie.lookup(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got.has_value()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 3: {
        const auto removed = trie.remove(key);
        const auto it = ref.find(key);
        ASSERT_EQ(removed.has_value(), it != ref.end());
        if (it != ref.end()) {
          ASSERT_EQ(*removed, it->second);
          ref.erase(it);
        }
        break;
      }
    }
  }
  EXPECT_EQ(trie.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto got = trie.lookup(k);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, v);
  }
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieBasic, StringKeys) {
  CacheTrie<std::string, int> trie;
  EXPECT_TRUE(trie.insert("alpha", 1));
  EXPECT_TRUE(trie.insert("beta", 2));
  EXPECT_FALSE(trie.insert("alpha", 3));
  EXPECT_EQ(trie.lookup("alpha").value(), 3);
  EXPECT_EQ(trie.lookup("beta").value(), 2);
  EXPECT_FALSE(trie.lookup("gamma").has_value());
}

TEST(CacheTrieBasic, ForEachVisitsAllPairs) {
  CacheTrie<int, int> trie;
  for (int i = 0; i < 1000; ++i) trie.insert(i, i + 1);
  std::map<int, int> seen;
  trie.for_each([&](const int& k, const int& v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(CacheTrieBasic, WithoutCacheVariant) {
  Config cfg;
  cfg.use_cache = false;
  CacheTrie<int, int> trie(cfg);
  for (int i = 0; i < 50000; ++i) trie.insert(i, i);
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(trie.contains(i));
  }
  EXPECT_EQ(trie.cache_level(), -1);  // cache never created
}

TEST(CacheTrieBasic, CacheGetsCreatedOnDeepTries) {
  Config cfg;
  CacheTrie<int, int> trie(cfg);
  for (int i = 0; i < 200000; ++i) trie.insert(i, i);
  // Lookups drive cache creation and inhabitation.
  for (int i = 0; i < 200000; ++i) {
    ASSERT_TRUE(trie.contains(i));
  }
  EXPECT_GE(trie.cache_level(), 8);
}

TEST(CacheTrieBasic, LeakReclaimerVariantWorks) {
#if defined(__SANITIZE_ADDRESS__)
  // LeakReclaimer leaks by design; don't let LeakSanitizer flag it.
  __lsan_disable();
#endif
  CacheTrie<int, int, cachetrie::util::DefaultHash<int>,
            cachetrie::mr::LeakReclaimer>
      trie;
  for (int i = 0; i < 10000; ++i) trie.insert(i, i);
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(trie.contains(i));
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(trie.remove(i).has_value());
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_GT(cachetrie::mr::LeakReclaimer::leaked_count(), 0u);
#if defined(__SANITIZE_ADDRESS__)
  __lsan_enable();
#endif
}

TEST(CacheTrieBasic, FootprintGrowsWithContent) {
  CacheTrie<int, int> trie;
  const std::size_t empty_fp = trie.footprint_bytes();
  for (int i = 0; i < 10000; ++i) trie.insert(i, i);
  const std::size_t full_fp = trie.footprint_bytes();
  EXPECT_GT(full_fp, empty_fp);
  // At least one SNode per key.
  EXPECT_GE(full_fp, 10000 * sizeof(int) * 2);
}

TEST(CacheTrieBasic, LevelHistogramCountsAllKeys) {
  CacheTrie<int, int> trie;
  for (int i = 0; i < 30000; ++i) trie.insert(i, i);
  const auto hist = trie.level_histogram();
  EXPECT_EQ(hist.total, 30000u);
  std::uint64_t sum = 0;
  for (auto c : hist.counts) sum += c;
  EXPECT_EQ(sum, 30000u);
}

}  // namespace
