// chashmap_test.cpp — functional and concurrency tests for the JDK8-style
// concurrent hash map baseline, including resize/transfer races.
#include <gtest/gtest.h>

#include <barrier>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chashmap/chashmap.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace {

using cachetrie::chm::ConcurrentHashMap;

TEST(CHashMap, EmptyLookups) {
  ConcurrentHashMap<int, int> map;
  EXPECT_FALSE(map.lookup(1).has_value());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.remove(1).has_value());
}

TEST(CHashMap, BasicRoundTrip) {
  ConcurrentHashMap<int, std::string> map;
  EXPECT_TRUE(map.insert(1, "one"));
  EXPECT_FALSE(map.insert(1, "uno"));
  EXPECT_EQ(map.lookup(1).value(), "uno");
  EXPECT_TRUE(map.put_if_absent(2, "two"));
  EXPECT_FALSE(map.put_if_absent(2, "dos"));
  EXPECT_EQ(map.lookup(2).value(), "two");
  auto removed = map.remove(1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, "uno");
  EXPECT_EQ(map.size(), 1u);
}

TEST(CHashMap, ResizeGrowsTable) {
  ConcurrentHashMap<int, int> map(16);
  const std::size_t bins0 = map.bin_count();
  for (int i = 0; i < 100000; ++i) ASSERT_TRUE(map.insert(i, i));
  EXPECT_GT(map.bin_count(), bins0);
  for (int i = 0; i < 100000; ++i) {
    auto v = map.lookup(i);
    ASSERT_TRUE(v.has_value()) << i;
    ASSERT_EQ(*v, i);
  }
  EXPECT_EQ(map.size(), 100000u);
}

TEST(CHashMap, MixedChurnMatchesReference) {
  ConcurrentHashMap<std::uint64_t, std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> ref;
  cachetrie::util::XorShift64Star rng{777};
  for (int step = 0; step < 150000; ++step) {
    const std::uint64_t key = rng.next_below(4000);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        ASSERT_EQ(map.insert(key, step), ref.find(key) == ref.end());
        ref[key] = static_cast<std::uint64_t>(step);
        break;
      }
      case 2: {
        const auto got = map.lookup(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got.has_value()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 3: {
        const auto removed = map.remove(key);
        ASSERT_EQ(removed.has_value(), ref.erase(key) == 1);
        break;
      }
    }
  }
  EXPECT_EQ(map.size(), ref.size());
}

TEST(CHashMap, ForEachVisitsEverything) {
  ConcurrentHashMap<int, int> map;
  for (int i = 0; i < 5000; ++i) map.insert(i, i + 1);
  std::map<int, int> seen;
  map.for_each([&](const int& k, const int& v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 5000u);
}

TEST(CHashMapConcurrent, DisjointInsertsDuringResizes) {
  ConcurrentHashMap<int, int> map(16);  // tiny: forces many transfers
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::barrier start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(map.insert(t * kPerThread + i, i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_TRUE(map.contains(k)) << k;
  }
}

TEST(CHashMapConcurrent, LookupsDuringResizeSeeEverything) {
  ConcurrentHashMap<int, int> map(16);
  constexpr int kStable = 20000;
  for (int i = 0; i < kStable; ++i) map.insert(i, i);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      cachetrie::util::XorShift64Star rng{static_cast<std::uint64_t>(r) + 5};
      while (!stop.load(std::memory_order_acquire)) {
        const int k = static_cast<int>(rng.next_below(kStable));
        if (!map.lookup(k).has_value()) misses.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    // Grow well past several resize boundaries while readers hammer the
    // stable key range.
    for (int i = kStable; i < kStable * 6; ++i) map.insert(i, i);
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(misses.load(), 0u);
}

TEST(CHashMapConcurrent, ChurnWithOwnership) {
  ConcurrentHashMap<int, int> map(16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1500;
  constexpr int kOps = 40000;
  std::vector<std::vector<bool>> present(kThreads,
                                         std::vector<bool>(kPerThread));
  std::barrier start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      cachetrie::util::XorShift64Star rng{static_cast<std::uint64_t>(t) + 31};
      auto& mine = present[t];
      for (int op = 0; op < kOps; ++op) {
        const int idx = static_cast<int>(rng.next_below(kPerThread));
        const int key = t * kPerThread + idx;
        if (rng.next_below(2) == 0) {
          ASSERT_EQ(map.insert(key, key), !mine[idx]);
          mine[idx] = true;
        } else {
          ASSERT_EQ(map.remove(key).has_value(), mine[idx]);
          mine[idx] = false;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(map.contains(t * kPerThread + i), present[t][i]);
    }
  }
}

// --- conditional unlink: remove_if_equals -----------------------------------

/// Each case runs on two bin shapes: a roomy table whose bins hold about one
/// node each, and a DegradedHash<2> map whose four live bins hold dozens of
/// nodes, so the splice runs at the head and in the middle of a chain.
template <typename Map, std::size_t kInitialBins>
struct BinShape {
  using MapType = Map;
  static constexpr std::size_t initial_bins = kInitialBins;
};
template <typename Hash>
using U64Map = ConcurrentHashMap<std::uint64_t, std::uint64_t, Hash>;
using SingleNodeBins =
    BinShape<U64Map<cachetrie::util::DefaultHash<std::uint64_t>>, 1u << 14>;
using CrowdedBins = BinShape<U64Map<cachetrie::util::DegradedHash<2>>, 16>;

template <typename Shape>
class CHashMapUnlink : public ::testing::Test {
 protected:
  typename Shape::MapType map{Shape::initial_bins};
};
using BinShapes = ::testing::Types<SingleNodeBins, CrowdedBins>;
TYPED_TEST_SUITE(CHashMapUnlink, BinShapes);

constexpr std::uint64_t kUnlinkKeys = 64;

TYPED_TEST(CHashMapUnlink, RemoveIfEqualsChecksValue) {
  auto& map = this->map;
  for (std::uint64_t k = 0; k < kUnlinkKeys; ++k) {
    ASSERT_TRUE(map.insert(k, k * 10));
  }
  for (std::uint64_t k = 1; k < kUnlinkKeys; k += 2) {
    EXPECT_FALSE(map.remove_if_equals(k, k * 10 + 1)) << k;
    EXPECT_EQ(map.lookup(k), std::optional<std::uint64_t>(k * 10)) << k;
  }
  EXPECT_EQ(map.size(), kUnlinkKeys);
  for (std::uint64_t k = 1; k < kUnlinkKeys; k += 2) {
    EXPECT_TRUE(map.remove_if_equals(k, k * 10)) << k;
    EXPECT_FALSE(map.remove_if_equals(k, k * 10)) << k;
  }
  EXPECT_EQ(map.size(), kUnlinkKeys / 2);
  for (std::uint64_t k = 0; k < kUnlinkKeys; ++k) {
    EXPECT_EQ(map.contains(k), k % 2 == 0) << k;
  }
}

}  // namespace
