// edge_cases_test.cpp — cross-cutting edge cases that earlier suites do not
// pin down: deep branch creation from long shared prefixes, guard/reentrancy
// semantics, conditional-op winners on every structure, and traversal under
// concurrent mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <set>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "mr/epoch.hpp"
#include "skiplist/skiplist.hpp"
#include "util/rng.hpp"

namespace {

// Hashes sharing the low 56 bits force the deepest possible ANode chains
// (14 shared nibbles) before the keys separate in the top byte.
struct DeepPrefixHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return (k << 56) | 0x00FFFFFFFFFFFFFFull >> 8;
  }
};

TEST(EdgeCases, DeepestPossibleBranching) {
  cachetrie::CacheTrie<std::uint64_t, std::uint64_t, DeepPrefixHash> trie;
  // Only 256 distinct hashes exist (top byte); all pairs share 14 nibbles.
  for (std::uint64_t k = 0; k < 256; ++k) {
    ASSERT_TRUE(trie.insert(k, k * 3));
  }
  // Keys 256.. collide fully with keys k%256 -> LNode chains at the bottom.
  for (std::uint64_t k = 256; k < 512; ++k) {
    ASSERT_TRUE(trie.insert(k, k * 3));
  }
  EXPECT_EQ(trie.size(), 512u);
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(trie.lookup(k).value(), k * 3) << k;
  }
  const auto hist = trie.level_histogram();
  // Everything sits at the maximum depth the 64-bit hash allows.
  EXPECT_GE(hist.counts[14] + hist.counts[15] + hist.counts[16], 512u);
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  // Remove everything; compression must unwind the deep spine.
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_TRUE(trie.remove(k).has_value()) << k;
  }
  EXPECT_EQ(trie.size(), 0u);
  // Near-empty trie again; the (retained) cache arrays dominate what's left.
  EXPECT_LT(trie.footprint_bytes(), 16384u);
}

TEST(EdgeCases, EpochGuardIsMovable) {
  auto& dom = cachetrie::mr::EpochDomain::instance();
  auto g1 = dom.pin();
  auto g2 = std::move(g1);  // must transfer, not double-unpin
  {
    auto g3 = dom.pin();  // nested while moved-to guard alive
  }
  SUCCEED();
}

TEST(EdgeCases, RetireUnderNestedGuards) {
  auto& dom = cachetrie::mr::EpochDomain::instance();
  struct Obj {
    int x = 42;
  };
  {
    auto outer = dom.pin();
    {
      auto inner = dom.pin();
      dom.retire(new Obj());
    }
    dom.retire(new Obj());
  }
  dom.drain_for_testing();
  SUCCEED();
}

template <typename Map>
void put_if_absent_one_winner() {
  Map map;
  constexpr int kThreads = 8;
  constexpr int kKeys = 4000;
  std::atomic<int> wins{0};
  std::barrier start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      int local = 0;
      for (int i = 0; i < kKeys; ++i) {
        if (map.put_if_absent(i, t)) ++local;
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(wins.load(), kKeys);
  for (int i = 0; i < kKeys; ++i) {
    const auto v = map.lookup(i);
    ASSERT_TRUE(v.has_value());
    ASSERT_LT(*v, kThreads);
  }
}

TEST(EdgeCases, PutIfAbsentOneWinnerCHashMap) {
  put_if_absent_one_winner<
      cachetrie::chm::ConcurrentHashMap<int, int>>();
}

TEST(EdgeCases, PutIfAbsentOneWinnerSkipList) {
  put_if_absent_one_winner<
      cachetrie::csl::ConcurrentSkipList<int, int>>();
}

TEST(EdgeCases, PutIfAbsentOneWinnerCtrie) {
  put_if_absent_one_winner<cachetrie::ctrie::Ctrie<int, int>>();
}

TEST(EdgeCases, SkipListSingleKeyInsertRemoveStorm) {
  cachetrie::csl::ConcurrentSkipList<int, std::uint64_t> list;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> anomalies{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 15000; ++i) {
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(w) << 32) |
            static_cast<std::uint32_t>(i);
        list.insert(7, tag);
        list.remove(7);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto v = list.lookup(7);
        if (v.has_value() && (*v >> 32) >= 4) anomalies.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(anomalies.load(), 0u);
  auto issues = list.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(EdgeCases, ForEachDuringConcurrentWritesIsSafe) {
  constexpr int kKeys = 30000;
  cachetrie::CacheTrie<int, int> trie;
  for (int k = 0; k < kKeys; ++k) trie.insert(k, k);
  // A key's version is odd from just before its removal until its
  // re-insert has returned; a key whose version is the same even value
  // before and after a traversal was present for all of it.
  std::vector<std::atomic<unsigned>> version(kKeys);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    cachetrie::util::XorShift64Star rng{5};
    while (!stop.load(std::memory_order_acquire)) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      version[k].fetch_add(1, std::memory_order_seq_cst);
      trie.remove(k);
      trie.insert(k, k);
      version[k].fetch_add(1, std::memory_order_seq_cst);
    }
  });
  // Stops and joins the writer on every exit, a failed ASSERT's included,
  // so a failure is reported instead of aborting the binary.
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& writer;
    ~Joiner() {
      stop.store(true, std::memory_order_release);
      writer.join();
    }
  } joiner{stop, writer};
  std::vector<unsigned> before(kKeys);
  std::vector<char> visited(kKeys);
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      before[k] = version[k].load(std::memory_order_seq_cst);
    }
    std::fill(visited.begin(), visited.end(), 0);
    std::size_t seen = 0;
    trie.for_each([&](const int& k, const int& v) {
      // Values are always key-consistent, even mid-churn.
      ASSERT_EQ(k, v);
      ASSERT_EQ(visited[k]++, 0) << "key " << k << " visited twice";
      ++seen;
    });
    // The traversal may miss a key the writer churned while it ran, never
    // one that was present throughout.
    for (int k = 0; k < kKeys; ++k) {
      const unsigned after = version[k].load(std::memory_order_seq_cst);
      if (after == before[k] && after % 2 == 0) {
        ASSERT_TRUE(visited[k]) << "key " << k << " present throughout";
      }
    }
    // At most one key is mid-flight at any time.
    ASSERT_GE(seen, 30000u - 4);
    ASSERT_LE(seen, 30000u);
  }
}

TEST(EdgeCases, MoveOnlyCallsAreNotRequired) {
  // Values must be copyable but keys/values needn't be default-constructible.
  struct NonDefault {
    explicit NonDefault(int x) : v(x) {}
    int v;
    bool operator==(const NonDefault& o) const { return v == o.v; }
  };
  cachetrie::CacheTrie<int, NonDefault> trie;
  trie.insert(1, NonDefault{10});
  const auto got = trie.lookup(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->v, 10);
}

TEST(EdgeCases, ZeroAndMaxKeys) {
  cachetrie::CacheTrie<std::uint64_t, int> trie;
  const std::uint64_t min_k = 0;
  const std::uint64_t max_k = ~std::uint64_t{0};
  EXPECT_TRUE(trie.insert(min_k, 1));
  EXPECT_TRUE(trie.insert(max_k, 2));
  EXPECT_EQ(trie.lookup(min_k).value(), 1);
  EXPECT_EQ(trie.lookup(max_k).value(), 2);
  EXPECT_TRUE(trie.remove(min_k).has_value());
  EXPECT_TRUE(trie.remove(max_k).has_value());
}

}  // namespace
