// cachetrie_concurrent_test.cpp — multi-threaded stress tests: lock-free
// insert/lookup/remove under contention, expansion/compression storms, and
// cache coherence under concurrent mutation.
//
// Note: the host may expose a single hardware thread; these tests still
// exercise concurrency through preemptive interleaving, which historically
// catches most lock-free protocol bugs (helping paths, lost-update races).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <set>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "mr/epoch.hpp"
#include "util/hashing.hpp"

namespace {

using cachetrie::CacheTrie;
using cachetrie::Config;

constexpr int kThreads = 8;

template <typename F>
void run_threads(int n, F body) {
  std::barrier start{n};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  }
  for (auto& th : threads) th.join();
}

TEST(CacheTrieConcurrent, DisjointInsertsAllPresent) {
  CacheTrie<int, int> trie;
  constexpr int kPerThread = 20000;
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int key = t * kPerThread + i;
      ASSERT_TRUE(trie.insert(key, key * 3));
    }
  });
  EXPECT_EQ(trie.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int k = 0; k < kThreads * kPerThread; ++k) {
    auto v = trie.lookup(k);
    ASSERT_TRUE(v.has_value()) << "missing key " << k;
    ASSERT_EQ(*v, k * 3);
  }
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieConcurrent, ContendedSameKeysInsert) {
  // The paper's Fig. 11 workload: every thread inserts the same keys in the
  // same order. Afterwards each key must exist exactly once with a value
  // some thread wrote.
  CacheTrie<int, int> trie;
  constexpr int kKeys = 20000;
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kKeys; ++i) {
      trie.insert(i, t * kKeys + i);
    }
  });
  EXPECT_EQ(trie.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    auto v = trie.lookup(i);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v % kKeys, i);  // value encodes (thread, key); key part must match
  }
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieConcurrent, PutIfAbsentHasExactlyOneWinnerPerKey) {
  CacheTrie<int, int> trie;
  constexpr int kKeys = 10000;
  std::atomic<int> wins{0};
  run_threads(kThreads, [&](int t) {
    int local_wins = 0;
    for (int i = 0; i < kKeys; ++i) {
      if (trie.put_if_absent(i, t)) ++local_wins;
    }
    wins.fetch_add(local_wins);
  });
  EXPECT_EQ(wins.load(), kKeys);
  // Each value must be the winning thread's id, stable thereafter.
  for (int i = 0; i < kKeys; ++i) {
    auto v = trie.lookup(i);
    ASSERT_TRUE(v.has_value());
    ASSERT_GE(*v, 0);
    ASSERT_LT(*v, kThreads);
  }
}

TEST(CacheTrieConcurrent, ConcurrentInsertAndLookup) {
  CacheTrie<int, int> trie;
  constexpr int kKeys = 30000;
  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> wrong_values{0};
  std::thread writer([&] {
    for (int i = 0; i < kKeys; ++i) trie.insert(i, i + 7);
    writer_done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        for (int i = 0; i < kKeys; i += 97) {
          auto v = trie.lookup(i);
          // A value, once visible, must be correct.
          if (v.has_value() && *v != i + 7) wrong_values.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(wrong_values.load(), 0u);
  for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(trie.contains(i));
}

TEST(CacheTrieConcurrent, ConcurrentRemoveDisjointRanges) {
  CacheTrie<int, int> trie;
  constexpr int kPerThread = 15000;
  for (int k = 0; k < kThreads * kPerThread; ++k) trie.insert(k, k);
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int key = t * kPerThread + i;
      auto removed = trie.remove(key);
      ASSERT_TRUE(removed.has_value()) << "key " << key;
      ASSERT_EQ(*removed, key);
    }
  });
  EXPECT_EQ(trie.size(), 0u);
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieConcurrent, ContendedRemoveExactlyOneWinner) {
  CacheTrie<int, int> trie;
  constexpr int kKeys = 10000;
  for (int k = 0; k < kKeys; ++k) trie.insert(k, k);
  std::atomic<int> removed_total{0};
  run_threads(kThreads, [&](int) {
    int local = 0;
    for (int k = 0; k < kKeys; ++k) {
      if (trie.remove(k).has_value()) ++local;
    }
    removed_total.fetch_add(local);
  });
  EXPECT_EQ(removed_total.load(), kKeys);
  EXPECT_EQ(trie.size(), 0u);
}

TEST(CacheTrieConcurrent, MixedChurnKeepsPerKeyIntegrity) {
  // Each thread owns a disjoint key range and churns it; at every moment a
  // foreign observer may read. At the end, each key's presence must match
  // the owner's bookkeeping exactly.
  CacheTrie<int, int> trie;
  constexpr int kPerThread = 2000;
  constexpr int kOps = 60000;
  std::vector<std::vector<bool>> present(kThreads,
                                         std::vector<bool>(kPerThread));
  run_threads(kThreads, [&](int t) {
    cachetrie::util::XorShift64Star rng{static_cast<std::uint64_t>(t) + 1};
    auto& mine = present[t];
    for (int op = 0; op < kOps; ++op) {
      const int idx = static_cast<int>(rng.next_below(kPerThread));
      const int key = t * kPerThread + idx;
      if (rng.next_below(2) == 0) {
        const bool was_new = trie.insert(key, key);
        ASSERT_EQ(was_new, !mine[idx]);
        mine[idx] = true;
      } else {
        const bool removed = trie.remove(key).has_value();
        ASSERT_EQ(removed, mine[idx]);
        mine[idx] = false;
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int key = t * kPerThread + i;
      ASSERT_EQ(trie.contains(key), present[t][i]) << "key " << key;
    }
  }
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieConcurrent, SingleKeyLinearizabilitySmoke) {
  // One hot key, many writers alternating insert/remove with tagged values,
  // readers verify they only ever see values some writer actually wrote.
  CacheTrie<int, std::uint64_t> trie;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> anomalies{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(w) << 32) | static_cast<std::uint32_t>(i);
        trie.insert(42, tag);
        trie.remove(42);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto v = trie.lookup(42);
        if (v.has_value() && (*v >> 32) >= 4) anomalies.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(anomalies.load(), 0u);
}

TEST(CacheTrieConcurrent, ExpansionStormUnderNarrowHash) {
  // A 16-bit hash crams all keys into few subtrees, forcing constant
  // narrow->wide expansions and deep LNode chains under contention.
  CacheTrie<int, int, cachetrie::util::DegradedHash<16>> trie;
  constexpr int kPerThread = 3000;
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int key = t * kPerThread + i;
      ASSERT_TRUE(trie.insert(key, key));
    }
  });
  EXPECT_EQ(trie.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_TRUE(trie.contains(k)) << "key " << k;
  }
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieConcurrent, CompressionStormInsertRemoveWaves) {
  CacheTrie<int, int, cachetrie::util::DegradedHash<20>> trie;
  constexpr int kPerThread = 2000;
  run_threads(kThreads, [&](int t) {
    for (int wave = 0; wave < 5; ++wave) {
      for (int i = 0; i < kPerThread; ++i) {
        trie.insert(t * kPerThread + i, i);
      }
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(trie.remove(t * kPerThread + i).has_value());
      }
    }
  });
  EXPECT_EQ(trie.size(), 0u);
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CacheTrieConcurrent, CacheStaysCoherentUnderChurn) {
  // Lookups warm the cache while writers replace and remove the very nodes
  // the cache points at; stale entries must never produce wrong answers.
  Config cfg;
  cfg.max_misses = 64;  // aggressive sampling/adjustment
  CacheTrie<int, int> trie(cfg);
  constexpr int kKeys = 50000;
  for (int k = 0; k < kKeys; ++k) trie.insert(k, 0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> anomalies{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      cachetrie::util::XorShift64Star rng{static_cast<std::uint64_t>(r) + 77};
      while (!stop.load(std::memory_order_acquire)) {
        const int k = static_cast<int>(rng.next_below(kKeys));
        auto v = trie.lookup(k);
        if (k < kKeys / 2) {
          // Lower half is never removed; it must always be present.
          if (!v.has_value()) anomalies.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 20; ++round) {
      for (int k = kKeys / 2; k < kKeys; ++k) trie.remove(k);
      for (int k = kKeys / 2; k < kKeys; ++k) trie.insert(k, round);
      for (int k = 0; k < kKeys / 2; ++k) trie.insert(k, round);  // replace
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_EQ(trie.size(), static_cast<std::size_t>(kKeys));
}

TEST(CacheTrieConcurrent, ReplaceIfEqualsCountsExactly) {
  // Classic lost-update test: concurrent increments through a CAS loop must
  // not lose a single one.
  CacheTrie<int, int> trie;
  trie.insert(0, 0);
  constexpr int kPerThread = 5000;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kPerThread; ++i) {
      while (true) {
        const int cur = trie.lookup(0).value();
        if (trie.replace_if_equals(0, cur, cur + 1)) break;
      }
    }
  });
  EXPECT_EQ(trie.lookup(0).value(), kThreads * kPerThread);
}

TEST(CacheTrieConcurrent, ReclamationActuallyFrees) {
  auto& dom = cachetrie::mr::EpochDomain::instance();
  const auto freed0 = dom.freed_count();
  const auto retired0 = dom.retired_count();
  {
    CacheTrie<int, int> trie;
    run_threads(4, [&](int t) {
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 5000; ++i) trie.insert(i, t);
        for (int i = 0; i < 5000; ++i) trie.remove(i);
      }
    });
  }
  EXPECT_GT(dom.retired_count(), retired0);
  dom.drain_for_testing();
  EXPECT_GT(dom.freed_count(), freed0);
  // After a quiescent drain nothing may remain in limbo, process-wide.
  EXPECT_EQ(dom.retired_count(), dom.freed_count());
}

}  // namespace
