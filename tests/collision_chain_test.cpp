// collision_chain_test — LNode chains under forced full-hash collisions.
//
// A hash functor that maps every key to one constant drives all keys down
// the same slot path until the trie bottoms out into LNode collision
// chains (§3.2's list nodes). These tests exercise chain insert, in-chain
// replacement, chain shrink on remove, and the chain under concurrent
// insert/remove churn, checking structural invariants via debug_validate().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "testkit/chaos.hpp"

namespace {

#ifndef CACHETRIE_TESTKIT
// This target builds without the testkit: the chaos hooks compiled into
// the structures must be constexpr no-ops (the zero-overhead contract).
static_assert(!cachetrie::testkit::kChaosCompiled);
using cachetrie::testkit::Site;
constexpr bool chaos_is_free =
    (cachetrie::testkit::chaos_point(Site::cachetrie_pinned), true);
static_assert(chaos_is_free);
#endif

/// Every key hashes to the same value: maximal collisions, pure LNode load.
struct CollideAllHash {
  std::uint64_t operator()(const std::uint64_t&) const noexcept {
    return 0x5a5a5a5a5a5a5a5aULL;
  }
};

using CollidingTrie =
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t, CollideAllHash>;

TEST(CollisionChain, SequentialInsertLookupRemove) {
  CollidingTrie trie;
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(trie.insert(k, k * 10));
  }
  {
    auto issues = trie.debug_validate();
    EXPECT_TRUE(issues.empty()) << issues.front();
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    auto v = trie.lookup(k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, k * 10);
  }
  // Remove the odd keys; the chain must shrink without losing the rest.
  for (std::uint64_t k = 1; k < kKeys; k += 2) {
    auto v = trie.remove(k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, k * 10);
  }
  {
    auto issues = trie.debug_validate();
    EXPECT_TRUE(issues.empty()) << issues.front();
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(trie.lookup(k).has_value(), k % 2 == 0) << "key " << k;
  }
}

TEST(CollisionChain, ConditionalOpsInsideTheChain) {
  CollidingTrie trie;
  for (std::uint64_t k = 0; k < 8; ++k) trie.insert(k, 1);

  EXPECT_FALSE(trie.put_if_absent(3, 2));       // present -> no-op
  EXPECT_EQ(trie.lookup(3), std::optional<std::uint64_t>(1));
  EXPECT_TRUE(trie.put_if_absent(100, 7));      // absent -> chain grows
  EXPECT_TRUE(trie.replace(5, 9));
  EXPECT_EQ(trie.lookup(5), std::optional<std::uint64_t>(9));
  EXPECT_FALSE(trie.replace(200, 9));           // absent -> no-op
  EXPECT_TRUE(trie.replace_if_equals(5, 9, 11));
  EXPECT_FALSE(trie.replace_if_equals(5, 9, 13));  // stale comparand
  EXPECT_EQ(trie.lookup(5), std::optional<std::uint64_t>(11));
  EXPECT_TRUE(trie.remove_if_equals(5, 11));
  EXPECT_FALSE(trie.lookup(5).has_value());
  {
    auto issues = trie.debug_validate();
    EXPECT_TRUE(issues.empty()) << issues.front();
  }
}

TEST(CollisionChain, ReinsertAfterChainDrain) {
  // Drain the chain completely (compression kicks in), then rebuild it.
  CollidingTrie trie;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t k = 0; k < 16; ++k) EXPECT_TRUE(trie.insert(k, k));
    for (std::uint64_t k = 0; k < 16; ++k) {
      EXPECT_TRUE(trie.remove(k).has_value());
    }
    {
    auto issues = trie.debug_validate();
    EXPECT_TRUE(issues.empty()) << issues.front();
  }
  }
  EXPECT_FALSE(trie.lookup(0).has_value());
}

TEST(CollisionChain, ConcurrentDisjointChurnKeepsChainConsistent) {
  // Each thread owns a disjoint key stripe but every key collides into the
  // same chain, so all structural updates contend on the same LNode list.
  CollidingTrie trie;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 32;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trie, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kPerThread;
      for (int r = 0; r < kRounds; ++r) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(trie.insert(base + i, base + i + r));
        }
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          auto v = trie.lookup(base + i);
          ASSERT_TRUE(v.has_value());
          ASSERT_EQ(*v, base + i + r);
        }
        // Leave the even keys of the final round in place.
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          if (r == kRounds - 1 && i % 2 == 0) continue;
          ASSERT_TRUE(trie.remove(base + i).has_value());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  {
    auto issues = trie.debug_validate();
    EXPECT_TRUE(issues.empty()) << issues.front();
  }
  for (std::uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    EXPECT_EQ(trie.lookup(k).has_value(), k % 2 == 0) << "key " << k;
  }
}

TEST(CollisionChain, ConcurrentSharedKeyRaceLosesNothing) {
  // All threads fight over the same small colliding key set; per-key
  // success counts must balance (inserts - removes == final presence).
  CollidingTrie trie;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<std::int64_t> balance[kKeys] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        const std::uint64_t k = x % kKeys;
        if ((x >> 32) & 1) {
          if (trie.put_if_absent(k, t)) {
            balance[k].fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (trie.remove(k).has_value()) {
            balance[k].fetch_sub(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  {
    auto issues = trie.debug_validate();
    EXPECT_TRUE(issues.empty()) << issues.front();
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::int64_t b = balance[k].load(std::memory_order_relaxed);
    ASSERT_TRUE(b == 0 || b == 1) << "key " << k << " balance " << b;
    EXPECT_EQ(trie.lookup(k).has_value(), b == 1) << "key " << k;
  }
}

}  // namespace
