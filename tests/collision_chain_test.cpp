// collision_chain_test — LNode chains under forced full-hash collisions.
//
// A hash functor that maps every key to one constant drives all keys down
// the same slot path until the trie bottoms out into LNode collision
// chains (§3.2's list nodes). These tests exercise chain insert, in-chain
// replacement, chain shrink on remove, and the chain under concurrent
// insert/remove churn, checking structural invariants via debug_validate().
// The HashFreeLeaves tests run the same paths on u64 keys, whose leaves
// store no hash: every chain, expansion copy, subtree and compression is
// built from hashes the trie recomputes from resident keys.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "util/hashing.hpp"

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

// --- hash-free leaves: u64 keys, whose SNodes store no hash ----------------

static_assert(!cachetrie::detail::kLeafStoresHash<std::uint64_t>);

template <typename Trie>
void expect_valid(const Trie& trie, const char* when) {
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << when << ": " << issues.front();
}

TEST(HashFreeLeaves, DegradedHashZeroChainsFromRehashedLeaves) {
  // DegradedHash<0> maps every key to 0: the second insert turns the
  // root's leaf into a chain (create_subtree compares the leaf's rehashed
  // key against the new hash), removals shrink it back to one leaf, and the
  // last removal empties the slot.
  using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                                    cachetrie::util::DegradedHash<0>>;
  Trie trie;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(trie.insert(7, 70));
    EXPECT_EQ(trie.level_histogram().counts[1], 1u);
    for (std::uint64_t k = 100; k < 140; ++k) ASSERT_TRUE(trie.insert(k, k));
    EXPECT_EQ(trie.level_histogram().counts[1], 41u) << "not one chain";
    EXPECT_FALSE(trie.insert(7, 71));  // in-chain replace
    expect_valid(trie, "after the chain grew");
    for (std::uint64_t k = 100; k < 140; ++k) {
      ASSERT_EQ(trie.remove(k), std::optional<std::uint64_t>(k));
    }
    // One pair left: the chain collapsed to a leaf, rebuilt from it.
    EXPECT_EQ(trie.lookup(7), std::optional<std::uint64_t>(71));
    EXPECT_EQ(trie.size(), 1u);
    expect_valid(trie, "after the chain collapsed");
    ASSERT_TRUE(trie.remove(7).has_value());
    EXPECT_TRUE(trie.empty());
  }
}

TEST(HashFreeLeaves, IdentityHashExpandAndCompress) {
  // IdentityHash puts key k on the path of its own nibbles. Keys i << 12
  // share three zero nibbles, so their leaves sit at level 16 or deeper,
  // deep enough to make the cache. Keys (i << 12) | 0x100 part from them
  // at level 8. Each group first shares a narrow node at level 12 (its
  // keys two bits apart), which expands when the fifth key lands on a
  // taken 2-bit slot; the expansion copies leaves to the slots of their
  // recomputed hashes. Removing the keys in reverse compresses the deep
  // nodes away and hoists the last leaf of each.
  using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                                    cachetrie::util::IdentityHash>;
  namespace sites = cachetrie::obs::sites;
  const std::uint64_t expands0 = sites::cachetrie_expand.total();
  const std::uint64_t compresses0 = sites::cachetrie_compress.total();
  Trie trie;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 1; i <= 16; ++i) keys.push_back(i << 12);
  for (std::uint64_t i = 1; i <= 16; ++i) keys.push_back((i << 12) | 0x100);
  for (std::uint64_t k : keys) ASSERT_TRUE(trie.insert(k, k + 1));
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t k : keys) {
      ASSERT_EQ(trie.lookup(k), std::optional<std::uint64_t>(k + 1)) << k;
    }
  }
  EXPECT_GE(trie.cache_level(), 0) << "the deep leaves made no cache";
  expect_valid(trie, "after the inserts");
  EXPECT_EQ(trie.size(), keys.size());
  for (std::size_t n = keys.size(); n > 0; --n) {
    ASSERT_EQ(trie.remove(keys[n - 1]),
              std::optional<std::uint64_t>(keys[n - 1] + 1));
    if (n == 17) expect_valid(trie, "after the second group left");
  }
  EXPECT_TRUE(trie.empty());
  expect_valid(trie, "after every removal");
  if (cachetrie::obs::kMetricsCompiled) {
    EXPECT_GT(sites::cachetrie_expand.total(), expands0);
    EXPECT_GT(sites::cachetrie_compress.total(), compresses0);
  }
  for (std::uint64_t k : keys) ASSERT_TRUE(trie.insert(k, k));
  expect_valid(trie, "after the reinsert");
  EXPECT_EQ(trie.size(), keys.size());
}

TEST(HashFreeLeaves, ConcurrentChurnUnderFewHashBits) {
  // DegradedHash<3>: eight hash values for 64 keys, so every slot holds a
  // chain or a leaf that turns into one, under four threads of churn.
  using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                                    cachetrie::util::DegradedHash<3>>;
  Trie trie;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trie, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kPerThread;
      for (int r = 0; r < 200; ++r) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(trie.insert(base + i, r));
        }
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          ASSERT_EQ(trie.lookup(base + i), std::optional<std::uint64_t>(r));
        }
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          if (r == 199 && i % 2 == 0) continue;  // the survivors
          ASSERT_TRUE(trie.remove(base + i).has_value());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  expect_valid(trie, "after the churn");
  for (std::uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    EXPECT_EQ(trie.lookup(k).has_value(), k % 2 == 0) << "key " << k;
  }
}

}  // namespace
