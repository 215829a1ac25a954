// ctrie_test.cpp — functional, invariant and concurrency tests for the
// Ctrie baseline (I-node trie with entomb/contract removal).
#include <gtest/gtest.h>

#include <barrier>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ctrie/ctrie.hpp"
#include "util/rng.hpp"

namespace {

using cachetrie::ctrie::Ctrie;

TEST(Ctrie, EmptyLookups) {
  Ctrie<int, int> map;
  EXPECT_FALSE(map.lookup(1).has_value());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.remove(1).has_value());
}

TEST(Ctrie, InsertLookupRemoveRoundTrip) {
  Ctrie<int, std::string> map;
  EXPECT_TRUE(map.insert(1, "one"));
  EXPECT_TRUE(map.insert(2, "two"));
  EXPECT_FALSE(map.insert(1, "uno"));  // replace
  EXPECT_EQ(map.lookup(1).value(), "uno");
  EXPECT_EQ(map.lookup(2).value(), "two");
  auto removed = map.remove(1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, "uno");
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.size(), 1u);
}

TEST(Ctrie, PutIfAbsent) {
  Ctrie<int, int> map;
  EXPECT_TRUE(map.put_if_absent(1, 10));
  EXPECT_FALSE(map.put_if_absent(1, 11));
  EXPECT_EQ(map.lookup(1).value(), 10);
}

TEST(Ctrie, PutIfAbsentOnCollisionChain) {
  Ctrie<int, int, cachetrie::util::DegradedHash<0>> map;
  map.insert(1, 10);
  map.insert(2, 20);
  EXPECT_FALSE(map.put_if_absent(1, 99));
  EXPECT_TRUE(map.put_if_absent(3, 30));
  EXPECT_EQ(map.lookup(1).value(), 10);
  EXPECT_EQ(map.lookup(3).value(), 30);
}

TEST(CtrieConcurrent, PutIfAbsentOneWinner) {
  Ctrie<int, int> map;
  constexpr int kThreads = 8;
  constexpr int kKeys = 5000;
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
  EXPECT_EQ(wins.load(), kKeys);
}

TEST(Ctrie, ManyKeys) {
  Ctrie<int, int> map;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(map.insert(i, i * 2));
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    auto v = map.lookup(i);
    ASSERT_TRUE(v.has_value()) << i;
    ASSERT_EQ(*v, i * 2);
  }
  auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(Ctrie, RemoveAllContractsTrie) {
  Ctrie<int, int> map;
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i) map.insert(i, i);
  for (int i = 0; i < kN; ++i) {
    auto removed = map.remove(i);
    ASSERT_TRUE(removed.has_value()) << i;
  }
  EXPECT_EQ(map.size(), 0u);
  auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  // After full removal the trie must have contracted: footprint back to a
  // near-empty structure.
  EXPECT_LT(map.footprint_bytes(), 4096u);
}

TEST(Ctrie, MixedChurnMatchesReference) {
  Ctrie<std::uint64_t, std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> ref;
  cachetrie::util::XorShift64Star rng{4242};
  for (int step = 0; step < 150000; ++step) {
    const std::uint64_t key = rng.next_below(4000);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const bool was_new = map.insert(key, step);
        ASSERT_EQ(was_new, ref.find(key) == ref.end());
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
        const auto it = ref.find(key);
        ASSERT_EQ(removed.has_value(), it != ref.end());
        if (it != ref.end()) ref.erase(it);
        break;
      }
    }
  }
  EXPECT_EQ(map.size(), ref.size());
  auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(Ctrie, FullHashCollisionsUseChains) {
  Ctrie<int, int, cachetrie::util::DegradedHash<0>> map;  // all hashes == 0
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(map.insert(i, i + 1));
  EXPECT_EQ(map.size(), 100u);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(map.lookup(i).value(), i + 1);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(map.remove(i).has_value());
  EXPECT_EQ(map.size(), 0u);
}

TEST(Ctrie, ChainFootprintIsEveryNodesClassBytes) {
  // Every key hashes to 0: the root INode's CNode holds one INode whose
  // main is the whole chain. The footprint walk charges exactly those
  // nodes, each at its pool class.
  using cachetrie::mr::NodePool;
  namespace d = cachetrie::ctrie::detail;
  using Map = Ctrie<std::uint64_t, std::uint64_t,
                    cachetrie::util::DegradedHash<0>>;
  using Link = d::LNode<std::uint64_t, std::uint64_t>;
  constexpr std::size_t kN = 7;
  Map map;
  for (std::uint64_t k = 0; k < kN; ++k) ASSERT_TRUE(map.insert(k, k));
  const std::size_t inode = NodePool::class_bytes(sizeof(d::INode),
                                                  alignof(d::INode));
  const std::size_t root_cnode = NodePool::class_bytes(
      d::CNode::alloc_size(1), alignof(d::CNode));
  const std::size_t link = NodePool::class_bytes(sizeof(Link), alignof(Link));
  EXPECT_EQ(map.footprint_bytes(),
            sizeof(Map) + inode + root_cnode + inode + kN * link);
  EXPECT_EQ(map.size(), kN);
}

TEST(Ctrie, DegradedHashDeepPaths) {
  Ctrie<int, int, cachetrie::util::DegradedHash<12>> map;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(map.insert(i, i));
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(map.contains(i));
  for (int i = 0; i < kN; i += 2) ASSERT_TRUE(map.remove(i).has_value());
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(map.contains(i), i % 2 == 1) << i;
  }
  auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CtrieConcurrent, DisjointInserts) {
  Ctrie<int, int> map;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 15000;
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
  auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CtrieConcurrent, ContendedInsertRemoveChurn) {
  Ctrie<int, int> map;
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
      cachetrie::util::XorShift64Star rng{static_cast<std::uint64_t>(t) + 9};
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
  auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(CtrieConcurrent, RemoveContractionUnderContention) {
  // Heavy simultaneous removals on narrow hash space force entomb/contract
  // races (the clean/cleanParent paths).
  Ctrie<int, int, cachetrie::util::DegradedHash<14>> map;
  constexpr int kThreads = 8;
  constexpr int kKeys = 8000;
  for (int k = 0; k < kKeys; ++k) map.insert(k, k);
  std::atomic<int> removed{0};
  std::barrier start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      int local = 0;
      for (int k = 0; k < kKeys; ++k) {
        if (map.remove(k).has_value()) ++local;
      }
      removed.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(removed.load(), kKeys);
  EXPECT_EQ(map.size(), 0u);
  auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

}  // namespace
