// obs_chaos_test.cpp — the observability layer under seeded schedule
// perturbation (TESTKIT build): retry/help counters must stay monotone
// while chaos storms force the slow paths, no recording may be lost when
// worker threads exit, and snapshot totals must balance per-op invariants
// (successful inserts minus removes == final size on a fresh trie).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "obs/sites.hpp"
#include "obs/metrics.hpp"
#include "testkit/chaos.hpp"

namespace obs = cachetrie::obs;
namespace chaos = cachetrie::testkit::chaos;

namespace {

constexpr std::uint64_t kSeeds[] = {11, 42, 1234};

class ObsChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kMetricsCompiled) {
      GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
    }
    chaos::enable(false);
  }
  void TearDown() override { chaos::enable(false); }
};

// Counters the storm below is expected to exercise; each must never be
// observed decreasing while worker threads hammer the structures.
const char* const kMonotoneCounters[] = {
    "cachetrie.txn.retry",    "cachetrie.cache.hit",
    "cachetrie.cache.miss",   "cachetrie.op.insert_new",
    "cachetrie.op.remove",    "chm.bin_lock",
    "ctrie.gcas.retry",       "csl.help_mark",
};

TEST_F(ObsChaosTest, CountersAreMonotoneUnderPerturbation) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    obs::registry().reset();  // single-threaded: totals start exact at 0
    chaos::set_global_seed(seed);
    chaos::enable(true);

    constexpr int kWorkers = 4;
    constexpr std::uint64_t kOpsPerWorker = 4000;
    std::atomic<bool> done{false};
    std::atomic<bool> violation{false};

    // The monitor races real recorders on purpose: each striped counter is
    // monotone per stripe, so any merged total it reads twice must be
    // non-decreasing regardless of the interleaving.
    std::thread monitor{[&] {
      std::uint64_t last[std::size(kMonotoneCounters)] = {};
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = obs::registry().snapshot();
        for (std::size_t i = 0; i < std::size(kMonotoneCounters); ++i) {
          const std::uint64_t now = snap.counter_value(kMonotoneCounters[i]);
          if (now < last[i]) violation.store(true);
          last[i] = now;
        }
        std::this_thread::yield();
      }
    }};

    {
      cachetrie::CacheTrie<std::uint64_t, std::uint64_t> trie;
      cachetrie::chm::ConcurrentHashMap<std::uint64_t, std::uint64_t> chm;
      std::vector<std::thread> team;
      team.reserve(kWorkers);
      for (int w = 0; w < kWorkers; ++w) {
        team.emplace_back([&, w] {
          chaos::bind_thread(static_cast<std::uint64_t>(w));
          // Overlapping key range across workers -> contended slow paths.
          for (std::uint64_t i = 0; i < kOpsPerWorker; ++i) {
            const std::uint64_t k = i % 512;
            trie.insert(k, i);
            (void)trie.lookup(k);
            if ((i & 3) == 0) (void)trie.remove(k);
            chm.insert(k, i);
          }
        });
      }
      for (auto& th : team) th.join();
    }

    done.store(true, std::memory_order_release);
    monitor.join();
    chaos::enable(false);
    EXPECT_FALSE(violation.load()) << "a merged counter total decreased";

    // The storm's contended inserts must actually have exercised the
    // instrumented paths (deterministic: every worker inserts and locks).
    const auto snap = obs::registry().snapshot();
    EXPECT_GT(snap.counter_value("cachetrie.op.insert_new"), 0u);
    EXPECT_GT(snap.counter_value("chm.bin_lock"), 0u);
  }
}

TEST_F(ObsChaosTest, InsertMinusRemoveEqualsFinalSize) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    obs::registry().reset();
    chaos::set_global_seed(seed);
    chaos::enable(true);

    constexpr int kWorkers = 4;
    constexpr std::uint64_t kKeys = 2048;
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t> trie;
    {
      std::vector<std::thread> team;
      team.reserve(kWorkers);
      for (int w = 0; w < kWorkers; ++w) {
        team.emplace_back([&, w] {
          chaos::bind_thread(static_cast<std::uint64_t>(w));
          // All workers fight over the same keys; some inserts land as
          // replaces, some removes miss — only the *successful* ones bump
          // their counters, which is exactly what the balance checks.
          for (std::uint64_t i = 0; i < kKeys; ++i) {
            const std::uint64_t k = (i * 7 + static_cast<std::uint64_t>(w)) %
                                    kKeys;
            trie.insert(k, i);
            if ((k & 7) == static_cast<std::uint64_t>(w & 7)) {
              (void)trie.remove(k);
            }
          }
        });
      }
      for (auto& th : team) th.join();
    }
    chaos::enable(false);

    // Workers have exited; their stripes persist in the registry, so the
    // totals below include every completed op (nothing lost at exit).
    const auto snap = obs::registry().snapshot();
    const std::uint64_t inserted =
        snap.counter_value("cachetrie.op.insert_new");
    const std::uint64_t removed = snap.counter_value("cachetrie.op.remove");
    ASSERT_GE(inserted, removed);
    std::size_t size = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      if (trie.lookup(k).has_value()) ++size;
    }
    EXPECT_EQ(inserted - removed, size);
  }
}

TEST_F(ObsChaosTest, RecordingsSurviveThreadExit) {
  obs::registry().reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  obs::Counter c{"test.obs_chaos.exit"};
  {
    std::vector<std::thread> team;
    team.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      team.emplace_back([&c] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
      });
    }
    for (auto& th : team) th.join();
  }
  // Every recorder thread is gone; the striped cells are registry-owned,
  // not thread-local, so the total is still exact.
  EXPECT_EQ(obs::registry().snapshot().counter_value("test.obs_chaos.exit"),
            kThreads * kPerThread);
}

}  // namespace
