// eviction_fault_test.cpp — the bounded mode under injected faults.
//
// The design claim under test: there is no eviction thread to lose. Ceiling
// enforcement is run by *every* writer (maybe_backpressure), so killing the
// one thread that happens to be mid-scan must neither unbound the footprint
// nor stall survivors. Plus two deterministic regressions for the
// value-compare-after-announce window of remove_if_equals/evict (the audit
// in DESIGN.md §3: the compare is revalidated because the txn CAS fails if
// anything replaced the pair after the compare), and a randomized stall
// storm over the new eviction chaos sites that must leave the structure
// valid and the byte ledger exact.
//
// Labeled `fault` (RUN_SERIAL): the watchdog asserts per-tick survivor
// progress, which sharing the machine would starve.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "mr/epoch.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"
#include "testkit/watchdog.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
namespace sites = cachetrie::obs::sites;
using cachetrie::mr::EpochDomain;
using namespace std::chrono_literals;

using Bounded =
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;

// Eviction counts are deltas of the registry's cachetrie.evict.* site
// counters. With metrics compiled out every counter reads 0, so those
// checks run only when kCounted.
constexpr bool kCounted = cachetrie::obs::kMetricsCompiled;

cachetrie::Config ceiling_config(std::size_t ceiling) {
  cachetrie::Config cfg;
  cfg.ceiling_bytes = ceiling;
  cfg.ttl_ticks = 0;  // pure LRU-pressure mode
  return cfg;
}

TEST(EvictionFault, DeadEvictorCeilingHolds) {
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();
  // The parked victim pins its epoch, so survivor garbage parks in limbo;
  // cap it so the PR-2 stall fallback keeps *that* bounded too — this test
  // measures the resident (published-minus-retired) footprint.
  dom.set_limbo_cap_bytes(4u << 20);
  dom.set_stall_lag_epochs(8);

  constexpr std::size_t kCeiling = 256u << 10;  // 256 KiB
  tk::chaos::set_global_seed(21);
  tk::chaos::enable(true);
  // The first thread to run an over-ceiling backpressure scan dies inside
  // it. If enforcement were delegated to a dedicated evictor, this kill
  // would unbound the footprint.
  fault::install(fault::Plan(21).die("cachetrie.evict_scan", /*thread=*/0));

  Bounded trie(ceiling_config(kCeiling));
  const std::uint64_t lru0 = sites::cachetrie_evict_lru.total();
  const std::uint64_t scans0 = sites::cachetrie_evict_backpressure.total();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> survivor_ops{0};
  std::atomic<bool> victim_killed{false};

  std::thread victim([&] {
    tk::chaos::bind_thread(0);
    try {
      // Fill past the ceiling: the insert that first observes
      // resident > ceiling enters evict_scan and is killed there.
      for (std::uint64_t i = 0; i < 200000; ++i) {
        trie.insert(0xdead000000ull + i, i);
      }
      ADD_FAILURE() << "victim never entered a backpressure scan";
    } catch (const fault::ThreadKilled&) {
      victim_killed.store(true, std::memory_order_release);
    }
  });

  const auto park_deadline = std::chrono::steady_clock::now() + 30s;
  while (fault::parked_now() == 0 &&
         std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::parked_now(), 1u) << "victim never reached evict_scan";

  // Survivors churn a stream of fresh keys many times the ceiling while the
  // evictor-of-record is dead mid-scan.
  std::vector<std::thread> churners;
  for (std::uint64_t t = 1; t <= 4; ++t) {
    churners.emplace_back([&, t] {
      tk::chaos::bind_thread(t);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        trie.insert(t * 100000000ull + i, i);
        ++i;
        survivor_ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  tk::ProgressWatchdog watchdog(survivor_ops, 250ms);
  watchdog.start();

  std::size_t hwm = 0;
  const auto end = std::chrono::steady_clock::now() + 1700ms;
  while (std::chrono::steady_clock::now() < end) {
    hwm = std::max(hwm, trie.resident_bytes());
    std::this_thread::sleep_for(1ms);
  }

  watchdog.stop();
  stop.store(true, std::memory_order_release);
  for (auto& c : churners) c.join();

  const std::uint64_t lru = sites::cachetrie_evict_lru.total() - lru0;
  const std::uint64_t scans =
      sites::cachetrie_evict_backpressure.total() - scans0;
  const std::uint64_t ops = survivor_ops.load(std::memory_order_relaxed);
  // (a) The ceiling held as observed footprint: the high-water mark stays
  // within the cap plus a slack of in-flight per-writer overshoot.
  EXPECT_LT(hwm, kCeiling + kCeiling / 2)
      << "resident bytes escaped the ceiling with the evictor dead "
      << "(ops=" << ops << ", scans=" << scans << ")";
  // (b) Enforcement really ran, from the surviving writers.
  if (kCounted) {
    EXPECT_GT(scans, 0u);
    EXPECT_GT(lru, 0u);
  }
  // (c) Lock-freedom held: survivors completed work in every tick.
  EXPECT_GE(watchdog.ticks(), 4u);
  EXPECT_EQ(watchdog.violations(), 0u)
      << "a watchdog tick saw zero completed survivor ops";
  EXPECT_GT(ops, 0u);

  fault::clear();  // victim unwinds via ThreadKilled
  victim.join();
  EXPECT_TRUE(victim_killed.load(std::memory_order_acquire));
  tk::chaos::enable(false);
  dom.set_limbo_cap_bytes(EpochDomain::kNoLimboCap);
  dom.set_stall_lag_epochs(EpochDomain::kDefaultStallLagEpochs);
}

TEST(EvictionFault, RemoveIfEqualsRevalidatesAfterCompare) {
  // Regression for the value-compare window (satellite audit): the remover
  // compares the value, then parks *before* its txn announcement; a racer
  // replaces the value in that window. The remover's announce CAS must fail
  // (the racer's replacement won the txn word), forcing a re-read that sees
  // the new value — remove_if_equals(k, old) returns false and the new pair
  // survives. A stale "true" here would be the linearization bug the audit
  // looked for.
  tk::chaos::set_global_seed(33);
  tk::chaos::enable(true);
  fault::install(
      fault::Plan(33).stall("cachetrie.txn_announce", fault::kForever,
                            /*thread=*/0));

  cachetrie::CacheTrie<std::uint64_t, std::uint64_t> trie;
  ASSERT_TRUE(trie.insert(42, 1));

  std::atomic<bool> victim_result{true};
  std::thread victim([&] {
    tk::chaos::bind_thread(0);
    victim_result.store(trie.remove_if_equals(42, 1),
                        std::memory_order_release);
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::parked_now() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::parked_now(), 1u) << "victim never reached the announce";

  tk::chaos::bind_thread(1);
  EXPECT_TRUE(trie.replace(42, 2));  // lands inside the victim's window

  fault::clear();
  victim.join();
  EXPECT_FALSE(victim_result.load(std::memory_order_acquire))
      << "remove_if_equals removed a pair whose value it never saw";
  EXPECT_EQ(trie.lookup(42), std::optional<std::uint64_t>(2));
  tk::chaos::enable(false);
}

TEST(EvictionFault, EvictRacingRemoveHasOneWinner) {
  // evict() is a linearizable remove: racing it against remove() on the
  // same key yields exactly one winner, and only a *successful* eviction
  // moves the eviction counters. Both directions, deterministically.
  cachetrie::Config cfg;
  cfg.ttl_ticks = 1ull << 40;  // bounded mode on, horizons inert
  Bounded trie(cfg);
  const std::uint64_t lru0 = sites::cachetrie_evict_lru.total();

  tk::chaos::set_global_seed(34);
  tk::chaos::enable(true);

  {  // evict stalls, remove wins
    ASSERT_TRUE(trie.insert(99, 7));
    fault::install(
        fault::Plan(34).stall("cachetrie.txn_announce", fault::kForever,
                              /*thread=*/0));
    std::optional<std::uint64_t> evicted;
    std::thread victim([&] {
      tk::chaos::bind_thread(0);
      evicted = trie.evict(99);
    });
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (fault::parked_now() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(fault::parked_now(), 1u);
    tk::chaos::bind_thread(1);
    EXPECT_EQ(trie.remove(99), std::optional<std::uint64_t>(7));
    fault::clear();
    victim.join();
    EXPECT_EQ(evicted, std::nullopt);
    if (kCounted) {
      EXPECT_EQ(sites::cachetrie_evict_lru.total() - lru0, 0u)
          << "a failed eviction must not count";
    }
  }

  {  // remove stalls, evict wins
    ASSERT_TRUE(trie.insert(99, 8));
    fault::install(
        fault::Plan(35).stall("cachetrie.txn_announce", fault::kForever,
                              /*thread=*/0));
    std::optional<std::uint64_t> removed;
    std::thread victim([&] {
      tk::chaos::bind_thread(0);
      removed = trie.remove(99);
    });
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (fault::parked_now() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(fault::parked_now(), 1u);
    tk::chaos::bind_thread(1);
    EXPECT_EQ(trie.evict(99), std::optional<std::uint64_t>(8));
    fault::clear();
    victim.join();
    EXPECT_EQ(removed, std::nullopt);
    if (kCounted) {
      EXPECT_EQ(sites::cachetrie_evict_lru.total() - lru0, 1u);
    }
  }
  tk::chaos::enable(false);
}

TEST(EvictionFault, StallStormLeavesStructureValidAndLedgerExact) {
  // Randomized finite stalls at every eviction chaos site (plus the txn
  // sites they race), four churn threads, ceiling pressure on. Afterwards
  // the trie must pass the structural validator and the double-entry byte
  // ledger must equal a footprint walk — any publish/retire path that
  // miscounts under the perturbed schedules shows up here.
  static const char* const kSites[] = {
      "cachetrie.evict_announce", "cachetrie.evict_commit",
      "cachetrie.evict_scan",     "cachetrie.txn_announce",
      "cachetrie.txn_commit",
  };
  tk::chaos::set_global_seed(55);
  tk::chaos::enable(true);
  fault::install(fault::Plan::randomized(55, kSites, std::size(kSites),
                                         /*n_victims=*/4, 1us, 200us));

  Bounded trie(ceiling_config(128u << 10));
  const std::uint64_t lru0 = sites::cachetrie_evict_lru.total();
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      tk::chaos::bind_thread(t);
      try {
        for (std::uint64_t i = 0; i < 20000; ++i) {
          const std::uint64_t k = t * 1000000ull + i;
          trie.insert(k, i);
          if (i % 3 == 0) trie.lookup(k - (i % 64));
          if (i % 5 == 0) trie.remove(k - (i % 32));
        }
      } catch (const fault::ThreadKilled&) {
        // Tolerated: the resume fence may convert a stall into a death if
        // a concurrent sweep declared us; survivors carry the assertions.
      }
    });
  }
  for (auto& w : workers) w.join();
  fault::clear();
  tk::chaos::enable(false);

  EXPECT_GT(fault::injected_stalls(), 0u) << "the storm never engaged";
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  EXPECT_EQ(trie.resident_bytes(),
            trie.footprint_bytes() - sizeof(Bounded))
      << "byte ledger diverged from the live structure";
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_evict_lru.total() - lru0, 0u);
  }
}

}  // namespace
