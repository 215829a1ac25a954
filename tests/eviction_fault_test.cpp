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
// EvictionLedger.ProcessGaugeSumsLiveBoundedTries checks that the
// process-wide gauge sums the live bounded tries. The byte ledger on every
// forced lost race is a column of tests/lost_race_matrix_test.cpp.
//
// Labeled `fault` (RUN_SERIAL): the watchdog asserts per-tick survivor
// progress, which sharing the machine would starve.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "cachetrie/evict.hpp"
#include "mr/epoch.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"
#include "testkit/watchdog.hpp"
#include "util/hashing.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using tk::Site;
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
  // The parked victim pins its epoch, so survivor garbage stays in limbo
  // until it unwinds; this test measures the resident (published-minus-
  // retired) footprint, which limbo is not part of.
  EpochDomain::instance().drain_for_testing();

  constexpr std::size_t kCeiling = 256u << 10;  // 256 KiB
  tk::chaos::set_global_seed(21);
  tk::chaos::enable(true);
  // The first thread to run an over-ceiling backpressure scan dies inside
  // it. If enforcement were delegated to a dedicated evictor, this kill
  // would unbound the footprint.
  fault::install(fault::Plan(21).die(Site::cachetrie_evict_scan, /*thread=*/0));

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
}

TEST(EvictionFault, BoundedChmCeilingHolds) {
  // The baseline's counterpart of DeadEvictorCeilingHolds, with every
  // writer alive: four threads insert fresh keys worth ~10x the ceiling,
  // and each write's backpressure sweep keeps the derived footprint
  // estimate near the ceiling.
  using Chm = cachetrie::evict::BoundedChm<std::uint64_t, std::uint64_t>;
  constexpr std::size_t kCeiling = 256u << 10;  // 256 KiB
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread =
      10 * kCeiling / Chm::Map::kNodeBytes / kThreads;

  Chm map(ceiling_config(kCeiling));
  const std::uint64_t lru0 = sites::cachetrie_evict_lru.total();
  std::atomic<std::uint64_t> running{kThreads};
  std::vector<std::thread> churners;
  for (std::uint64_t t = 1; t <= kThreads; ++t) {
    churners.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        map.insert(t * 100000000ull + i, i);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::size_t hwm = 0;
  while (running.load(std::memory_order_acquire) != 0) {
    hwm = std::max(hwm, map.resident_bytes());
    std::this_thread::sleep_for(1ms);
  }
  for (auto& c : churners) c.join();
  hwm = std::max(hwm, map.resident_bytes());

  EXPECT_LT(hwm, kCeiling + kCeiling / 2)
      << "the estimate escaped the ceiling (" << kPerThread
      << " fresh keys per thread)";
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_evict_lru.total() - lru0, 0u);
  }
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
      fault::Plan(33).stall(Site::cachetrie_txn_announce, fault::kForever,
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
        fault::Plan(34).stall(Site::cachetrie_txn_announce, fault::kForever,
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
        fault::Plan(35).stall(Site::cachetrie_txn_announce, fault::kForever,
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
  static constexpr Site kSites[] = {
      Site::cachetrie_evict_announce, Site::cachetrie_evict_commit,
      Site::cachetrie_evict_scan,     Site::cachetrie_txn_announce,
      Site::cachetrie_txn_commit,
  };
  tk::chaos::set_global_seed(55);
  tk::chaos::enable(true);
  fault::install(
      fault::Plan::randomized(55, kSites, /*n_victims=*/4, 1us, 200us));

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
        ADD_FAILURE() << "thread " << t << " was killed; the plan only stalls";
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

TEST(EvictionFault, ProbeHelpsTheExpansionItMeets) {
  // The eviction probe is a write walk, so it helps an announcement it
  // meets like any write. Under the identity hash 0x01 and 0x11 share the
  // narrow node at level 4 under root slot 1, and inserting 0x41 expands
  // it. That victim parks as it starts completing its expansion, with the
  // ENode already in root slot 1. The intruder's replaces stay in root slot
  // 2, so only their backpressure probes can cross slot 1. The clock never
  // moves, so nothing is ever evictable and every over-ceiling write only
  // probes.
  using Placed = cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                                      cachetrie::util::IdentityHash>;
  cachetrie::Config cfg = ceiling_config(64);
  cfg.tick_fn = +[]() -> std::uint64_t { return 1; };
  Placed trie(cfg);
  for (const std::uint64_t k : {0x01, 0x11, 0x02}) {
    ASSERT_TRUE(trie.insert(k, k));
  }
  ASSERT_GT(trie.resident_bytes(), 64u);

  const std::uint64_t expands0 = sites::cachetrie_expand.total();
  std::size_t writes = 0;
  const Site row = Site::cachetrie_enode_complete;
  const std::size_t parks = fault::lose_race(
      36, std::span<const Site>(&row, 1),
      [&] { EXPECT_TRUE(trie.insert(0x41, 0x41)); },
      [&](std::size_t) {
        // The victim's own crossing is already counted.
        const std::uint64_t hits0 = tk::chaos::site_hits(row);
        while (tk::chaos::site_hits(row) == hits0 && writes < 10000) {
          ASSERT_TRUE(trie.replace(0x02, writes++));
        }
        EXPECT_GT(tk::chaos::site_hits(row), hits0)
            << "no probe crossed root slot 1 in " << writes << " writes";
        if (kCounted) {
          EXPECT_EQ(sites::cachetrie_expand.total(), expands0 + 1)
              << "the probe did not commit the parked expansion";
        }
      });
  ASSERT_EQ(parks, 1u);
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  EXPECT_EQ(trie.resident_bytes(), trie.footprint_bytes() - sizeof(Placed))
      << "byte ledger diverged from the live structure";
  for (const std::uint64_t k : {0x01, 0x11, 0x41}) {
    EXPECT_EQ(trie.lookup(k), k);
  }
  EXPECT_EQ(trie.lookup(0x02), writes - 1);
  if (kCounted) {
    EXPECT_EQ(sites::cachetrie_expand.total(), expands0 + 1);
  }
}

TEST(EvictionLedger, ProcessGaugeSumsLiveBoundedTries) {
  if (!kCounted) GTEST_SKIP() << "the gauge is compiled out";
  const auto gauge = [] {
    const auto snap = cachetrie::obs::registry().snapshot();
    const auto* g = snap.find_gauge("cachetrie.bounded.resident_bytes");
    return g == nullptr ? std::int64_t{0} : g->value;
  };
  const std::int64_t before = gauge();
  {
    Bounded pressured(ceiling_config(64u << 10));
    cachetrie::Config ttl;
    ttl.ttl_ticks = 1ull << 40;
    Bounded churned(ttl);
    for (std::uint64_t i = 0; i < 4000; ++i) {
      pressured.insert(i, i);
      churned.insert(i, i);
      if (i % 2 == 0) churned.remove(i / 2);
    }
    EXPECT_GT(pressured.resident_bytes(), 0u);
    EXPECT_GT(churned.resident_bytes(), 0u);
    EXPECT_EQ(gauge(),
              before + static_cast<std::int64_t>(pressured.resident_bytes() +
                                                 churned.resident_bytes()));
  }
  EXPECT_EQ(gauge(), before) << "a destroyed trie left bytes in the gauge";
}

}  // namespace
