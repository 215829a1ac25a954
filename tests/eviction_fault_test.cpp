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
// EvictionLedger.* force every lost race a node copy can lose (the txn
// announcement, an ENode's build race, its parent-slot commit, a chain
// growth's slot CAS), freeze and copy a collision chain during a
// compression, and check that the loser's copy leaves the byte ledger with
// it, and that the process-wide gauge sums the live bounded tries.
//
// Labeled `fault` (RUN_SERIAL): the watchdog asserts per-tick survivor
// progress, which sharing the machine would starve.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
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
  dom.set_limbo_cap_bytes(EpochDomain::kNoLimboCap);
  dom.set_stall_lag_epochs(EpochDomain::kDefaultStallLagEpochs);
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

// --- the byte ledger on every forced lost race -----------------------------
//
// IdentityHash places keys exactly: a key's root slot is its low 4 bits and
// its slot one level down the next 2 (narrow node) or 4 (wide node) bits.
// Keys 1 and 17 share root slot 1 and split into a narrow node below it;
// 65 collides with 1 in that narrow node (forcing its expansion) and 33
// lands beside them.

using Placed = cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                                    cachetrie::util::IdentityHash>;
using Model = std::map<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kRaceSeed = 0x1ed9e7ULL;

cachetrie::Config ledger_config() {
  cachetrie::Config cfg;
  cfg.ttl_ticks = 1ull << 40;  // bounded mode on, horizons inert
  return cfg;
}

void lose_race(Site site, const std::function<void()>& victim,
               const std::function<void()>& intruder) {
  EXPECT_TRUE(fault::lose_race(kRaceSeed, site, victim, intruder))
      << "victim never reached " << tk::name(site);
}

/// The ledger equals the footprint walk, and the trie holds exactly `model`.
template <typename Trie>
void expect_ledger_exact(const Trie& trie, const Model& model) {
  EXPECT_EQ(trie.resident_bytes(), trie.footprint_bytes() - sizeof(Trie))
      << "a lost copy left the byte ledger unbalanced";
  EXPECT_EQ(trie.size(), model.size());
  for (const auto& [k, v] : model) {
    EXPECT_EQ(trie.lookup(k), std::optional<std::uint64_t>(v)) << "key " << k;
  }
  Model seen;
  trie.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    seen.emplace(k, v);
  });
  EXPECT_EQ(seen, model);
  const auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

/// Counter deltas that prove an ENode race had a loser: at least two
/// threads froze the target (each then built a copy), and exactly one
/// replacement was committed.
struct EnodeRace {
  std::uint64_t freeze0 = sites::cachetrie_freeze.total();
  std::uint64_t expand0 = sites::cachetrie_expand.total();
  std::uint64_t compress0 = sites::cachetrie_compress.total();

  void expect_one_commit(bool compress) const {
    if (!kCounted) return;
    EXPECT_GE(sites::cachetrie_freeze.total() - freeze0, 2u)
        << "the intruder never helped";
    EXPECT_EQ(sites::cachetrie_expand.total() - expand0, compress ? 0u : 1u);
    EXPECT_EQ(sites::cachetrie_compress.total() - compress0,
              compress ? 1u : 0u);
  }
};

TEST(EvictionLedger, TxnAnnounceLoserDiscardsItsSubtree) {
  // The victim's 17 collides with 1 in the wide root, so it builds a
  // subtree (a narrow node over a copy of 1's pair and 17's) and parks
  // before announcing it on 1's txn. The intruder replaces 1 and wins that
  // txn word; the victim discards the subtree and retries.
  Placed trie(ledger_config());
  ASSERT_TRUE(trie.insert(1, 1));
  const std::uint64_t retry0 = sites::cachetrie_txn_retry.total();
  lose_race(
      Site::cachetrie_txn_announce, [&] { EXPECT_TRUE(trie.insert(17, 17)); },
      [&] { EXPECT_FALSE(trie.insert(1, 100)); });
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_txn_retry.total() - retry0, 0u)
        << "cachetrie.txn.retry did not count the lost announcement";
  }
  expect_ledger_exact(trie, {{1, 100}, {17, 17}});
}

TEST(EvictionLedger, ExpansionBuildLoserDiscardsItsCopy) {
  // The victim's 65 collides with 1 in the narrow node, so it announces an
  // expansion and parks with its wide copy built but not yet offered. The
  // intruder's insert meets the ENode, helps, and wins the build race.
  Placed trie(ledger_config());
  ASSERT_TRUE(trie.insert(1, 1));
  ASSERT_TRUE(trie.insert(17, 17));
  const EnodeRace race;
  lose_race(
      Site::cachetrie_enode_publish, [&] { EXPECT_TRUE(trie.insert(65, 65)); },
      [&] { EXPECT_TRUE(trie.insert(33, 33)); });
  race.expect_one_commit(/*compress=*/false);
  expect_ledger_exact(trie, {{1, 1}, {17, 17}, {33, 33}, {65, 65}});
}

TEST(EvictionLedger, CompressionBuildLoserDiscardsItsCopy) {
  // Removing 17 leaves the narrow node one SNode, so the victim announces
  // a compression and parks with its revived copy of 1 not yet offered.
  // The intruder's insert helps and wins the build race.
  Placed trie(ledger_config());
  ASSERT_TRUE(trie.insert(1, 1));
  ASSERT_TRUE(trie.insert(17, 17));
  const EnodeRace race;
  lose_race(
      Site::cachetrie_enode_publish,
      [&] { EXPECT_EQ(trie.remove(17), std::optional<std::uint64_t>(17)); },
      [&] { EXPECT_TRUE(trie.insert(33, 33)); });
  race.expect_one_commit(/*compress=*/true);
  expect_ledger_exact(trie, {{1, 1}, {33, 33}});
}

TEST(EvictionLedger, EnodeCommitLoserLeavesLedgerExact) {
  // The victim wins the build race and parks before its parent-slot CAS.
  // The intruder helps: its own copy loses the build race, and its commit
  // of the victim's copy wins, so the victim's CAS loses.
  Placed trie(ledger_config());
  ASSERT_TRUE(trie.insert(1, 1));
  ASSERT_TRUE(trie.insert(17, 17));
  const EnodeRace race;
  lose_race(
      Site::cachetrie_enode_commit, [&] { EXPECT_TRUE(trie.insert(65, 65)); },
      [&] { EXPECT_TRUE(trie.insert(33, 33)); });
  race.expect_one_commit(/*compress=*/false);
  expect_ledger_exact(trie, {{1, 1}, {17, 17}, {33, 33}, {65, 65}});
}

// ChainHash keeps a key's low 16 bits: 1, 0x10001 and 0x20001 share one
// full hash and chain together, while 17, 65 and 0x101 share only a prefix
// with them: root slot 1, and for 0x101 also slot 0 one level down.
struct ChainHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return k & 0xffff;
  }
};

using Chained =
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t, ChainHash>;

TEST(EvictionLedger, ChainGrowthLoserKeepsTheChainItLinked) {
  // 1 and 0x10001 chain in root slot 1. The victim's 17 shares only that
  // slot with them, so it builds a wide node over the existing chain and
  // its own pair, and parks before swapping it in. The intruder rebuilds
  // the chain with 0x20001 and retires the old one; the victim's CAS
  // loses, so it discards its wide node and pair but not the chain it
  // linked, and retries over the new chain.
  Chained trie(ledger_config());
  ASSERT_TRUE(trie.insert(1, 1));
  ASSERT_TRUE(trie.insert(0x10001, 2));
  const std::uint64_t retry0 = sites::cachetrie_txn_retry.total();
  lose_race(
      Site::cachetrie_chain_grow, [&] { EXPECT_TRUE(trie.insert(17, 17)); },
      [&] { EXPECT_TRUE(trie.insert(0x20001, 3)); });
  if (kCounted) {
    EXPECT_GT(sites::cachetrie_txn_retry.total() - retry0, 0u)
        << "cachetrie.txn.retry did not count the lost slot CAS";
  }
  expect_ledger_exact(trie, {{1, 1}, {17, 17}, {0x10001, 2}, {0x20001, 3}});
}

TEST(EvictionLedger, CompressionFreezesAndCopiesChildrenBuiltMidAnnounce) {
  // 1 and 65 split below root slot 1 into a wide node W. The victim
  // removes 65, leaving W one SNode, and parks before announcing W's
  // compression. The intruder's key collides with 1 in W: 0x10001 shares
  // 1's full hash and turns W's slot into a collision chain, 0x101 differs
  // two levels down and turns it into a narrow node. The announcement
  // still wins: the victim freezes the new child inside an FNode, copies
  // it into W's replacement, and parks again before offering the copy.
  // Lookups meanwhile read both keys through the ENode and the FNode; once
  // released, the victim commits and retires the frozen child.
  for (const std::uint64_t intruder_key : {0x10001ull, 0x101ull}) {
    SCOPED_TRACE(intruder_key);
    Chained trie(ledger_config());
    ASSERT_TRUE(trie.insert(1, 1));
    ASSERT_TRUE(trie.insert(65, 65));
    const std::uint64_t compress0 = sites::cachetrie_compress.total();
    const std::uint64_t parked0 = fault::parked_now();
    const std::uint64_t total0 = fault::parked_total();
    // True once the victim has parked `n` times and is parked now.
    const auto parked = [&](std::uint64_t n) {
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (fault::parked_total() != total0 + n ||
             fault::parked_now() != parked0 + 1) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(1ms);
      }
      return true;
    };

    tk::chaos::set_global_seed(kRaceSeed);
    fault::install(
        fault::Plan(kRaceSeed)
            .stall(Site::cachetrie_compress_announce, fault::kForever, 1)
            .stall(Site::cachetrie_enode_publish, fault::kForever, 1));
    tk::chaos::enable(true);
    std::thread victim([&] {
      tk::chaos::bind_thread(1);
      EXPECT_EQ(trie.remove(65), std::optional<std::uint64_t>(65));
    });
    tk::chaos::bind_thread(0);
    const bool announced = parked(1);
    EXPECT_TRUE(announced) << "victim never reached compress_announce";
    if (announced) {
      EXPECT_TRUE(trie.insert(intruder_key, 2));
      fault::release_all();
      const bool copied = parked(2);
      EXPECT_TRUE(copied) << "victim never reached enode_publish";
      if (copied) {
        EXPECT_EQ(trie.lookup(1), std::optional<std::uint64_t>(1));
        EXPECT_EQ(trie.lookup(intruder_key), std::optional<std::uint64_t>(2));
      }
    }
    fault::clear();
    victim.join();
    tk::chaos::enable(false);

    if (kCounted) {
      EXPECT_EQ(sites::cachetrie_compress.total() - compress0, 1u);
    }
    expect_ledger_exact(trie, {{1, 1}, {intruder_key, 2}});
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
