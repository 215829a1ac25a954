// watchdog_progress_test.cpp — the lock-freedom watchdog under injected
// faults, on all four structures.
//
// Part A (StallStorm.*): a seed-randomized plan derives a finite stall for
// every (structure's chaos-site row x victim) pair; two victims and four
// survivors churn a shared key range through grow/mixed/deplete phases so
// expansion, compression, freeze/ENode, clean, transfer, and mark/unlink
// paths all execute. The watchdog asserts survivor throughput never hits
// zero across any tick. The plan seed is printed (and overridable via
// CACHETRIE_FAULT_SEED) so a failure replays from the log.
//
// Part B (LockFreedom.*): the strong claim — victims stall FOREVER at
// protocol decision points, one right after pinning its guard and one deep
// inside the protocol, and survivors must still make progress for the
// whole window. The parked guards hold the epoch, so survivor garbage
// piles up in limbo for the whole window (plain EBR); the test prints the
// limbo it reached. Run only on the
// lock-free structures: the chashmap is the repo's lock-BASED baseline
// (JDK-style bin locks), where a thread parked forever inside a bin lock
// blocks that bin's writers by design — it gets Part A's finite stalls
// only, and that asymmetry is the point of having the baseline (see
// DESIGN.md "Reclamation under faults").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "mr/epoch.hpp"
#include "skiplist/skiplist.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"
#include "testkit/watchdog.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using cachetrie::mr::EpochDomain;
using namespace std::chrono_literals;

using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;
using Ctrie = cachetrie::ctrie::Ctrie<std::uint64_t, std::uint64_t>;
using Chm = cachetrie::chm::ConcurrentHashMap<std::uint64_t, std::uint64_t>;
using Csl = cachetrie::csl::ConcurrentSkipList<std::uint64_t, std::uint64_t>;

using tk::Owner;
using tk::Site;

/// Every row of the chaos-site table that `owner`'s protocols cross, in
/// table order.
std::vector<Site> sites_of(Owner owner) {
  std::vector<Site> out;
  for (std::size_t i = 0; i < tk::kSiteCount; ++i) {
    const auto s = static_cast<Site>(i);
    if (tk::owner(s) == owner) out.push_back(s);
  }
  return out;
}

std::uint64_t plan_seed() {
  if (const char* s = std::getenv("CACHETRIE_FAULT_SEED")) {
    if (*s != '\0') return std::strtoull(s, nullptr, 10);
  }
  return 0x5eed1234ULL;
}

/// Grow / mixed / deplete over a shared key range: exercises the expansion,
/// compression, and cleanup protocols, not just leaf updates. Returns ops
/// completed before `stop`.
template <typename Map>
void churn_phases(Map& map, std::atomic<bool>& stop,
                  std::atomic<std::uint64_t>* ops) {
  constexpr std::uint64_t kRange = 512;
  const auto done = [&] { return stop.load(std::memory_order_acquire); };
  while (!done()) {
    for (std::uint64_t k = 0; k < kRange && !done(); ++k) {
      map.insert(k, k + 1);
      if (ops != nullptr) ops->fetch_add(1, std::memory_order_relaxed);
    }
    for (std::uint64_t k = 0; k < kRange && !done(); ++k) {
      map.lookup(k);
      if ((k & 1) != 0) map.remove(k);
      if (ops != nullptr) ops->fetch_add(2, std::memory_order_relaxed);
    }
    for (std::uint64_t k = 0; k < kRange && !done(); ++k) {
      map.remove(k);
      if (ops != nullptr) ops->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

/// Part A body: randomized finite stalls at every site of `owner`, for
/// both victims.
template <typename Map>
void run_stall_storm(Owner owner) {
  const std::vector<Site> sites = sites_of(owner);
  const std::uint64_t seed = plan_seed();
  auto plan = fault::Plan::randomized(seed, sites, /*n_victims=*/2, 1ms, 8ms);
  // Replay recipe: CACHETRIE_FAULT_SEED=<seed> re-derives this exact plan.
  std::fputs(plan.describe().c_str(), stdout);

  tk::chaos::set_global_seed(seed);
  tk::chaos::reset_counters();
  fault::reset_counters();
  tk::chaos::enable(true);
  fault::install(plan);

  Map map;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> survivor_ops{0};
  tk::ProgressWatchdog watchdog(survivor_ops, 250ms);
  watchdog.start();

  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      tk::chaos::bind_thread(t);
      // Threads 0-1 are the stall victims; they churn too, just slowed.
      churn_phases(map, stop, t >= 2 ? &survivor_ops : nullptr);
    });
  }

  std::this_thread::sleep_for(1200ms);
  watchdog.stop();
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  fault::clear();
  tk::chaos::enable(false);

  EXPECT_GE(watchdog.ticks(), 3u);
  EXPECT_EQ(watchdog.violations(), 0u)
      << "survivor throughput hit zero during randomized stalls, seed="
      << seed;
  EXPECT_GT(survivor_ops.load(), 0u);
  EXPECT_GT(fault::parked_total(), 0u) << "no stall ever fired";
  for (const Site s : sites) {
    std::printf("  site %-28s hits=%llu\n", tk::name(s),
                static_cast<unsigned long long>(tk::chaos::site_hits(s)));
  }
  // The post-pin site guards every operation, so it must always fire.
  EXPECT_GT(tk::chaos::site_hits(sites[0]), 0u);
}

/// Part B body: two victims stalled forever — one at the post-pin site, one
/// at a deep protocol site.
template <typename Map>
void run_forever_stall(Site pinned_site, Site deep_site) {
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();

  tk::chaos::set_global_seed(11);
  tk::chaos::enable(true);
  fault::install(fault::Plan(11)
                     .stall(pinned_site, fault::kForever, /*thread=*/0)
                     .stall(deep_site, fault::kForever, /*thread=*/1));

  Map map;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> survivor_ops{0};

  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      tk::chaos::bind_thread(t);
      try {
        churn_phases(map, stop, t >= 2 ? &survivor_ops : nullptr);
      } catch (const fault::ThreadKilled&) {
        ADD_FAILURE() << "thread " << t << " was killed; the plan only stalls";
      }
    });
  }

  // Both victims must actually be parked before the window counts.
  const auto park_deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::parked_now() < 2 &&
         std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::parked_now(), 2u)
      << "victims never reached their sites (" << tk::name(pinned_site)
      << ", " << tk::name(deep_site) << ")";

  tk::ProgressWatchdog watchdog(survivor_ops, 250ms);
  watchdog.start();
  std::this_thread::sleep_for(1500ms);
  watchdog.stop();
  std::printf("  limbo behind the parked victims: %.1f MiB\n",
              static_cast<double>(dom.retired_bytes()) / (1 << 20));

  EXPECT_GE(watchdog.ticks(), 5u);
  EXPECT_EQ(watchdog.violations(), 0u)
      << "survivors stopped while victims were parked forever at "
      << tk::name(pinned_site) << " / " << tk::name(deep_site);
  EXPECT_GT(survivor_ops.load(), 0u);

  stop.store(true, std::memory_order_release);
  fault::clear();  // wakes the victims: they resume, then exit
  for (auto& w : workers) w.join();
  tk::chaos::enable(false);
}

TEST(StallStorm, CacheTrie) { run_stall_storm<Trie>(Owner::cachetrie); }
TEST(StallStorm, Ctrie) { run_stall_storm<Ctrie>(Owner::ctrie); }
TEST(StallStorm, Chashmap) { run_stall_storm<Chm>(Owner::chm); }
TEST(StallStorm, Skiplist) { run_stall_storm<Csl>(Owner::csl); }

TEST(LockFreedom, CacheTrieSurvivesForeverStalls) {
  run_forever_stall<Trie>(Site::cachetrie_pinned, Site::cachetrie_txn_announce);
}
TEST(LockFreedom, CtrieSurvivesForeverStalls) {
  run_forever_stall<Ctrie>(Site::ctrie_pinned, Site::ctrie_gcas);
}
TEST(LockFreedom, SkiplistSurvivesForeverStalls) {
  run_forever_stall<Csl>(Site::csl_pinned, Site::csl_mark_bottom);
}

}  // namespace
