// fault_injection_test.cpp — unit tests for the fault-injection engine
// itself (src/testkit/fault.hpp): verdict firing, thread filters, crossing
// ordinals, die/release semantics, and seed reproducibility. The engine is
// exercised through bare chaos points: no structure runs in this binary, so
// each test crosses real rows of the chaos-site table by hand. The
// structure-level scenarios live in stalled_reclaimer_test.cpp and
// watchdog_progress_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using tk::Site;
using namespace std::chrono_literals;

/// Per-test RAII: enables chaos (the hook only fires while enabled) and
/// tears the plan down even on assertion failure.
struct FaultSession {
  explicit FaultSession(std::uint64_t seed = 42) {
    tk::chaos::set_global_seed(seed);
    tk::chaos::enable(true);
  }
  ~FaultSession() {
    fault::clear();
    tk::chaos::enable(false);
  }
};

TEST(FaultEngine, StallDelaysTheCrossingThread) {
  FaultSession session;
  fault::reset_counters();
  fault::install(fault::Plan(1).stall(Site::cachetrie_txn_commit, 30ms));
  tk::chaos::bind_thread(0);

  const auto t0 = std::chrono::steady_clock::now();
  tk::chaos_point(Site::cachetrie_txn_commit);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 30ms);
  EXPECT_EQ(fault::injected_stalls(), 1u);

  // max_fires = 1: further crossings pass through unharmed.
  tk::chaos_point(Site::cachetrie_txn_commit);
  EXPECT_EQ(fault::injected_stalls(), 1u);
}

TEST(FaultEngine, SiteAndThreadFiltersSelectTheVictim) {
  FaultSession session;
  fault::reset_counters();
  fault::install(fault::Plan(2).stall(Site::ctrie_gcas, 1ms, /*thread=*/1));

  // Wrong site, right thread; right site, wrong thread: no verdicts.
  tk::chaos::bind_thread(1);
  tk::chaos_point(Site::ctrie_pinned);
  tk::chaos::bind_thread(0);
  tk::chaos_point(Site::ctrie_gcas);
  EXPECT_EQ(fault::injected_stalls(), 0u);

  std::thread victim([] {
    tk::chaos::bind_thread(1);
    tk::chaos_point(Site::ctrie_gcas);
  });
  victim.join();
  EXPECT_EQ(fault::injected_stalls(), 1u);
}

TEST(FaultEngine, FireOnHitCountsCrossingsPerThread) {
  FaultSession session;
  fault::reset_counters();
  fault::install(fault::Plan(3).stall(Site::chm_bin_lock, 1ms,
                                      fault::kAnyThread, /*fire_on_hit=*/3,
                                      /*max_fires=*/2));
  tk::chaos::bind_thread(0);
  for (int i = 0; i < 8; ++i) tk::chaos_point(Site::chm_bin_lock);
  // Crossings 3 and 4 fire; 1-2 are before the window, 5+ after it.
  EXPECT_EQ(fault::injected_stalls(), 2u);
}

TEST(FaultEngine, DieParksUntilReleaseThenThrows) {
  FaultSession session;
  fault::reset_counters();
  fault::install(fault::Plan(4).die(Site::csl_unlink));

  std::atomic<bool> killed{false};
  std::atomic<bool> resumed{false};
  std::thread victim([&] {
    tk::chaos::bind_thread(0);
    try {
      tk::chaos_point(Site::csl_unlink);
      resumed.store(true);  // must be unreachable
    } catch (const fault::ThreadKilled&) {
      killed.store(true);
    }
  });

  // The victim parks at the site and stays parked until released.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fault::parked_now() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(fault::parked_now(), 1u);
  EXPECT_EQ(fault::injected_deaths(), 1u);
  EXPECT_FALSE(killed.load());

  fault::release_all();
  victim.join();
  EXPECT_TRUE(killed.load());
  EXPECT_FALSE(resumed.load());
  EXPECT_EQ(fault::parked_now(), 0u);
}

TEST(FaultEngine, ForeverStallResumesOnRelease) {
  FaultSession session;
  fault::reset_counters();
  fault::install(
      fault::Plan(5).stall(Site::net_request_execute, fault::kForever));

  std::atomic<bool> resumed{false};
  std::thread victim([&] {
    tk::chaos::bind_thread(0);
    try {
      tk::chaos_point(Site::net_request_execute);
      resumed.store(true);
    } catch (const fault::ThreadKilled&) {
      ADD_FAILURE() << "a stalled victim was killed on resume";
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fault::parked_now() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(fault::parked_now(), 1u);
  fault::release_all();
  victim.join();
  EXPECT_TRUE(resumed.load());
}

TEST(FaultEngine, NoVerdictsWhileChaosDisabledOrPlanCleared) {
  FaultSession session;
  fault::reset_counters();
  fault::install(fault::Plan(6).stall(Site::net_shed, 1ms));
  tk::chaos::bind_thread(0);

  tk::chaos::enable(false);
  tk::chaos_point(Site::net_shed);  // chaos off: the whole point is inert
  EXPECT_EQ(fault::injected_stalls(), 0u);

  tk::chaos::enable(true);
  fault::clear();
  tk::chaos_point(Site::net_shed);  // plan gone: crossing passes through
  EXPECT_EQ(fault::injected_stalls(), 0u);
}

TEST(FaultEngine, RandomizedPlanIsAPureFunctionOfTheSeed) {
  const Site sites[] = {Site::cachetrie_pinned, Site::ctrie_pinned,
                        Site::chm_pinned};
  const auto a = fault::Plan::randomized(0xfeedULL, sites, 2, 1ms, 10ms);
  const auto b = fault::Plan::randomized(0xfeedULL, sites, 2, 1ms, 10ms);
  ASSERT_EQ(a.specs().size(), 6u);  // one spec per (site, victim), in order
  ASSERT_EQ(a.specs().size(), b.specs().size());
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].site, sites[i / 2]);
    EXPECT_EQ(a.specs()[i].site, b.specs()[i].site);
    EXPECT_EQ(a.specs()[i].duration, b.specs()[i].duration);
    EXPECT_EQ(a.specs()[i].thread, b.specs()[i].thread);
    EXPECT_EQ(a.specs()[i].fire_on_hit, b.specs()[i].fire_on_hit);
    EXPECT_EQ(a.specs()[i].max_fires, b.specs()[i].max_fires);
  }
  for (const auto& s : a.specs()) {
    EXPECT_GE(s.duration, 1ms);
    EXPECT_LE(s.duration, 10ms);
    EXPECT_LT(s.thread, 2u);
  }
  EXPECT_NE(a.describe().find("seed=65261"), std::string::npos);
  EXPECT_NE(a.describe().find("] ctrie.pinned stall"), std::string::npos);
}

}  // namespace
