// trace_smoke_test.cpp — the PR's acceptance scenario for the flight
// recorder: replay the stalled-reader fault seed from
// stalled_reclaimer_test (seed 7, victim killed while pinned inside a
// CacheTrie insert, churners driving limbo over a 2 MiB cap) with tracing
// enabled, then assert the drained timeline shows the protocol story —
// fault park, stall-declare, and an epoch advance *after* the declaration —
// and that the exported Chrome-trace JSON (the file EXPERIMENTS.md says to
// load into Perfetto) round-trips with those events in it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "mr/epoch.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using tk::Site;
namespace trace = cachetrie::obs::trace;
using cachetrie::mr::EpochDomain;
using trace::EventId;
using namespace std::chrono_literals;

using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;

TEST(TraceSmoke, StalledReaderTimelineShowsDeclareThenEpochAdvance) {
  if (!trace::kTraceCompiled) {
    GTEST_SKIP() << "tracing compiled out (CACHETRIE_TRACE=0)";
  }
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();

  // Churners emit ~one event per operation (txn commits), so the window
  // between the stall declaration and the stop flag must fit in the ring
  // or the declare event scrolls away. 128k slots per ring plus a tight
  // post-declare window keeps it with a wide margin.
  trace::registry().set_ring_capacity_for_testing(1u << 17);
  trace::registry().reset_for_testing();
  trace::enable(true);

  constexpr std::size_t kCap = 2u << 20;  // 2 MiB, as in stalled_reclaimer
  dom.set_limbo_cap_bytes(kCap);
  dom.set_stall_lag_epochs(8);
  const std::uint64_t stalled0 = dom.stalled_records();

  tk::chaos::set_global_seed(7);
  tk::chaos::enable(true);
  fault::install(fault::Plan(7).die(Site::cachetrie_pinned, /*thread=*/0));

  Trie trie;
  std::atomic<bool> stop{false};
  std::atomic<bool> victim_killed{false};

  std::thread victim([&] {
    tk::chaos::bind_thread(0);
    try {
      trie.insert(0xdead0001, 1);
      ADD_FAILURE() << "victim completed its op instead of dying";
    } catch (const fault::ThreadKilled&) {
      victim_killed.store(true, std::memory_order_release);
    }
  });

  std::vector<std::thread> churners;
  for (std::uint64_t t = 1; t <= 2; ++t) {
    churners.emplace_back([&, t] {
      tk::chaos::bind_thread(t);
      std::uint64_t k = t * 100000;
      while (!stop.load(std::memory_order_acquire)) {
        trie.insert(k, k);
        trie.remove(k);
        k = t * 100000 + (k + 1) % 4096;
      }
    });
  }

  const auto park_deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::parked_now() == 0 &&
         std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::parked_now(), 1u) << "victim never reached the site";

  // Churn until the over-cap sweep actually declares the dead reader
  // stalled — the event the timeline is about.
  const auto stall_deadline = std::chrono::steady_clock::now() + 60s;
  while (dom.stalled_records() == stalled0 &&
         std::chrono::steady_clock::now() < stall_deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GT(dom.stalled_records(), stalled0)
      << "the fallback sweep never declared the victim stalled";

  // Keep churning just long enough that epoch flips *after* the
  // declaration land in the rings (that advance past a dead reader is the
  // protocol's payoff) — but short enough that the flood of txn-commit
  // events cannot scroll the declaration itself out of its ring.
  std::this_thread::sleep_for(10ms);
  stop.store(true, std::memory_order_release);
  for (auto& c : churners) c.join();
  fault::clear();  // releases the victim; it unwinds via ThreadKilled
  victim.join();
  EXPECT_TRUE(victim_killed.load(std::memory_order_acquire));
  tk::chaos::enable(false);

  // --- timeline assertions on the drained events ---------------------------
  // drain() returns the rings one after another; the flip that follows the
  // declaration is often recorded by another thread, on an earlier ring.
  auto events = trace::registry().drain();
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  std::uint64_t park_ts = 0, declare_ts = 0, kill_ts = 0;
  bool flip_after_declare = false;
  std::uint64_t scan_begins = 0;
  for (const auto& ev : events) {
    switch (ev.id) {
      case EventId::kFaultPark:
        if (park_ts == 0) park_ts = ev.ts;
        break;
      case EventId::kMrStallDeclare:
        if (declare_ts == 0) declare_ts = ev.ts;
        break;
      case EventId::kMrFallbackScanBegin:
        ++scan_begins;
        break;
      case EventId::kMrEpochFlip:
        if (declare_ts != 0 && ev.ts >= declare_ts) {
          flip_after_declare = true;
        }
        break;
      case EventId::kFaultKill:
        kill_ts = ev.ts;
        break;
      default:
        break;
    }
  }
  ASSERT_NE(declare_ts, 0u) << "no mr.epoch.stall_declare event recorded";
  EXPECT_GT(scan_begins, 0u) << "no fallback scan span recorded";
  EXPECT_TRUE(flip_after_declare)
      << "no epoch flip after the stall declaration — the domain never "
         "advanced past the dead reader";
  if (park_ts != 0) {  // park may scroll out of a busy ring; order if kept
    EXPECT_LE(park_ts, declare_ts);
  }
  EXPECT_NE(kill_ts, 0u) << "victim unwind left no testkit.fault.kill";

  // --- exported artifact (the Perfetto-loadable file) ----------------------
  // Honor an externally-set CACHETRIE_TRACE_OUT (check.sh points it into
  // the build tree so the summarizer smoke can digest this very dump).
  const char* preset = std::getenv("CACHETRIE_TRACE_OUT");
  const std::string dir = preset != nullptr ? preset : ::testing::TempDir();
  if (preset == nullptr) {
    ASSERT_EQ(setenv("CACHETRIE_TRACE_OUT", dir.c_str(), 1), 0);
  }
  const std::string path = trace::dump_to_file("stalled_reader");
  if (preset == nullptr) unsetenv("CACHETRIE_TRACE_OUT");
  ASSERT_FALSE(path.empty());

  std::ifstream is{path};
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string out = ss.str();
  std::int64_t braces = 0, brackets = 0;
  for (char ch : out) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(out.find("\"schema\":\"cachetrie-trace-v1\""), std::string::npos);
  EXPECT_NE(out.find("mr.epoch.stall_declare"), std::string::npos);
  EXPECT_NE(out.find("mr.epoch.flip"), std::string::npos);
  EXPECT_NE(out.find("mr.epoch.fallback_scan"), std::string::npos);
  EXPECT_NE(out.find("testkit.fault.kill"), std::string::npos);

  // --- restore ------------------------------------------------------------
  trace::enable(false);
  trace::registry().set_ring_capacity_for_testing(4096);
  trace::registry().reset_for_testing();
  dom.set_limbo_cap_bytes(EpochDomain::kNoLimboCap);
  dom.set_stall_lag_epochs(EpochDomain::kDefaultStallLagEpochs);
}

}  // namespace
