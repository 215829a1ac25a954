// trace_smoke_test.cpp — the flight recorder's acceptance scenario: park a
// reader forever at the CacheTrie's pinned site (seed 7) while churners
// retire nodes, with tracing enabled, then release it. The drained
// timeline must tell plain EBR's story — testkit.fault.park, at most one
// mr.epoch.flip while the reader holds its guard, testkit.fault.resume,
// then flips again — and the exported Chrome-trace JSON (the file
// EXPERIMENTS.md says to load into Perfetto) must round-trip with those
// events in it.
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
#include "obs/metrics.hpp"
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

TEST(TraceSmoke, ParkedReaderHoldsEpochUntilResume) {
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "tracing compiled out (CACHETRIE_METRICS=0)";
  }
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();

  // Churners emit ~one event per operation (txn commits). 128k slots per
  // ring hold the whole run, so no flip scrolls out of its ring.
  trace::registry().set_ring_capacity_for_testing(1u << 17);
  trace::registry().reset_for_testing();
  trace::enable(true);

  tk::chaos::set_global_seed(7);
  tk::chaos::enable(true);
  fault::install(fault::Plan(7).stall(Site::cachetrie_pinned, fault::kForever,
                                      /*thread=*/0));

  Trie trie;
  std::atomic<bool> stop{false};
  std::atomic<bool> victim_done{false};

  std::thread victim([&] {
    tk::chaos::bind_thread(0);
    try {
      trie.insert(0xdead0001, 1);
    } catch (const fault::ThreadKilled&) {
      ADD_FAILURE() << "a stalled victim was killed on resume";
    }
    victim_done.store(true, std::memory_order_release);
  });

  const auto park_deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::parked_now() == 0 &&
         std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::parked_now(), 1u) << "victim never reached the site";

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

  // Churn until limbo shows the stall: every retirement's advance attempt
  // fails against the parked pin, so garbage only grows.
  const auto limbo_deadline = std::chrono::steady_clock::now() + 60s;
  while (dom.retired_bytes() < (256u << 10) &&
         std::chrono::steady_clock::now() < limbo_deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GE(dom.retired_bytes(), 256u << 10) << "churn never retired 256 KiB";

  // Release the reader; once it leaves its guard the epoch moves again.
  // At most one of the three flips awaited below can precede the resume.
  const std::uint64_t epoch_at_release = dom.epoch();
  fault::clear();
  victim.join();
  EXPECT_TRUE(victim_done.load(std::memory_order_acquire));
  const auto flip_deadline = std::chrono::steady_clock::now() + 30s;
  while (dom.epoch() < epoch_at_release + 3 &&
         std::chrono::steady_clock::now() < flip_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true, std::memory_order_release);
  for (auto& c : churners) c.join();
  tk::chaos::enable(false);

  // --- timeline assertions on the drained events ---------------------------
  // drain() returns the rings one after another; sort them into one
  // timeline, since the flips are recorded on the churners' rings.
  auto events = trace::registry().drain();
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  std::uint64_t park_ts = 0, resume_ts = 0;
  std::uint64_t flips_parked = 0, flips_after = 0, kills = 0;
  for (const auto& ev : events) {
    switch (ev.id) {
      case EventId::kFaultPark:
        if (park_ts == 0) park_ts = ev.ts;
        break;
      case EventId::kFaultResume:
        if (resume_ts == 0) resume_ts = ev.ts;
        break;
      case EventId::kMrEpochFlip:
        if (park_ts != 0 && resume_ts == 0) ++flips_parked;
        if (resume_ts != 0) ++flips_after;
        break;
      case EventId::kFaultKill:
        ++kills;
        break;
      default:
        break;
    }
  }
  ASSERT_NE(park_ts, 0u) << "no testkit.fault.park event recorded";
  ASSERT_NE(resume_ts, 0u) << "no testkit.fault.resume event recorded";
  EXPECT_LT(park_ts, resume_ts);
  // The reader pinned epoch e: one advance to e + 1 may still pass it, the
  // next needs it gone.
  EXPECT_LE(flips_parked, 1u)
      << "the epoch advanced past a reader that still held its guard";
  EXPECT_GE(flips_after, 2u) << "the epoch did not advance after the resume";
  EXPECT_EQ(kills, 0u) << "a stalled victim left a testkit.fault.kill";

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
  EXPECT_NE(out.find("testkit.fault.park"), std::string::npos);
  EXPECT_NE(out.find("mr.epoch.flip"), std::string::npos);
  EXPECT_NE(out.find("testkit.fault.resume"), std::string::npos);

  // --- restore ------------------------------------------------------------
  trace::enable(false);
  trace::registry().set_ring_capacity_for_testing(4096);
  trace::registry().reset_for_testing();
}

}  // namespace
