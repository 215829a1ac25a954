// trace_test.cpp — unit tests of the obs/trace flight recorder: ring
// wrap/overwrite semantics, per-slot seqlock validation under a concurrent
// drain, TSC calibration sanity, the Chrome-trace exporter's unmatched-end
// demotion, and the static zero-size guarantee the OFF configuration
// relies on (mirroring metrics_test.cpp's Null* checks).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "obs/trace_export.hpp"
#include "obs/tsc.hpp"
#include "util/thread_id.hpp"

namespace trace = cachetrie::obs::trace;
namespace tsc = cachetrie::obs::tsc;
using trace::EventId;

namespace {

// --- OFF configuration: zero-size, constexpr no-op trace points ------------

// A trace point in a metrics-off build must cost literally nothing; NullSpan
// is unconditional, so a metrics-ON test run still guards the OFF contract.
static_assert(std::is_empty_v<trace::NullSpan>);
static_assert(std::is_trivially_destructible_v<trace::NullSpan>);

constexpr bool null_span_probe() {
  trace::NullSpan s{EventId::kCtrieGcasBegin, EventId::kCtrieGcasEnd, 1, 2};
  (void)s;
  return true;
}
static_assert(null_span_probe());

#if !CACHETRIE_METRICS
static_assert(!cachetrie::obs::kMetricsCompiled);
static_assert(std::is_same_v<trace::Span, trace::NullSpan>);
// emit/enable must be usable in constant expressions when compiled out.
constexpr bool off_emit_probe() {
  trace::emit(EventId::kCachetrieFreeze, 1, 2);
  trace::enable(true);
  return !trace::enabled();
}
static_assert(off_emit_probe());
#else
static_assert(cachetrie::obs::kMetricsCompiled);
#endif

// The event-info table is total: every id below kCount has a name and a
// phase the exporter understands, and out-of-range ids fall back to "none".
// Every dump embeds exactly this table, in id order, for the summarizer.
TEST(TraceEvents, InfoTableIsTotal) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(EventId::kCount);
       ++i) {
    const auto& info = trace::event_info(static_cast<EventId>(i));
    ASSERT_NE(info.name, nullptr);
    ASSERT_NE(info.category, nullptr);
    EXPECT_TRUE(info.phase == 'i' || info.phase == 'B' || info.phase == 'E')
        << info.name;
  }
  EXPECT_STREQ(trace::event_info(EventId::kCount).name, "none");
  EXPECT_STREQ(trace::event_info(static_cast<EventId>(0xffff)).name, "none");

  std::string table = "\"event_table\":[";
  for (std::size_t i = 0; i < trace::kEventCount; ++i) {
    const auto& info = trace::kEventInfo[i];
    table += std::string(i == 0 ? "" : ",") + "{\"name\":\"" + info.name +
             "\",\"cat\":\"" + info.category + "\",\"ph\":\"" +
             info.phase + "\"}";
  }
  table += "]}";
  std::ostringstream os;
  trace::write_chrome_json(os, {}, "event_table");
  EXPECT_NE(os.str().find(table), std::string::npos) << os.str();
}

// --- live recorder (metrics-on builds only) --------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cachetrie::obs::kMetricsCompiled) {
      GTEST_SKIP() << "tracing compiled out (CACHETRIE_METRICS=0)";
    }
    trace::registry().set_ring_capacity_for_testing(4096);
    trace::registry().reset_for_testing();
    trace::enable(true);
  }

  void TearDown() override {
    if (!cachetrie::obs::kMetricsCompiled) return;
    trace::enable(false);
    trace::registry().set_ring_capacity_for_testing(4096);
    trace::registry().reset_for_testing();
  }
};

TEST_F(TraceTest, DisabledEmitRecordsNothing) {
  trace::enable(false);
  trace::emit(EventId::kCachetrieFreeze, 1, 2);
  { trace::Span s{EventId::kCtrieGcasBegin, EventId::kCtrieGcasEnd}; }
  EXPECT_EQ(trace::registry().total_emitted(), 0u);
  EXPECT_TRUE(trace::registry().drain().empty());
}

// A site with a counter and an event records both with one call: the
// counter gains exactly 1 and exactly one event carries the payload. With
// the recorder off at runtime the counter still counts.
TEST_F(TraceTest, SiteRecordCountsOnceAndEmitsOnce) {
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
  }
  auto& site = cachetrie::obs::sites::cachetrie_freeze;
  const std::uint64_t before = site.total();
  site.record(7, 8);
  EXPECT_EQ(site.total(), before + 1);
  const auto events = trace::registry().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, EventId::kCachetrieFreeze);
  EXPECT_EQ(events[0].a0, 7u);
  EXPECT_EQ(events[0].a1, 8u);

  trace::enable(false);
  site.record(9, 10);
  EXPECT_EQ(site.total(), before + 2);
  EXPECT_EQ(trace::registry().total_emitted(), 1u);
}

TEST_F(TraceTest, EmitRecordsPayloadThreadIdAndOrder) {
  trace::emit(EventId::kCachetrieFreeze, 10, 11);
  trace::emit(EventId::kMrEpochFlip, 20);
  trace::emit(EventId::kCslMarkBottom, 30, 31);

  const auto events = trace::registry().drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id, EventId::kCachetrieFreeze);
  EXPECT_EQ(events[0].a0, 10u);
  EXPECT_EQ(events[0].a1, 11u);
  EXPECT_EQ(events[1].id, EventId::kMrEpochFlip);
  EXPECT_EQ(events[1].a0, 20u);
  EXPECT_EQ(events[1].a1, 0u);
  EXPECT_EQ(events[2].id, EventId::kCslMarkBottom);
  const std::uint32_t self = cachetrie::util::current_thread_id();
  for (const auto& ev : events) {
    EXPECT_EQ(ev.tid, self);
  }
  EXPECT_LE(events[0].ts, events[1].ts);
  EXPECT_LE(events[1].ts, events[2].ts);
  EXPECT_EQ(trace::registry().total_emitted(), 3u);
  EXPECT_EQ(trace::registry().total_overwritten(), 0u);
}

TEST_F(TraceTest, RingWrapKeepsTheLatestWindow) {
  constexpr std::uint64_t kCap = 64;
  constexpr std::uint64_t kEmit = 1000;
  trace::registry().set_ring_capacity_for_testing(kCap);
  trace::registry().reset_for_testing();

  for (std::uint64_t i = 0; i < kEmit; ++i) {
    trace::emit(EventId::kCachetrieFreeze, i, i ^ 0xff);
  }

  const auto events = trace::registry().drain();
  ASSERT_EQ(events.size(), kCap);  // exactly one full ring survives
  std::uint64_t min_a0 = ~0ull, max_a0 = 0;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.id, EventId::kCachetrieFreeze);
    EXPECT_EQ(ev.a1, ev.a0 ^ 0xff);  // payload fields stay coherent
    min_a0 = std::min(min_a0, ev.a0);
    max_a0 = std::max(max_a0, ev.a0);
  }
  // A flight recorder keeps the *latest* window: the last kCap events.
  EXPECT_EQ(min_a0, kEmit - kCap);
  EXPECT_EQ(max_a0, kEmit - 1);
  EXPECT_EQ(trace::registry().total_emitted(), kEmit);
  EXPECT_EQ(trace::registry().total_overwritten(), kEmit - kCap);
}

TEST_F(TraceTest, SpanEmitsMatchingBeginAndEnd) {
  {
    trace::Span s{EventId::kCtrieGcasBegin, EventId::kCtrieGcasEnd, 7, 8};
    trace::emit(EventId::kCtrieClean, 1);
  }
  const auto events = trace::registry().drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id, EventId::kCtrieGcasBegin);
  EXPECT_EQ(events[1].id, EventId::kCtrieClean);
  EXPECT_EQ(events[2].id, EventId::kCtrieGcasEnd);
  // Begin and end carry the same payload so consumers can pair them.
  EXPECT_EQ(events[0].a0, 7u);
  EXPECT_EQ(events[2].a0, 7u);
  EXPECT_EQ(events[0].a1, 8u);
  EXPECT_EQ(events[2].a1, 8u);
  EXPECT_LE(events[0].ts, events[2].ts);
}

TEST_F(TraceTest, ConcurrentDrainSeesOnlyWellFormedEvents) {
  // Writers keep the rings wrapping while the main thread drains; the
  // per-slot seqlock must drop torn slots, never surface them. Detection
  // is the a0/a1 invariant: both words are written in one seq window.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  trace::registry().set_ring_capacity_for_testing(256);
  trace::registry().reset_for_testing();

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t v = (static_cast<std::uint64_t>(t) << 32) | i;
        trace::emit(EventId::kCachetrieFreeze, v, ~v);
      }
    });
  }
  go.store(true, std::memory_order_release);

  do {
    for (const auto& ev : trace::registry().drain()) {
      ASSERT_EQ(ev.id, EventId::kCachetrieFreeze);
      ASSERT_EQ(ev.a1, ~ev.a0);
    }
  } while (trace::registry().total_emitted() <
           static_cast<std::uint64_t>(kWriters) * kPerWriter);
  for (auto& w : writers) w.join();

  // Each ring retains its last 256 events. A writer that finished before
  // another started may have had its ring recycled (thread exit releases
  // it), so between 1 and kWriters rings carry events at the end.
  const auto final_events = trace::registry().drain();
  EXPECT_GE(final_events.size(), 256u);
  EXPECT_LE(final_events.size(), 256u * kWriters);
  EXPECT_EQ(final_events.size() % 256u, 0u);
  for (const auto& ev : final_events) {
    EXPECT_EQ(ev.a1, ~ev.a0);
  }
  EXPECT_EQ(trace::registry().total_emitted(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

// --- map events ------------------------------------------------------------

// A forced eviction reports the level of the slot its removal committed in,
// as every other eviction does. Under the identity hash, keys 0x01 and 0x11
// share the root's slot 1 and separate in a narrow node at level 4.
TEST_F(TraceTest, EvictRecordsTheCommitLevel) {
  cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                       cachetrie::util::IdentityHash>
      trie;
  ASSERT_TRUE(trie.insert(0x01, 1));
  ASSERT_TRUE(trie.insert(0x11, 2));
  trace::registry().drain();
  ASSERT_EQ(trie.evict(0x11), std::optional<std::uint64_t>(2));
  std::vector<trace::Event> evictions;
  for (const auto& ev : trace::registry().drain()) {
    if (ev.id == EventId::kCachetrieEvict) evictions.push_back(ev);
  }
  ASSERT_EQ(evictions.size(), 1u);
  EXPECT_EQ(evictions[0].a0, 0x11u);  // the key's hash
  EXPECT_EQ(evictions[0].a1, 4u);     // the narrow node's level
}

// --- TSC clock -------------------------------------------------------------

TEST_F(TraceTest, TscIsMonotonicOnOneThread) {
  std::uint64_t prev = tsc::now();
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t t = tsc::now();
    ASSERT_GE(t, prev);
    prev = t;
  }
}

TEST_F(TraceTest, TscOrdersJoinSynchronizedThreads) {
  // Cross-thread ordering claim kept minimal: a timestamp taken before a
  // join happens-before one taken after it, and the clock must agree.
  for (int round = 0; round < 16; ++round) {
    std::uint64_t in_thread = 0;
    std::thread t([&in_thread] { in_thread = tsc::now(); });
    t.join();
    EXPECT_GE(tsc::now(), in_thread);
  }
}

TEST_F(TraceTest, CalibrationConvertsTicksToWallClockNanoseconds) {
  const auto wall0 = std::chrono::steady_clock::now();
  const std::uint64_t t0 = tsc::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t t1 = tsc::now();
  const auto wall1 = std::chrono::steady_clock::now();
  const double traced_ns = tsc::to_ns(t1 - t0);
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
          .count());
  // Generous window: CI boxes oversleep, but a calibration that is off by
  // 2x would make every exported timeline useless.
  EXPECT_GT(traced_ns, wall_ns * 0.5);
  EXPECT_LT(traced_ns, wall_ns * 2.0);
}

// --- Chrome-trace exporter -------------------------------------------------

namespace {
void expect_balanced(const std::string& out) {
  std::int64_t braces = 0, brackets = 0;
  for (char ch : out) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}
}  // namespace

TEST_F(TraceTest, ExporterPairsSpansAndDemotesUnmatchedEnds) {
  // Synthesized timeline: an 'E' whose 'B' was overwritten (ts=10), then a
  // well-formed B/E pair. The orphan must demote to an instant or the
  // viewer's per-thread span stack corrupts.
  std::vector<trace::Event> events;
  events.push_back({10, 5, EventId::kChmBinLockBegin, 1, 0});
  events.push_back({20, 5, EventId::kChmBinLockEnd, 1, 0});
  events.push_back({30, 5, EventId::kChmBinLockEnd, 2, 0});

  std::ostringstream os;
  trace::write_chrome_json(os, events, "unit_test");
  const std::string out = os.str();
  expect_balanced(out);
  EXPECT_NE(out.find("\"schema\":\"cachetrie-trace-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(out.find("chm.bin_lock (unmatched)"), std::string::npos);
  // Exactly one demotion: the matched pair survives as B/E.
  EXPECT_EQ(out.find("(unmatched)"), out.rfind("(unmatched)"));
  // Instants carry the scope Chrome requires.
  EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
}

TEST_F(TraceTest, ExporterTimestampsAreRelativeMicroseconds) {
  std::vector<trace::Event> events;
  events.push_back({1000, 1, EventId::kMrEpochFlip, 1, 0});
  events.push_back({5000, 1, EventId::kMrEpochFlip, 2, 0});
  std::ostringstream os;
  trace::write_chrome_json(os, events, "ts_test");
  const std::string out = os.str();
  // First event is the origin regardless of its absolute tick count.
  EXPECT_NE(out.find("\"ts\":0.000"), std::string::npos);
  expect_balanced(out);
}

TEST_F(TraceTest, DumpToFileWritesLoadableJsonUnderTraceOut) {
  // check.sh points CACHETRIE_TRACE_OUT into the build tree so the
  // summarizer smoke can find the dumps; only fall back to TempDir when
  // running standalone.
  const char* preset = std::getenv("CACHETRIE_TRACE_OUT");
  const std::string dir = preset != nullptr ? preset : ::testing::TempDir();
  if (preset == nullptr) {
    ASSERT_EQ(setenv("CACHETRIE_TRACE_OUT", dir.c_str(), 1), 0);
  }
  trace::emit(EventId::kMrEpochFlip, 1);
  trace::emit(EventId::kFaultPark, 2);

  const std::string path = trace::dump_to_file("trace_unit");
  if (preset == nullptr) unsetenv("CACHETRIE_TRACE_OUT");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.find(dir), 0u) << path;
  EXPECT_NE(path.find("TRACE_trace_unit.json"), std::string::npos);

  std::ifstream is{path};
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string out = ss.str();
  expect_balanced(out);
  EXPECT_NE(out.find("mr.epoch.flip"), std::string::npos);
  EXPECT_NE(out.find("testkit.fault.park"), std::string::npos);
}

TEST_F(TraceTest, PostMortemDumpIsOncePerProcess) {
  const char* preset = std::getenv("CACHETRIE_TRACE_OUT");
  const std::string dir = preset != nullptr ? preset : ::testing::TempDir();
  if (preset == nullptr) {
    ASSERT_EQ(setenv("CACHETRIE_TRACE_OUT", dir.c_str(), 1), 0);
  }
  trace::emit(EventId::kWatchdogViolation, 1);
  const std::string first = trace::post_mortem_dump("first_failure");
  const std::string second = trace::post_mortem_dump("second_failure");
  if (preset == nullptr) unsetenv("CACHETRIE_TRACE_OUT");
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(second.empty()) << "post-mortem dump must be first-wins";
}

}  // namespace
