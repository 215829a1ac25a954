// metrics_test.cpp — unit tests of the obs/ observability substrate:
// striped counter/histogram exactness under concurrency, quantiles that
// match LatencyHistogram's (whose geometry latency_test checks),
// snapshot-vs-reset semantics, and the static zero-size guarantee the OFF
// configuration relies on.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/interval.hpp"
#include "obs/latency.hpp"

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

namespace obs = cachetrie::obs;
using obs::LatencyHistogram;

namespace {

// --- OFF configuration: zero-size, constexpr no-op handles -----------------

// The whole point of the Null* trio: a record site in a metrics-off build
// must cost literally nothing. Enforced here statically so a metrics-ON
// test run still guards the OFF contract.
static_assert(std::is_empty_v<obs::NullCounter>);
static_assert(std::is_empty_v<obs::NullHistogram>);
static_assert(std::is_empty_v<obs::NullGauge>);
static_assert(std::is_trivially_destructible_v<obs::NullCounter>);
static_assert(std::is_trivially_destructible_v<obs::NullHistogram>);
static_assert(std::is_trivially_destructible_v<obs::NullGauge>);

// Null handles must be usable in constant expressions — proof that every
// member is a compile-time no-op, not merely cheap.
constexpr std::uint64_t null_counter_probe() {
  obs::NullCounter c{"probe"};
  return c.add(7) + c.add() + c.total();
}
static_assert(null_counter_probe() == 0);

constexpr bool null_hist_gauge_probe() {
  obs::NullHistogram h{"probe"};
  h.record(123);
  obs::NullGauge g{"probe"};
  g.set(5);
  g.add(-5);
  return g.value() == 0;
}
static_assert(null_hist_gauge_probe());

// In an OFF build the public aliases ARE the Null types.
#if !CACHETRIE_METRICS
static_assert(std::is_same_v<obs::Counter, obs::NullCounter>);
static_assert(std::is_same_v<obs::Histogram, obs::NullHistogram>);
static_assert(std::is_same_v<obs::Gauge, obs::NullGauge>);
static_assert(!obs::kMetricsCompiled);
#else
static_assert(obs::kMetricsCompiled);
#endif

// --- live substrate (metrics-on builds only) -------------------------------

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kMetricsCompiled) {
      GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
    }
    obs::registry().reset();
  }
};

TEST_F(MetricsTest, CounterTotalsAreExactAcrossThreads) {
  obs::Counter c{"test.counter.exact"};
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : team) th.join();
  EXPECT_EQ(c.total(), kThreads * kPerThread);
  EXPECT_EQ(obs::registry().snapshot().counter_value("test.counter.exact"),
            kThreads * kPerThread);
}

// These reach into the stripe internals, which only exist when metrics are
// compiled in.
#if CACHETRIE_METRICS
TEST_F(MetricsTest, CounterStaysExactWithMoreThreadsThanStripes) {
  // 24 concurrent adders against 16 stripes: the threads that find every
  // stripe taken share the overflow cell, and nothing is lost either way.
  obs::Counter c{"test.counter.overflow"};
  constexpr int kThreads = 24;
  constexpr std::uint64_t kPerThread = 20000;
  static_assert(kThreads > static_cast<int>(obs::detail::kStripes));
  std::atomic<int> started{0};
  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      c.add(0);  // claim (or miss) a stripe while every adder is alive
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : team) th.join();
  EXPECT_EQ(c.total(), kThreads * kPerThread);
}

TEST_F(MetricsTest, CounterStaysExactAcrossThreadTurnover) {
  // Threads exit mid-run and new ones take their released stripes while
  // long-lived adders keep recording.
  obs::Counter c{"test.counter.turnover"};
  constexpr int kLongLived = 3;
  constexpr int kWaves = 10;
  constexpr int kPerWave = 6;
  constexpr std::uint64_t kLongAdds = 200000;
  constexpr std::uint64_t kShortAdds = 5000;
  std::vector<std::thread> long_lived;
  for (int t = 0; t < kLongLived; ++t) {
    long_lived.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kLongAdds; ++i) c.add();
    });
  }
  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::thread> wave;
    for (int t = 0; t < kPerWave; ++t) {
      wave.emplace_back([&c] {
        for (std::uint64_t i = 0; i < kShortAdds; ++i) c.add();
      });
    }
    for (auto& th : wave) th.join();
  }
  for (auto& th : long_lived) th.join();
  EXPECT_EQ(c.total(),
            kLongLived * kLongAdds + kWaves * kPerWave * kShortAdds);
}

// Adds from a thread_local destructor that runs after the thread's stripe
// lease is gone, and notes which stripe state it saw.
obs::Counter* g_exit_counter = nullptr;
std::atomic<std::uint32_t> g_exit_stripe{0};

struct AddOnThreadExit {
  ~AddOnThreadExit() {
    g_exit_stripe.store(obs::detail::t_stripe);
    g_exit_counter->add(5);
  }
};

TEST_F(MetricsTest, CounterCountsAddsAfterTheStripeIsReleased) {
  obs::Counter c{"test.counter.after_release"};
  g_exit_counter = &c;
  std::thread t([&c] {
    // Constructed before the first add, so destroyed after the lease that
    // add creates: thread_local destructors run in reverse order.
    thread_local AddOnThreadExit on_exit;
    (void)on_exit;
    c.add(1);
  });
  t.join();
  EXPECT_EQ(g_exit_stripe.load(), obs::detail::kStripeOverflow);
  EXPECT_EQ(c.total(), 6u);
}
#endif  // CACHETRIE_METRICS

TEST_F(MetricsTest, CounterAddReturnsPreviousStripeValue) {
  // The 1-in-2^k sampling idiom depends on add() returning the stripe's
  // pre-add value: the very first record on a thread samples.
  obs::Counter c{"test.counter.sampling"};
  EXPECT_EQ(c.add(), 0u);   // stripe was empty
  EXPECT_EQ(c.add(), 1u);   // same thread -> same stripe
  EXPECT_EQ(c.add(3), 2u);
  EXPECT_EQ(c.total(), 5u);
}

TEST_F(MetricsTest, SameNameHandlesShareStorage) {
  obs::Counter a{"test.counter.shared"};
  obs::Counter b{"test.counter.shared"};
  a.add(10);
  b.add(5);
  EXPECT_EQ(a.total(), 15u);
  EXPECT_EQ(b.total(), 15u);
}

TEST_F(MetricsTest, HistogramConcurrentRecordingLosesNothing) {
  obs::Histogram h{"test.hist.concurrent"};
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((i + static_cast<std::uint64_t>(t)) % 40);  // unit + sub
      }
    });
  }
  for (auto& th : team) th.join();

  const auto snap = obs::registry().snapshot();
  const auto* hist = snap.find_histogram("test.hist.concurrent");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (auto b : hist->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist->count);
  // Values 0..39 uniformly: mean 19.5, exact because sum is tracked.
  EXPECT_NEAR(hist->mean(), 19.5, 0.01);
  // 16 of 40 values land below 16 -> exact unit-bucket fraction.
  EXPECT_NEAR(hist->fraction_at_most(15), 16.0 / 40.0, 0.01);
}

TEST_F(MetricsTest, SnapshotHistogramMergeIsBucketwiseAddition) {
  obs::Histogram a{"test.hist.merge_a"};
  obs::Histogram b{"test.hist.merge_b"};
  for (std::uint64_t v : {1u, 1u, 20u, 500u}) a.record(v);
  for (std::uint64_t v : {1u, 15u, 20u}) b.record(v);

  auto snap = obs::registry().snapshot();
  const auto* ha = snap.find_histogram("test.hist.merge_a");
  const auto* hb = snap.find_histogram("test.hist.merge_b");
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);

  obs::Snapshot::Histogram merged = *ha;
  merged.merge(*hb);
  EXPECT_EQ(merged.count, 7u);
  EXPECT_EQ(merged.sum, 522u + 36u);
  EXPECT_EQ(merged.buckets[LatencyHistogram::index_of(1)], 3u);
  EXPECT_EQ(merged.buckets[LatencyHistogram::index_of(15)], 1u);
  EXPECT_EQ(merged.buckets[LatencyHistogram::index_of(20)], 2u);
  EXPECT_EQ(merged.buckets[LatencyHistogram::index_of(500)], 1u);
}

TEST_F(MetricsTest, QuantileInterpolatesWithinBucket) {
  // A quantile landing in a multi-value bucket must land inside the
  // bucket, not on its edge.
  obs::Histogram h{"test.hist.quantile_interp"};
  for (std::uint64_t i = 0; i < 100; ++i) h.record(i < 90 ? 2 : 100);
  const auto snap = obs::registry().snapshot();
  const auto* hist = snap.find_histogram("test.hist.quantile_interp");
  ASSERT_NE(hist, nullptr);
  // Unit bucket: exact, no interpolation artifacts.
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 2.0);
  // 100 lands in [100,103], which holds ranks 91..100; p99 (rank 99)
  // sits 90% into the bucket: 100 + 3 * (99 - 90) / 10 = 102.7.
  const std::size_t b = LatencyHistogram::index_of(100);
  ASSERT_EQ(LatencyHistogram::lower_of(b), 100u);
  ASSERT_EQ(LatencyHistogram::width_of(b), 4u);
  const double p99 = hist->quantile(0.99);
  EXPECT_GT(p99, 100.0);
  EXPECT_LT(p99, 103.0);
  EXPECT_NEAR(p99, 100.0 + 3.0 * 0.9, 1e-9);
  // All-identical values stay inside their bucket at every quantile.
  obs::Histogram one{"test.hist.quantile_interp_one"};
  for (int i = 0; i < 50; ++i) one.record(1000);
  const auto snap2 = obs::registry().snapshot();
  const auto* h1 = snap2.find_histogram("test.hist.quantile_interp_one");
  ASSERT_NE(h1, nullptr);
  const double lo = h1->quantile(0.01), hi = h1->quantile(0.999);
  // All mass in [992,1023].
  EXPECT_GE(lo, 992.0);
  EXPECT_LE(hi, 1023.0);
  EXPECT_LE(lo, hi);
}

TEST_F(MetricsTest, RegistryQuantilesMatchLatencyHistogram) {
  // A registry histogram and a LatencyHistogram fed the same values read
  // the same quantiles: one geometry, one quantile walk.
  obs::Histogram reg{"test.hist.match_latency"};
  LatencyHistogram lat;
  const auto both = [&](std::uint64_t v) {
    reg.record(v);
    lat.record(v);
  };
  // Unit values, values past 2^10 and values past 2^20.
  for (std::uint64_t v = 0; v < 32; ++v) both(v);
  for (std::uint64_t v = 1000; v < 9000; v += 37) both(v);
  for (std::uint64_t i = 0; i < 40; ++i) {
    both((std::uint64_t{1} << 20) + i * 104729);
  }
  const auto snap = obs::registry().snapshot();
  const auto* hist = snap.find_histogram("test.hist.match_latency");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->count, lat.count());
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(hist->quantile(p), lat.quantile(p)) << "p=" << p;
  }
}

TEST_F(MetricsTest, GaugeSetAddAndCallbackGauges) {
  obs::Gauge g{"test.gauge.level"};
  g.set(42);
  g.add(-2);
  EXPECT_EQ(g.value(), 40);

  std::atomic<std::int64_t> source{7};
  obs::registry().register_gauge_fn("test.gauge.cb", [&source] {
    return source.load();
  });
  auto snap = obs::registry().snapshot();
  ASSERT_NE(snap.find_gauge("test.gauge.level"), nullptr);
  EXPECT_EQ(snap.find_gauge("test.gauge.level")->value, 40);
  ASSERT_NE(snap.find_gauge("test.gauge.cb"), nullptr);
  EXPECT_EQ(snap.find_gauge("test.gauge.cb")->value, 7);

  // Callback gauges re-sample: registry reset does not zero the source.
  source.store(9);
  obs::registry().reset();
  snap = obs::registry().snapshot();
  EXPECT_EQ(snap.find_gauge("test.gauge.level")->value, 0);
  EXPECT_EQ(snap.find_gauge("test.gauge.cb")->value, 9);
}

TEST_F(MetricsTest, SnapshotIsAPointInTimeResetZeroes) {
  obs::Counter c{"test.counter.reset"};
  obs::Histogram h{"test.hist.reset"};
  c.add(3);
  h.record(5);

  const auto before = obs::registry().snapshot();
  c.add(2);  // after the snapshot — must not appear in `before`
  EXPECT_EQ(before.counter_value("test.counter.reset"), 3u);
  EXPECT_EQ(obs::registry().snapshot().counter_value("test.counter.reset"),
            5u);

  obs::registry().reset();
  const auto after = obs::registry().snapshot();
  EXPECT_EQ(after.counter_value("test.counter.reset"), 0u);
  const auto* hist = after.find_histogram("test.hist.reset");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 0u);
  EXPECT_EQ(hist->sum, 0u);
  // The snapshot taken before the reset is plain data — unaffected.
  EXPECT_EQ(before.counter_value("test.counter.reset"), 3u);
}

TEST_F(MetricsTest, JsonEmitterProducesBalancedNamedOutput) {
  obs::Counter c{"test.json.counter"};
  obs::Histogram h{"test.json.hist"};
  c.add(11);
  h.record(3);
  h.record(300);

  std::ostringstream os;
  obs::registry().snapshot().write_json(os);
  const std::string out = os.str();

  std::int64_t braces = 0, brackets = 0;
  for (char ch : out) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(out.find("\"test.json.counter\":11"), std::string::npos);
  EXPECT_NE(out.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos);
  EXPECT_NE(out.find("\"sum\":303"), std::string::npos);
  // 300 lands in [288,303]: sparse bucket pair [288,1].
  EXPECT_NE(out.find("[288,1]"), std::string::npos);
}

// --- interval differ (obs/interval.hpp) ------------------------------------

// Helpers: the differ's advance() takes any Snapshot, so these tests feed
// the live registry and pull through obs::registry().snapshot() — the same
// path the serving layer uses.

TEST_F(MetricsTest, IntervalDifferFirstPullHasZeroInterval) {
  obs::Counter c{"test.iv.first"};
  c.add(7);
  obs::IntervalDiffer differ;
  const auto d = differ.advance(obs::registry().snapshot(), 1'000'000);
  // First pull: no previous timestamp to rate against, but the deltas are
  // "everything so far" — the counter shows up with per_s pinned to 0.
  EXPECT_EQ(d.interval_s, 0.0);
  ASSERT_EQ(d.counters.size(), 1u);
  EXPECT_EQ(d.counters[0].name, "test.iv.first");
  EXPECT_EQ(d.counters[0].delta, 7u);
  EXPECT_EQ(d.counters[0].per_s, 0.0);
}

TEST_F(MetricsTest, IntervalDifferRatesAndOmitsIdleCounters) {
  obs::Counter busy{"test.iv.busy"};
  obs::Counter idle{"test.iv.idle"};
  busy.add(10);
  idle.add(5);
  obs::IntervalDiffer differ;
  (void)differ.advance(obs::registry().snapshot(), 1'000'000);

  busy.add(30);  // idle stays put
  const auto d = differ.advance(obs::registry().snapshot(), 3'000'000);
  EXPECT_DOUBLE_EQ(d.interval_s, 2.0);
  ASSERT_EQ(d.counters.size(), 1u) << "idle counter must be omitted";
  EXPECT_EQ(d.counters[0].name, "test.iv.busy");
  EXPECT_EQ(d.counters[0].delta, 30u);
  EXPECT_DOUBLE_EQ(d.counters[0].per_s, 15.0);
}

TEST_F(MetricsTest, IntervalDifferGaugesReportLevelAndMovement) {
  // The live registry also carries the inventory's gauges, so pick ours
  // out by name — its presence alongside them is part of what's tested.
  const auto find = [](const obs::SnapshotDelta& d)
      -> const obs::SnapshotDelta::GaugeValue* {
    for (const auto& g : d.gauges) {
      if (g.name == "test.iv.gauge") return &g;
    }
    return nullptr;
  };

  obs::Gauge g{"test.iv.gauge"};
  g.set(100);
  obs::IntervalDiffer differ;
  auto d = differ.advance(obs::registry().snapshot(), 1'000'000);
  const auto* gv = find(d);
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->value, 100);
  EXPECT_EQ(gv->delta, 100);  // vs implicit zero before first pull

  g.add(-40);
  d = differ.advance(obs::registry().snapshot(), 2'000'000);
  gv = find(d);
  // Gauges are levels, not events: reported every pull, even unchanged.
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->value, 60);
  EXPECT_EQ(gv->delta, -40);

  d = differ.advance(obs::registry().snapshot(), 3'000'000);
  gv = find(d);
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->value, 60);
  EXPECT_EQ(gv->delta, 0);
}

TEST_F(MetricsTest, IntervalDifferHistogramQuantilesForgetOldLoad) {
  obs::Histogram h{"test.iv.hist"};
  // First era: a thousand fast samples dominate the cumulative quantile.
  for (int i = 0; i < 1000; ++i) h.record(4);
  obs::IntervalDiffer differ;
  (void)differ.advance(obs::registry().snapshot(), 1'000'000);

  // Second era: only slow samples. The *interval* p50 must see just these.
  for (int i = 0; i < 10; ++i) h.record(5000);
  const auto d = differ.advance(obs::registry().snapshot(), 2'000'000);
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].count_delta, 10u);
  EXPECT_GT(d.histograms[0].interval_p50, 1000.0)
      << "interval quantile still remembers the old fast samples";
  // The cumulative p50 barely moved (10 of 1010 samples), and the drift
  // field reports that movement, not the interval's own level.
  EXPECT_LT(d.histograms[0].cum_p50_drift, 100.0);
  EXPECT_GE(d.histograms[0].cum_p50_drift, 0.0);
}

TEST_F(MetricsTest, IntervalDifferOmitsQuietHistograms) {
  obs::Histogram h{"test.iv.quiet"};
  h.record(10);
  obs::IntervalDiffer differ;
  (void)differ.advance(obs::registry().snapshot(), 1'000'000);
  const auto d = differ.advance(obs::registry().snapshot(), 2'000'000);
  EXPECT_TRUE(d.histograms.empty());
}

TEST_F(MetricsTest, IntervalDifferSurvivesRegistryReset) {
  obs::Counter c{"test.iv.rewind"};
  c.add(1000);
  obs::IntervalDiffer differ;
  (void)differ.advance(obs::registry().snapshot(), 1'000'000);

  // A reset between pulls rewinds every cumulative value. The differ must
  // report "everything since the reset", never an underflowed delta.
  obs::registry().reset();
  c.add(3);
  const auto d = differ.advance(obs::registry().snapshot(), 2'000'000);
  ASSERT_EQ(d.counters.size(), 1u);
  EXPECT_EQ(d.counters[0].delta, 3u);
}

TEST_F(MetricsTest, IntervalDeltaJsonIsBalancedAndEscaped) {
  obs::Counter c{"test.iv.json\"quote"};
  obs::Gauge g{"test.iv.json.gauge"};
  obs::Histogram h{"test.iv.json.hist"};
  c.add(2);
  g.set(-5);
  h.record(300);
  obs::IntervalDiffer differ;
  const auto d = differ.advance(obs::registry().snapshot(), 1'000'000);

  std::ostringstream os;
  d.write_json(os);
  const std::string out = os.str();
  std::int64_t braces = 0, brackets = 0;
  for (char ch : out) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(out.find("\"interval_s\":"), std::string::npos);
  EXPECT_NE(out.find("test.iv.json\\\"quote"), std::string::npos);
  EXPECT_NE(out.find("\"value\":-5"), std::string::npos);
  EXPECT_NE(out.find("\"count_delta\":1"), std::string::npos);
}

TEST_F(MetricsTest, IntervalDeltaTableListsWhatMoved) {
  // The example server's --stats-interval prints this table: a line per
  // counter and histogram that moved and per gauge off zero, none for a
  // gauge that sits at zero.
  obs::Counter c{"test.iv.table.counter"};
  obs::Gauge moved{"test.iv.table.gauge"};
  obs::Gauge zero{"test.iv.table.zero"};
  obs::Histogram h{"test.iv.table.hist"};
  obs::IntervalDiffer differ;
  (void)differ.advance(obs::registry().snapshot(), 1'000'000);
  c.add(6);
  moved.set(-3);
  h.record(300);
  const auto d = differ.advance(obs::registry().snapshot(), 3'000'000);

  std::ostringstream os;
  d.print_table(os);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("interval 2s\n", 0), 0u) << out;
  EXPECT_NE(out.find("  test.iv.table.counter  +6  (3/s)\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("  test.iv.table.gauge  -3  (-3)\n"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("test.iv.table.zero"), std::string::npos) << out;
  EXPECT_NE(out.find("  test.iv.table.hist  +1  p50~"), std::string::npos)
      << out;
}

}  // namespace
