// fig14_bounded_churn.cpp — the bounded-memory production cache mode under
// the two workloads its design targets (DESIGN.md §3, EXPERIMENTS.md §fig14):
//
//   * working-set churn: four writers stream ~10x the ceiling's worth of
//     fresh keys through a 1 MiB-ceiling cache while the main thread samples
//     the resident-bytes high-water mark. The bench HARD-FAILS (exit 1) if
//     the high-water mark escapes ceiling + 50% slack — the slack covers
//     per-writer overshoot between the publish that crosses the ceiling and
//     the backpressure scan it triggers, not reclamation limbo (resident
//     bytes are published-minus-retired, so limbo never counts).
//   * zipfian hit-rate: a skewed (s=1.0) read-mostly cache workload over a
//     keyspace ~4x what fits under the ceiling; the miss rate measures how
//     well lazy clock-hand eviction approximates LRU (an ideal top-k cache
//     of equal capacity would miss ~12%).
//
// Both run for the trie (exact double-entry byte ledger) and the CHM
// baseline (derived footprint estimate). Like perf_smoke, sizes are fixed —
// REPRO_SCALE is ignored so BENCH_fig14_bounded_churn.json stays comparable
// across runs and scripts/perf_gate.py can diff it against the committed
// baseline. Byte and rate cells carry a unit param (exact counts: relative
// budget, no stddev allowance); the churn/zipf wall-clock cells are normal
// timing cells.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cachetrie/evict.hpp"
#include "common.hpp"
#include "obs/sites.hpp"

namespace {

using cachetrie::harness::Summary;
using cachetrie::harness::Table;
namespace sites = cachetrie::obs::sites;

using BoundedTrie =
    cachetrie::evict::BoundedCacheTrie<bench::Key, bench::Val>;
using BoundedChm = cachetrie::evict::BoundedChm<bench::Key, bench::Val>;

constexpr std::size_t kCeiling = 1u << 20;        // 1 MiB byte ceiling
constexpr std::size_t kSlack = kCeiling / 2;      // in-flight overshoot slack
constexpr std::size_t kChurnThreads = 4;
constexpr std::size_t kKeysPerThread = 50000;     // 200k keys ~ 11 MiB of pairs
constexpr std::size_t kChurnKeys = kChurnThreads * kKeysPerThread;
constexpr std::size_t kZipfRanks = 60000;         // ~4x what the ceiling holds
constexpr std::size_t kZipfWarm = 150000;
constexpr std::size_t kZipfOps = 300000;

cachetrie::evict::BoundedConfig bounded_config() {
  cachetrie::evict::BoundedConfig cfg;
  cfg.ceiling_bytes = kCeiling;
  cfg.ttl_ticks = 0;  // pure LRU-pressure mode; TTL is covered by the tests
  return cfg;
}

cachetrie::harness::MeasureOptions fig14_options() {
  cachetrie::harness::MeasureOptions opts;  // fixed regardless of REPRO_SCALE
  opts.min_warmup = 1;
  opts.max_warmup = 2;
  opts.reps = 2;
  opts.cov_threshold = 0.10;
  return opts;
}

/// Exact single measurements (byte counts, rates) ride in the timing schema
/// with zero spread and a unit param — the fig09 convention.
Summary exact_summary(double value) {
  Summary s;
  s.mean_ms = value;
  s.min_ms = value;
  s.max_ms = value;
  s.reps = 1;
  return s;
}

struct ChurnStats {
  std::size_t hwm = 0;             // max over warmup + measured reps
  std::size_t final_resident = 0;  // after the last rep's stream
  std::uint64_t evictions = 0;
  std::uint64_t scans = 0;
};

/// One full churn pass: kChurnThreads writers each stream kKeysPerThread
/// fresh (never-repeated) keys; the calling thread samples resident bytes
/// until the writers drain. Returns elapsed ms, accumulates into `stats`.
template <typename MakeMap>
Summary run_churn(MakeMap&& make, ChurnStats& stats) {
  return cachetrie::harness::measure(
      [&]() -> double {
        auto map = make();
        const std::uint64_t lru0 = sites::cachetrie_evict_lru.total();
        const std::uint64_t scans0 =
            sites::cachetrie_evict_backpressure.total();
        std::atomic<std::size_t> running{kChurnThreads};
        const double ms = cachetrie::harness::time_ms([&] {
          std::vector<std::thread> writers;
          for (std::size_t t = 0; t < kChurnThreads; ++t) {
            writers.emplace_back([&map, &running, t] {
              const bench::Key base = (t + 1) * (1ull << 32);
              for (std::size_t i = 0; i < kKeysPerThread; ++i) {
                map.insert(base + i, i);
              }
              running.fetch_sub(1, std::memory_order_release);
            });
          }
          while (running.load(std::memory_order_acquire) != 0) {
            stats.hwm = std::max(stats.hwm, map.resident_bytes());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          for (auto& w : writers) w.join();
        });
        stats.hwm = std::max(stats.hwm, map.resident_bytes());
        stats.final_resident = map.resident_bytes();
        stats.evictions = sites::cachetrie_evict_lru.total() - lru0;
        stats.scans = sites::cachetrie_evict_backpressure.total() - scans0;
        return ms;
      },
      fig14_options());
}

struct ZipfStats {
  double miss_pct = 0.0;
  std::size_t resident = 0;
};

/// Read-mostly cache usage: lookup, insert on miss. Warm phase populates the
/// hot set; the measured window reports the miss percentage. Single-threaded
/// on purpose — the cell gates the eviction *policy* (what the cache kept),
/// not scheduler jitter.
template <typename MakeMap>
Summary run_zipf(MakeMap&& make, ZipfStats& stats) {
  auto map = make();
  bench::ZipfSampler zipf(kZipfRanks, 0x5eedull);
  const auto step = [&](bench::Key k) {
    if (map.lookup(k).has_value()) return true;
    map.insert(k, k);
    return false;
  };
  for (std::size_t i = 0; i < kZipfWarm; ++i) {
    (void)step(static_cast<bench::Key>(zipf.next_rank()) + 1);
  }
  std::uint64_t hits = 0;
  const Summary timing = cachetrie::harness::measure(
      [&]() -> double {
        hits = 0;
        return cachetrie::harness::time_ms([&] {
          for (std::size_t i = 0; i < kZipfOps; ++i) {
            hits += step(static_cast<bench::Key>(zipf.next_rank()) + 1) ? 1 : 0;
          }
        });
      },
      fig14_options());
  stats.miss_pct = 100.0 * static_cast<double>(kZipfOps - hits) /
                   static_cast<double>(kZipfOps);
  stats.resident = map.resident_bytes();
  return timing;
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 14: bounded-memory mode — churn ceiling + zipf hit rate",
      "1 MiB-ceiling caches under (a) a 10x-ceiling fresh-key churn stream\n"
      "(4 writers; resident high-water mark must hold under ceiling+slack)\n"
      "and (b) a single-threaded zipf(1.0) lookup/insert-on-miss workload\n"
      "(miss rate measures the lazy eviction's LRU fidelity). Fixed sizes;\n"
      "REPRO_SCALE is ignored so artifacts stay comparable.");

  cachetrie::harness::BenchReport report{"fig14_bounded_churn"};
  const auto reclaim0 = bench::ReclaimSnapshot::take();
  bool ceiling_held = true;

  Table table{{"structure", "churn (ms)", "resident hwm", "final", "evicted",
               "zipf (ms)", "miss %"}};
  const auto run_structure = [&](const char* name, auto make) {
    ChurnStats churn;
    const Summary churn_ms = run_churn(make, churn);
    ZipfStats zipf;
    const Summary zipf_ms = run_zipf(make, zipf);

    const std::string n = std::to_string(kChurnKeys);
    report.add(name,
               {{"op", "bounded_churn"},
                {"n", n},
                {"threads", std::to_string(kChurnThreads)}},
               churn_ms, kChurnKeys);
    report.add(name,
               {{"op", "churn_resident_hwm"}, {"n", n}, {"unit", "bytes"}},
               exact_summary(static_cast<double>(churn.hwm)));
    report.add(name,
               {{"op", "churn_resident_final"}, {"n", n}, {"unit", "bytes"}},
               exact_summary(static_cast<double>(churn.final_resident)));
    report.add(name,
               {{"op", "zipf_mixed"},
                {"n", std::to_string(kZipfOps)},
                {"ranks", std::to_string(kZipfRanks)}},
               zipf_ms, kZipfOps);
    report.add(name,
               {{"op", "zipf_miss_rate"},
                {"ranks", std::to_string(kZipfRanks)},
                {"unit", "percent"}},
               exact_summary(zipf.miss_pct));

    table.add_row(
        {name, Table::fmt_mean_std(churn_ms.mean_ms, churn_ms.stddev_ms),
         Table::fmt(static_cast<double>(churn.hwm) / 1e6) + " MB",
         Table::fmt(static_cast<double>(churn.final_resident) / 1e6) + " MB",
         std::to_string(churn.evictions),
         Table::fmt_mean_std(zipf_ms.mean_ms, zipf_ms.stddev_ms),
         Table::fmt(zipf.miss_pct)});

    if (churn.hwm > kCeiling + kSlack) {
      ceiling_held = false;
      std::fprintf(stderr,
                   "FAIL [%s]: churn resident high-water %zu escaped "
                   "ceiling %zu + slack %zu (evictions=%llu scans=%llu)\n",
                   name, churn.hwm, kCeiling, kSlack,
                   static_cast<unsigned long long>(churn.evictions),
                   static_cast<unsigned long long>(churn.scans));
    }
  };

  run_structure("bounded_cachetrie", [] { return BoundedTrie{bounded_config()}; });
  run_structure("bounded_chm", [] { return BoundedChm{bounded_config()}; });
  table.print();

  // The ceiling governs live structure; this line shows how far the EBR
  // limbo (retired-not-yet-freed) ever outran the frees during the churn.
  bench::ReclaimSnapshot::take().print_delta(reclaim0, "fig14 churn");

  std::printf(
      "\nexpected shape: both high-water marks hold under %.2f MB;\n"
      "trie's final resident tracks the ceiling exactly (double-entry\n"
      "ledger), chm's is a derived estimate; zipf miss rate well under the\n"
      "%.0f%% an uncached pass would pay.\n",
      static_cast<double>(kCeiling + kSlack) / 1e6, 100.0);

  const int report_rc = bench::finish_report(report);
  if (!ceiling_held) return 1;  // the acceptance criterion is the ceiling
  return report_rc;
}
