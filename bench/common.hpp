// common.hpp — shared scaffolding for the figure-reproduction binaries:
// the five competitor configurations of the paper's evaluation (§5), plus
// small helpers to run one workload across all of them.
//
//   CHM        — chm::ConcurrentHashMap      (the paper's baseline)
//   cachetrie  — CacheTrie, cache enabled    (the contribution)
//   w/o cache  — CacheTrie, cache disabled   (paper's ablation variant)
//   ctrie      — ctrie::Ctrie                (previous hash-trie design)
//   skiplist   — csl::ConcurrentSkipList     (ConcurrentSkipListMap)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/thread_team.hpp"
#include "harness/workload.hpp"
#include "mr/epoch.hpp"
#include "skiplist/skiplist.hpp"
#include "util/rng.hpp"

namespace bench {

using Key = std::uint64_t;
using Val = std::uint64_t;

using CacheTrieMap = cachetrie::CacheTrie<Key, Val>;
using CtrieMap = cachetrie::ctrie::Ctrie<Key, Val>;
using ChmMap = cachetrie::chm::ConcurrentHashMap<Key, Val>;
using SkipListMap = cachetrie::csl::ConcurrentSkipList<Key, Val>;

inline CacheTrieMap make_cachetrie() { return CacheTrieMap{}; }

inline CacheTrieMap make_cachetrie_nocache() {
  cachetrie::Config cfg;
  cfg.use_cache = false;
  return CacheTrieMap{cfg};
}

/// Runs `fn(make)` once per structure, in kStructureNames order, and returns
/// the five results in that order; `make()` constructs a fresh map of that
/// structure. The braced list evaluates left to right, so the run order is
/// the name order too.
template <typename Fn>
auto run_roster(Fn&& fn) {
  return std::vector{fn([] { return ChmMap{}; }), fn(make_cachetrie),
                     fn(make_cachetrie_nocache), fn([] { return CtrieMap{}; }),
                     fn([] { return SkipListMap{}; })};
}

/// Runs `body(map)` for a freshly constructed map, under the measurement
/// protocol; `make()` constructs the map, body returns elapsed ms.
template <typename Make, typename Body>
cachetrie::harness::Summary measure_structure(
    Make&& make, Body&& body,
    const cachetrie::harness::MeasureOptions& opts) {
  return cachetrie::harness::measure(
      [&]() -> double {
        auto map = make();
        return body(map);
      },
      opts);
}

/// Default measurement options tuned per scale so the whole suite finishes
/// in minutes on a small container and in ScalaMeter-like fidelity at
/// REPRO_SCALE=paper.
inline cachetrie::harness::MeasureOptions bench_options() {
  cachetrie::harness::MeasureOptions opts;
  using cachetrie::harness::by_scale;
  opts.min_warmup = by_scale<std::size_t>(1, 1, 3);
  opts.max_warmup = by_scale<std::size_t>(2, 4, 12);
  opts.reps = by_scale<std::size_t>(2, 3, 5);
  opts.cov_threshold = 0.10;
  return opts;
}

inline void print_preamble(const char* figure, const char* description) {
  std::printf("=== %s ===\n%s\n", figure, description);
  std::printf("scale profile: %s (set REPRO_SCALE=smoke|default|paper)\n",
              cachetrie::harness::scale_name());
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
}

/// Canonical structure names used in the JSON artifacts — the order
/// run_roster returns its results in (CHM first: it is the baseline every
/// table's ratios divide by).
inline constexpr const char* kStructureNames[5] = {
    "chm", "cachetrie", "cachetrie_nocache", "ctrie", "skiplist"};

/// Adds one table row's five structure cells to the JSON report. `threads`
/// 0 means single-threaded (the param is omitted); `ops_per_rep` is the
/// operation count one rep performs (0 = not applicable); `extra` params
/// follow the standard ones.
inline void report_row(cachetrie::harness::BenchReport& report,
                       const std::string& op, std::size_t n, int threads,
                       const std::vector<cachetrie::harness::Summary>& cells,
                       std::uint64_t ops_per_rep = 0,
                       const cachetrie::harness::BenchParams& extra = {}) {
  for (std::size_t i = 0; i < cells.size() && i < 5; ++i) {
    cachetrie::harness::BenchParams params{{"op", op},
                                           {"n", std::to_string(n)}};
    if (threads > 0) params.emplace_back("threads", std::to_string(threads));
    params.insert(params.end(), extra.begin(), extra.end());
    report.add(kStructureNames[i], std::move(params), cells[i], ops_per_rep);
  }
}

/// A console table with one row per x-axis point and one column per
/// structure, in kStructureNames order.
inline cachetrie::harness::Table roster_table(const char* axis) {
  return cachetrie::harness::Table{
      {axis, "chm (ms)", "cachetrie", "w/o cache", "ctrie", "skiplist"}};
}

/// Adds one roster_table row: chm as "mean ±stddev", every other structure
/// as "ms (ratio vs chm)".
inline void add_roster_row(
    cachetrie::harness::Table& table, std::string axis_value,
    const std::vector<cachetrie::harness::Summary>& cells) {
  using cachetrie::harness::Table;
  const double chm_ms = cells[0].mean_ms;
  std::vector<std::string> row{
      std::move(axis_value), Table::fmt_mean_std(chm_ms, cells[0].stddev_ms)};
  for (std::size_t i = 1; i < cells.size(); ++i) {
    row.push_back(Table::fmt(cells[i].mean_ms) + " (" +
                  Table::fmt_ratio(cells[i].mean_ms, chm_ms) + ")");
  }
  table.add_row(std::move(row));
}

/// Adds per-op lookup tail-latency rows (p50/p90/p99/p999 cells, unit=ns)
/// for all five structures to the report. Each structure gets a fresh map
/// pre-filled with n keys, one warm pass over every key, then `passes`
/// measured passes on the TSC clock (see harness::measure_latency). Runs
/// single-threaded on purpose: the cells gate the *structure's* lookup tail
/// (cache-depth effects, pathological probe chains), not scheduler jitter.
inline void add_latency_rows(cachetrie::harness::BenchReport& report,
                             std::size_t n, std::size_t passes = 3) {
  const auto stats = run_roster([&](auto make) {
    auto map = make();
    for (std::size_t i = 0; i < n; ++i) map.insert(i, i);
    volatile std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (auto v = map.lookup(i)) sink = sink + *v;
    }
    return cachetrie::harness::measure_latency(
        [&](std::uint64_t i) {
          if (auto v = map.lookup(i % n)) sink = sink + *v;
        },
        n, passes);
  });
  const cachetrie::harness::BenchParams params{
      {"op", "lookup_latency"}, {"n", std::to_string(n)}};
  for (std::size_t i = 0; i < stats.size(); ++i) {
    report.add_latency(kStructureNames[i], params, stats[i]);
  }
}

/// Writes the artifact; exits non-zero on I/O failure so CI never mistakes
/// a dropped artifact for a clean run.
inline int finish_report(const cachetrie::harness::BenchReport& report) {
  return report.write() ? 0 : 1;
}

/// Thread counts swept by the parallel figures (paper: 1..8 on a 4c/8t i7).
inline std::vector<int> thread_sweep() {
  return cachetrie::harness::by_scale<std::vector<int>>(
      {1, 2, 4}, {1, 2, 4, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
}

/// Snapshot of the epoch domain's reclamation counters, for reporting the
/// limbo (retired-not-yet-freed) overhead next to live-structure footprints
/// — the paper's JVM numbers fold this cost into the GC, ours is explicit.
struct ReclaimSnapshot {
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  std::size_t limbo_bytes = 0;
  std::size_t limbo_bytes_hwm = 0;

  static ReclaimSnapshot take() {
    auto& dom = cachetrie::mr::EpochDomain::instance();
    return ReclaimSnapshot{dom.retired_count(), dom.freed_count(),
                           dom.retired_bytes(),
                           dom.retired_bytes_high_water()};
  }

  /// Prints the delta since `before` (counters are process-wide and
  /// monotonic, except limbo_bytes which is a level, not a counter).
  void print_delta(const ReclaimSnapshot& before, const char* label) const {
    std::printf(
        "reclamation [%s]: retired %llu, freed %llu, limbo now %.2f MB, "
        "limbo high-water %.2f MB\n",
        label, static_cast<unsigned long long>(retired - before.retired),
        static_cast<unsigned long long>(freed - before.freed),
        static_cast<double>(limbo_bytes) / 1e6,
        static_cast<double>(limbo_bytes_hwm) / 1e6);
  }
};

/// Inverse-CDF zipf(s=1.0) sampler over ranks 0..ranks-1, deterministic
/// (splitmix64 from `seed`) so the cells it drives are reproducible.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t ranks, std::uint64_t seed) : rng_(seed) {
    cdf_.reserve(ranks);
    double sum = 0.0;
    for (std::size_t r = 1; r <= ranks; ++r) {
      sum += 1.0 / static_cast<double>(r);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t next_rank() {
    const double u = static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;
    return static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  cachetrie::util::SplitMix64 rng_;
};

}  // namespace bench
