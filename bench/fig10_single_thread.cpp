// fig10_single_thread.cpp — reproduces Figure 10 (single-threaded lookup
// and insert running times vs. number of keys).
//
// Paper's findings (shapes to mirror):
//   lookup: CHM fastest; cache-trie 1.6-2.1x slower than CHM but well ahead
//           of ctrie (up to 7.5x slower than CHM) and skip lists (up to 36x);
//   insert: cache-trie within +-20% of CHM; w/o-cache close behind;
//           ctrie ~1.5x; skip list ~6x slower.
#include <map>

#include "common.hpp"

namespace {

using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Make>
Summary bench_lookup(Make&& make, const std::vector<bench::Key>& keys) {
  auto map = make();
  for (auto k : keys) map.insert(k, k);
  volatile std::uint64_t sink = 0;
  return cachetrie::harness::measure(
      [&]() -> double {
        return cachetrie::harness::time_ms([&] {
          std::uint64_t acc = 0;
          for (auto k : keys) acc += map.lookup(k).value_or(0);
          sink = acc;
        });
      },
      bench::bench_options());
}

/// Where the last timed fill of N keys left the cache-trie's cache, and how
/// many depth-sampling passes that fill ran (inserts feed the miss rule).
struct FillCache {
  std::int32_t level = -1;
  std::uint64_t sampling_passes = 0;
};

template <typename Make>
Summary bench_insert(Make&& make, const std::vector<bench::Key>& keys,
                     std::map<std::size_t, FillCache>& fills) {
  return bench::measure_structure(
      make,
      [&](auto& map) {
        const std::uint64_t passes0 =
            cachetrie::obs::sites::cachetrie_sampling_pass.total();
        const double ms = cachetrie::harness::time_ms([&] {
          for (auto k : keys) map.insert(k, k);
        });
        if constexpr (requires { map.cache_level(); }) {
          if (map.cache_level() >= 0) {
            fills[keys.size()] = {
                map.cache_level(),
                cachetrie::obs::sites::cachetrie_sampling_pass.total() -
                    passes0};
          }
        }
        return ms;
      },
      bench::bench_options());
}

template <typename BenchOne>
void print_figure(const char* title, const std::vector<std::size_t>& sizes,
                  cachetrie::harness::BenchReport& report, BenchOne bench_one) {
  std::printf("--- %s ---\n", title);
  Table table = bench::roster_table("N");
  for (const std::size_t n : sizes) {
    const auto keys = cachetrie::harness::shuffled_sequential_keys(n);
    const auto r =
        bench::run_roster([&](auto make) { return bench_one(make, keys); });
    bench::report_row(report, title, n, /*threads=*/0, r, n);
    bench::add_roster_row(table, std::to_string(n), r);
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 10: single-threaded lookup and insert",
      "Times to look up / insert every one of N keys once; multipliers are\n"
      "relative to CHM (the paper's baseline).");

  const auto sizes = cachetrie::harness::by_scale<std::vector<std::size_t>>(
      {20000, 50000}, {50000, 150000, 300000, 500000},
      {50000, 100000, 200000, 300000, 400000, 500000});

  cachetrie::harness::BenchReport report{"fig10_single_thread"};

  print_figure("lookup", sizes, report, [](auto make, const auto& keys) {
    return bench_lookup(make, keys);
  });
  std::map<std::size_t, FillCache> fills;
  print_figure("insert", sizes, report, [&](auto make, const auto& keys) {
    return bench_insert(make, keys, fills);
  });
  for (const auto& [n, fill] : fills) {
    std::printf("cachetrie insert of %zu keys from empty: cache level %d, "
                "%llu sampling passes\n",
                n, fill.level,
                static_cast<unsigned long long>(fill.sampling_passes));
  }

  std::printf(
      "expected shape (paper): lookup CHM < cachetrie (1.6-2.1x) << ctrie\n"
      "(<=7.5x) << skiplist (<=36x); insert cachetrie within +-20%% of CHM.\n");
  // Tail-latency cells (stat=p50/p90/p99/p999, unit=ns) in the artifact.
  bench::add_latency_rows(
      report, cachetrie::harness::by_scale<std::size_t>(20000, 50000, 200000));
  return bench::finish_report(report);
}
