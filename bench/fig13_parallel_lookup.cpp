// fig13_parallel_lookup.cpp — reproduces Figure 13 (multi-threaded lookup,
// 1M keys): the structure is pre-filled, then each thread looks up every
// key once.
//
// Paper's findings: CHM fastest; cache-trie up to 60% slower than CHM (the
// extra pointer hop after the cache read — Theorem 4.2 spreads keys over
// two adjacent levels); both far ahead of ctrie and skip lists.
#include "common.hpp"

namespace {

using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Make>
Summary bench_parallel_lookup(Make&& make,
                              const std::vector<bench::Key>& keys,
                              int threads) {
  auto map = make();
  for (auto k : keys) map.insert(k, k);
  // Warm the cache-trie's cache (slow lookups inhabit it).
  for (auto k : keys) (void)map.lookup(k);
  std::atomic<std::uint64_t> sink{0};
  return cachetrie::harness::measure(
      [&]() -> double {
        return cachetrie::harness::run_team_ms(threads, [&](int) {
          std::uint64_t acc = 0;
          for (auto k : keys) acc += map.lookup(k).value_or(0);
          sink.fetch_add(acc, std::memory_order_relaxed);
        });
      },
      bench::bench_options());
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 13: multi-threaded lookup",
      "Pre-filled with N keys; every thread looks up all N keys once;\n"
      "makespan in ms, ratio vs CHM.");

  const std::size_t n = cachetrie::harness::by_scale<std::size_t>(
      50000, 1000000, 1000000);
  const auto keys = cachetrie::harness::shuffled_sequential_keys(n);
  std::printf("--- N = %zu ---\n", n);

  cachetrie::harness::BenchReport report{"fig13_parallel_lookup"};

  Table table = bench::roster_table("threads");
  for (const int threads : bench::thread_sweep()) {
    const auto r = bench::run_roster([&](auto make) {
      return bench_parallel_lookup(make, keys, threads);
    });
    bench::report_row(report, "parallel_lookup", n, threads, r,
                      static_cast<std::uint64_t>(n) * threads);
    bench::add_roster_row(table, std::to_string(threads), r);
  }
  table.print();
  std::printf(
      "\nexpected shape (paper): CHM < cachetrie (<=1.6x) << w/o-cache ~\n"
      "ctrie << skiplist; cachetrie 2-3x faster than ctrie at 100k-1M.\n");
  // Tail-latency cells (stat=p50/p90/p99/p999, unit=ns) in the artifact.
  bench::add_latency_rows(
      report, cachetrie::harness::by_scale<std::size_t>(20000, 50000, 200000));
  return bench::finish_report(report);
}
