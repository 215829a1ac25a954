// fig12_insert_low_contention.cpp — reproduces Figure 12 (multi-threaded
// insert, LOW contention): threads insert disjoint key ranges.
//
// Paper's findings: cache-tries beat CHM by 30-50% at 100k and 1M total
// keys and by up to 20% at 10M — the trie grows without CHM's table-resize
// stalls ("unlike hash tables, cache-tries do not require resizing a large
// underlying array").
//
// The paper's 10M-key point is scaled to 2M by default (10M at
// REPRO_SCALE=paper).
#include "common.hpp"

namespace {

using cachetrie::harness::DisjointKeys;
using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Make>
Summary bench_disjoint(Make&& make, const DisjointKeys& workload,
                       int threads) {
  return bench::measure_structure(
      make,
      [&](auto& map) {
        return cachetrie::harness::run_team_ms(threads, [&](int t) {
          for (auto k : workload.for_thread(t)) map.insert(k, k);
        });
      },
      bench::bench_options());
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 12: multi-threaded insert, low contention",
      "Threads insert disjoint key ranges (N total keys split evenly);\n"
      "makespan in ms, ratio vs CHM.");

  const auto totals = cachetrie::harness::by_scale<std::vector<std::size_t>>(
      {40000}, {100000, 1000000, 2000000}, {100000, 1000000, 10000000});

  cachetrie::harness::BenchReport report{"fig12_insert_low_contention"};

  for (const std::size_t total : totals) {
    std::printf("--- N = %zu total ---\n", total);
    Table table = bench::roster_table("threads");
    for (const int threads : bench::thread_sweep()) {
      const DisjointKeys workload{threads, total / threads};
      const auto r = bench::run_roster([&](auto make) {
        return bench_disjoint(make, workload, threads);
      });
      bench::report_row(report, "insert_low_contention", total, threads, r,
                        total);
      bench::add_roster_row(table, std::to_string(threads), r);
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper): cachetrie 1.3-1.5x FASTER than CHM at\n"
      "100k/1M, up to 1.2x faster at the largest size.\n");
  // Tail-latency cells (stat=p50/p90/p99/p999, unit=ns) in the artifact.
  bench::add_latency_rows(
      report, cachetrie::harness::by_scale<std::size_t>(20000, 50000, 200000));
  return bench::finish_report(report);
}
