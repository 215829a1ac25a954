// fig11_insert_high_contention.cpp — reproduces Figure 11 (multi-threaded
// insert, HIGH contention): every thread inserts the same N keys in the
// same order, so threads collide on every single slot.
//
// Paper's findings: at N=50k cache-tries beat CHM by ~10% up to 4 threads;
// at 200k/600k they are 10-30% slower (more slow-path restarts under
// contention). Skip lists and ctries trail both.
//
// NOTE (single-core containers): with one hardware thread this measures
// contention overhead under preemptive interleaving, not parallel speedup;
// the relative ordering of structures is still informative.
#include "common.hpp"

namespace {

using cachetrie::harness::SharedKeys;
using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Make>
Summary bench_contended(Make&& make, const SharedKeys& workload,
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
      "Figure 11: multi-threaded insert, high contention",
      "All threads insert the same keys in the same order (paper: \"we\n"
      "expect a high contention\"); makespan in ms, ratio vs CHM.");

  const auto sizes = cachetrie::harness::by_scale<std::vector<std::size_t>>(
      {20000}, {50000, 200000, 600000}, {50000, 200000, 600000});

  cachetrie::harness::BenchReport report{"fig11_insert_high_contention"};

  for (const std::size_t n : sizes) {
    const SharedKeys workload{n};
    std::printf("--- N = %zu ---\n", n);
    Table table = bench::roster_table("threads");
    for (const int threads : bench::thread_sweep()) {
      const auto r = bench::run_roster([&](auto make) {
        return bench_contended(make, workload, threads);
      });
      bench::report_row(report, "insert_high_contention", n, threads, r,
                        static_cast<std::uint64_t>(n) * threads);
      bench::add_roster_row(table, std::to_string(threads), r);
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper): cachetrie ~CHM at 50k (<=4T even ~10%%\n"
      "faster), 1.1-1.3x slower at 200k/600k; ctrie and skiplist slower.\n");
  // Tail-latency cells (stat=p50/p90/p99/p999, unit=ns) in the artifact.
  bench::add_latency_rows(
      report, cachetrie::harness::by_scale<std::size_t>(20000, 50000, 200000));
  return bench::finish_report(report);
}
