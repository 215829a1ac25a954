// perf_smoke.cpp — a fast, fixed-size performance canary for the CI gate.
//
// Unlike the figure binaries, sizes here do NOT scale with REPRO_SCALE: the
// point is a stable, comparable JSON artifact (BENCH_smoke.json) that
// scripts/perf_gate.py can diff across two runs or against the committed
// baseline. Three ops (insert, lookup, churn) x the five structures,
// ~100k keys, three reps — whole binary finishes in well under a minute on
// a small container.
#include "common.hpp"

namespace {

using cachetrie::harness::Summary;
using cachetrie::harness::Table;

constexpr std::size_t kN = 100000;

cachetrie::harness::MeasureOptions smoke_options() {
  // Fixed regardless of REPRO_SCALE — see the file comment.
  cachetrie::harness::MeasureOptions opts;
  opts.min_warmup = 1;
  opts.max_warmup = 3;
  opts.reps = 3;
  opts.cov_threshold = 0.10;
  return opts;
}

template <typename Make>
Summary smoke_insert(Make&& make, const std::vector<bench::Key>& keys) {
  return bench::measure_structure(
      make,
      [&](auto& map) {
        return cachetrie::harness::time_ms([&] {
          for (auto k : keys) map.insert(k, k);
        });
      },
      smoke_options());
}

template <typename Make>
Summary smoke_lookup(Make&& make, const std::vector<bench::Key>& keys) {
  auto map = make();
  for (auto k : keys) map.insert(k, k);
  for (auto k : keys) (void)map.lookup(k);  // warm any cache
  volatile std::uint64_t sink = 0;
  return cachetrie::harness::measure(
      [&]() -> double {
        return cachetrie::harness::time_ms([&] {
          std::uint64_t acc = 0;
          for (auto k : keys) acc += map.lookup(k).value_or(0);
          sink = acc;
        });
      },
      smoke_options());
}

template <typename Make>
Summary smoke_churn(Make&& make, const std::vector<bench::Key>& keys) {
  auto map = make();
  for (auto k : keys) map.insert(k, k);
  return cachetrie::harness::measure(
      [&]() -> double {
        return cachetrie::harness::time_ms([&] {
          for (auto k : keys) {
            (void)map.remove(k);
            map.insert(k, k);
          }
        });
      },
      smoke_options());
}

template <typename BenchOne>
void smoke_row(cachetrie::harness::BenchReport& report, Table& table,
               const char* op, const std::vector<bench::Key>& keys,
               std::uint64_t ops_per_rep, BenchOne bench_one) {
  const auto cells = bench::run_roster(bench_one);
  bench::report_row(report, op, keys.size(), /*threads=*/0, cells,
                    ops_per_rep);
  bench::add_roster_row(table, op, cells);
}

}  // namespace

int main() {
  bench::print_preamble(
      "Perf smoke: fixed-size canary for the regression gate",
      "Fixed 100k-key single-threaded insert/lookup/churn across all five\n"
      "structures; sizes ignore REPRO_SCALE so artifacts stay comparable.");

  const auto keys = cachetrie::harness::shuffled_sequential_keys(kN);
  cachetrie::harness::BenchReport report{"smoke"};

  Table table = bench::roster_table("op");
  smoke_row(report, table, "insert", keys, kN,
            [&](auto make) { return smoke_insert(make, keys); });
  smoke_row(report, table, "lookup", keys, kN,
            [&](auto make) { return smoke_lookup(make, keys); });
  smoke_row(report, table, "churn", keys, 2 * kN,
            [&](auto make) { return smoke_churn(make, keys); });
  table.print();

  // Tail-latency cells ride in the same artifact (stat=p50/p90/p99/p999,
  // unit=ns) so the perf gate can watch tails, not just means.
  bench::add_latency_rows(report, kN);

  return bench::finish_report(report);
}
