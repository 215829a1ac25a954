// fig09_footprint.cpp — reproduces Figure 9 (memory footprint comparison)
// and the appendix A.5.2 numbers.
//
// Paper's findings, which the multipliers below should mirror in shape:
//   * skip lists consume the least memory (the normalization baseline);
//   * cache-tries and Ctries are roughly equal, ~50% above CHM;
//   * the cache adds typically <10% over the cache-less variant.
//
// Footprints are traversal-based byte counts of live structure, each node
// at the node pool's class size (NodePool::class_bytes), the same rule for
// every structure. A second table sets the cache-trie's charged bytes per
// key beside what its nodes really take from the node pool
// (mr/node_pool.hpp): alignment gaps and free-list slack included.
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "mr/node_pool.hpp"

namespace {

/// NodePool::mapped_bytes() that a fresh cache-trie of `n` keys (filled,
/// then looked up once so its cache exists) adds, or -1 when the pool is
/// off (ASan builds). The pool never unmaps and reuses whatever was
/// freed before, so each size is measured in a forked child whose pool has
/// served nothing else; call it before building any structure. Resolution
/// is one 2 MiB chunk.
double pooled_bytes(std::size_t n) {
  if (!cachetrie::mr::NodePool::kEnabled) return -1.0;
  int fds[2];
  if (::pipe(fds) != 0) return -1.0;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const auto keys = cachetrie::harness::random_keys(n);
    const std::size_t m0 = cachetrie::mr::NodePool::mapped_bytes();
    auto trie = bench::make_cachetrie();
    for (auto k : keys) trie.insert(k, k);
    for (auto k : keys) (void)trie.lookup(k);
    const double delta = static_cast<double>(
        cachetrie::mr::NodePool::mapped_bytes() - m0);
    const bool ok = ::write(fds[1], &delta, sizeof(delta)) ==
                    static_cast<ssize_t>(sizeof(delta));
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  double delta = -1.0;
  if (pid < 0 || ::read(fds[0], &delta, sizeof(delta)) !=
                     static_cast<ssize_t>(sizeof(delta))) {
    delta = -1.0;
  }
  ::close(fds[0]);
  if (pid > 0) ::waitpid(pid, nullptr, 0);
  return delta;
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 9 + A.5.2: memory footprint",
      "N keys inserted into each structure; footprint in MB and as a\n"
      "multiplier over the skip list (the paper's baseline for this figure).");

  using cachetrie::harness::Table;
  using cachetrie::harness::by_scale;

  const auto sizes = by_scale<std::vector<std::size_t>>(
      {50000, 200000}, {50000, 500000, 1000000, 2000000},
      {50000, 500000, 1000000, 1500000, 2000000});

  cachetrie::harness::BenchReport report{"fig09_footprint"};
  // Footprints are exact single measurements (byte counts), not timings:
  // the Summary carries bytes in mean_ms with zero spread, and the cell's
  // params mark the unit so perf_gate.py and plotting scripts don't treat
  // them as milliseconds.
  auto bytes_summary = [](double bytes) {
    cachetrie::harness::Summary s;
    s.mean_ms = bytes;
    s.min_ms = bytes;
    s.max_ms = bytes;
    s.reps = 1;
    return s;
  };

  std::vector<double> pooled;
  for (const std::size_t n : sizes) pooled.push_back(pooled_bytes(n));

  Table table{{"size", "skiplist", "chm", "ctrie", "cachetrie w/o cache",
               "cachetrie"}};
  Table pool_table{{"size", "cachetrie charged", "cachetrie pooled",
                    "pooled / charged"}};
  const auto reclaim0 = bench::ReclaimSnapshot::take();
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    const std::size_t n = sizes[row];
    const auto keys = cachetrie::harness::random_keys(n);
    auto fill = [&](auto& map) {
      for (auto k : keys) map.insert(k, k);
      return static_cast<double>(map.footprint_bytes());
    };

    bench::SkipListMap slist;
    bench::ChmMap chm;
    bench::CtrieMap ctrie;
    auto trie_nc = bench::make_cachetrie_nocache();
    auto trie = bench::make_cachetrie();
    const double sl = fill(slist);
    const double hm = fill(chm);
    const double ct = fill(ctrie);
    const double tnc = fill(trie_nc);
    double tc = fill(trie);
    // Footprint includes the cache only once lookups created it; warm it.
    for (std::size_t i = 0; i < keys.size(); ++i) (void)trie.lookup(keys[i]);
    tc = static_cast<double>(trie.footprint_bytes());

    bench::report_row(report, "footprint", n, /*threads=*/0,
                      {bytes_summary(hm), bytes_summary(tc),
                       bytes_summary(tnc), bytes_summary(ct),
                       bytes_summary(sl)},
                      /*ops_per_rep=*/0, {{"unit", "bytes"}});

    auto cell = [&](double bytes) {
      return Table::fmt(bytes / 1e6) + " MB (" + Table::fmt_ratio(bytes, sl) +
             ")";
    };
    table.add_row({std::to_string(n), cell(sl), cell(hm), cell(ct),
                   cell(tnc), cell(tc)});

    // Charged node bytes: the cache-less trie holds the same nodes (same
    // keys, same order, one thread). Cache arrays are not pool nodes.
    const double nodes =
        tnc - static_cast<double>(sizeof(bench::CacheTrieMap));
    auto per_key = [&](double bytes) {
      return Table::fmt(bytes / static_cast<double>(n)) + " B/key";
    };
    const double pb = pooled[row];
    pool_table.add_row({std::to_string(n), per_key(nodes),
                        pb < 0 ? std::string("n/a") : per_key(pb),
                        pb < 0 ? std::string("n/a")
                               : Table::fmt_ratio(pb, nodes)});
  }
  table.print();
  std::printf("\ncache-trie node bytes: charged vs taken from the node pool "
              "(2 MiB chunk resolution)\n");
  pool_table.print();

  // Footprints above count live structure only; this line makes the EBR
  // limbo overhead visible (the high-water mark bounds how far retired
  // bytes ever outran the frees during the fills).
  bench::ReclaimSnapshot::take().print_delta(reclaim0, "fig09 fills");

  std::printf(
      "\nexpected shape (paper): skiplist lowest; ctrie ~= cachetrie;\n"
      "tries ~1.3-1.5x CHM; cache adds <10%% over w/o-cache.\n");
  // Tail-latency cells (stat=p50/p90/p99/p999, unit=ns) in the artifact.
  bench::add_latency_rows(
      report, cachetrie::harness::by_scale<std::size_t>(20000, 50000, 200000));
  return bench::finish_report(report);
}
