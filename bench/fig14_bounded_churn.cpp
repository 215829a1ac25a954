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
//     well lazy clock-hand eviction approximates LRU. The same stream
//     replays through two exact oracles that hold as many pairs as the trie
//     held at the end of its run: exact LRU (trie - LRU is the policy's
//     fidelity gap) and static top-C, the ideal cache of that capacity on
//     this stationary stream (its zipf_miss_rate cell is the floor; LRU -
//     top-C is what recency alone leaves on the table).
//
// Like perf_smoke, sizes are fixed — REPRO_SCALE is ignored so
// BENCH_fig14_bounded_churn.json stays comparable across runs and
// scripts/perf_gate.py can diff it against the committed baseline. Byte,
// pair, fraction and rate cells carry a unit param (exact counts: relative
// budget, no stddev allowance); the churn/zipf wall-clock cells are normal
// timing cells, and only the trie has them.
#include <algorithm>
#include <atomic>
#include <list>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cachetrie/evict.hpp"
#include "common.hpp"
#include "mr/node_pool.hpp"
#include "obs/sites.hpp"

namespace {

using cachetrie::harness::Summary;
using cachetrie::harness::Table;
namespace sites = cachetrie::obs::sites;

using BoundedTrie =
    cachetrie::evict::BoundedCacheTrie<bench::Key, bench::Val>;

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
/// fresh (never-repeated) keys into a fresh trie; the calling thread samples
/// resident bytes until the writers drain. Returns elapsed ms, accumulates
/// into `stats`.
Summary run_churn(ChurnStats& stats) {
  return cachetrie::harness::measure(
      [&]() -> double {
        BoundedTrie map{bounded_config()};
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

/// Exact LRU over `capacity` pairs: a hit moves the key to the front, an
/// insert into a full cache drops the back.
class LruOracle {
 public:
  explicit LruOracle(std::size_t capacity) : capacity_(capacity) {}

  std::optional<bench::Val> lookup(bench::Key k) {
    const auto it = index_.find(k);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  void insert(bench::Key k, bench::Val v) {
    if (index_.size() == capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(k, v);
    index_.emplace(k, order_.begin());
  }

  std::size_t size() const { return index_.size(); }

 private:
  using Entry = std::pair<bench::Key, bench::Val>;
  std::size_t capacity_;
  std::list<Entry> order_;
  std::unordered_map<bench::Key, std::list<Entry>::iterator> index_;
};

/// Static top-C: exactly the C most popular keys are resident. ZipfReplay
/// keys 0-based rank r as r + 1, so key k is the k-th most popular and hits
/// iff k <= C.
class TopCOracle {
 public:
  explicit TopCOracle(std::size_t capacity) : capacity_(capacity) {}

  std::optional<bench::Val> lookup(bench::Key k) const {
    if (k > capacity_) return std::nullopt;
    return k;
  }
  void insert(bench::Key, bench::Val) {}
  std::size_t size() const { return capacity_; }

 private:
  std::size_t capacity_;
};

/// The zipf stream every fig14 map consumes: kZipfWarm warm-up ops on
/// construction, then kZipfOps per pass(), which returns the pass's miss %.
/// Read-mostly cache usage: lookup, insert on miss. Single-threaded on
/// purpose — the cells gate the eviction *policy* (what the cache kept), not
/// scheduler jitter.
template <typename Map>
class ZipfReplay {
 public:
  explicit ZipfReplay(Map& map) : map_(map) {
    for (std::size_t i = 0; i < kZipfWarm; ++i) (void)step();
  }

  double pass() {
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < kZipfOps; ++i) hits += step() ? 1 : 0;
    return 100.0 * static_cast<double>(kZipfOps - hits) /
           static_cast<double>(kZipfOps);
  }

 private:
  bool step() {
    const auto k = static_cast<bench::Key>(zipf_.next_rank()) + 1;
    if (map_.lookup(k).has_value()) return true;
    map_.insert(k, k);
    return false;
  }

  Map& map_;
  bench::ZipfSampler zipf_{kZipfRanks, 0x5eedull};
};

struct ZipfStats {
  double miss_pct = 0.0;
  std::size_t held_pairs = 0;
  std::size_t passes = 0;  // warm-up and measured passes
};

/// The trie's timed run: the measured window's last pass reports the miss
/// percentage, and `held_pairs` is what the trie held at its end.
Summary run_zipf(ZipfStats& stats) {
  BoundedTrie trie{bounded_config()};
  ZipfReplay replay(trie);
  const Summary timing = cachetrie::harness::measure(
      [&]() -> double {
        return cachetrie::harness::time_ms(
            [&] { stats.miss_pct = replay.pass(); });
      },
      fig14_options());
  stats.held_pairs = trie.size();
  stats.passes = timing.warmup_iters + timing.reps;
  return timing;
}

/// An oracle's replay of the trie's stream, pass for pass: the same sampler
/// and seed, the same warm-up and the same number of passes.
template <typename Oracle>
ZipfStats replay_oracle(Oracle oracle, std::size_t passes) {
  ZipfReplay replay(oracle);
  ZipfStats stats;
  for (std::size_t p = 0; p < passes; ++p) stats.miss_pct = replay.pass();
  stats.held_pairs = oracle.size();
  stats.passes = passes;
  return stats;
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 14: bounded-memory mode — churn ceiling + zipf hit rate",
      "A 1 MiB-ceiling bounded trie under (a) a 10x-ceiling fresh-key churn\n"
      "stream (4 writers; resident high-water mark must hold under\n"
      "ceiling+slack) and (b) a single-threaded zipf(1.0)\n"
      "lookup/insert-on-miss workload, replayed through exact LRU and static\n"
      "top-C at the trie's capacity. Fixed sizes; REPRO_SCALE is ignored so\n"
      "artifacts stay comparable.");

  cachetrie::harness::BenchReport report{"fig14_bounded_churn"};
  const auto reclaim0 = bench::ReclaimSnapshot::take();
  constexpr const char* kTrie = "bounded_cachetrie";
  const std::string n = std::to_string(kChurnKeys);
  const std::string ranks = std::to_string(kZipfRanks);

  ChurnStats churn;
  const Summary churn_ms = run_churn(churn);
  // The trie is the only map here, so the pool's process-wide mapping is
  // its alone; mapping only grows, so this is the churn's high-water mark.
  const auto reclaim = bench::ReclaimSnapshot::take();
  const double mapped_frac =
      static_cast<double>(cachetrie::mr::NodePool::mapped_bytes() +
                          reclaim.limbo_bytes_hwm) /
      static_cast<double>(kCeiling);

  report.add(kTrie,
             {{"op", "bounded_churn"},
              {"n", n},
              {"threads", std::to_string(kChurnThreads)}},
             churn_ms, kChurnKeys);
  report.add(kTrie,
             {{"op", "churn_resident_hwm"}, {"n", n}, {"unit", "bytes"}},
             exact_summary(static_cast<double>(churn.hwm)));
  report.add(kTrie,
             {{"op", "churn_resident_final"}, {"n", n}, {"unit", "bytes"}},
             exact_summary(static_cast<double>(churn.final_resident)));
  report.add(kTrie,
             {{"op", "churn_mapped_plus_limbo"},
              {"n", n},
              {"unit", "fraction"}},
             exact_summary(mapped_frac));

  ZipfStats zipf;
  const Summary zipf_ms = run_zipf(zipf);
  report.add(kTrie,
             {{"op", "zipf_mixed"},
              {"n", std::to_string(kZipfOps)},
              {"ranks", ranks}},
             zipf_ms, kZipfOps);
  const ZipfStats lru = replay_oracle(LruOracle{zipf.held_pairs}, zipf.passes);
  const ZipfStats top_c =
      replay_oracle(TopCOracle{zipf.held_pairs}, zipf.passes);

  Table table{{"structure", "zipf (ms)", "held pairs", "miss %"}};
  const auto land_zipf = [&](const char* name, const ZipfStats& z,
                             const std::string& ms) {
    report.add(
        name, {{"op", "zipf_miss_rate"}, {"ranks", ranks}, {"unit", "percent"}},
        exact_summary(z.miss_pct));
    report.add(name,
               {{"op", "zipf_held_pairs"}, {"ranks", ranks}, {"unit", "pairs"}},
               exact_summary(static_cast<double>(z.held_pairs)));
    table.add_row({name, ms, std::to_string(z.held_pairs),
                   Table::fmt(z.miss_pct)});
  };
  land_zipf(kTrie, zipf,
            Table::fmt_mean_std(zipf_ms.mean_ms, zipf_ms.stddev_ms));
  land_zipf("exact_lru", lru, "-");
  land_zipf("static_top_c", top_c, "-");

  std::printf(
      "churn: %.2f ms ±%.2f, %llu evicted, resident hwm %.2f MB, final "
      "%.2f MB\n",
      churn_ms.mean_ms, churn_ms.stddev_ms,
      static_cast<unsigned long long>(churn.evictions),
      static_cast<double>(churn.hwm) / 1e6,
      static_cast<double>(churn.final_resident) / 1e6);
  std::printf(
      "resident hwm / ceiling %.3f, (pool mapped + limbo hwm) / ceiling "
      "%.3f\n",
      static_cast<double>(churn.hwm) / static_cast<double>(kCeiling),
      mapped_frac);
  // The ceiling governs live structure; this line shows how far the EBR
  // limbo (retired-not-yet-freed) ever outran the frees during the churn.
  reclaim.print_delta(reclaim0, "fig14 churn");
  std::printf("\n");
  table.print();
  std::printf(
      "gaps: trie - LRU %+.2f points (policy fidelity), LRU - top-C %+.2f "
      "points (recency vs. the ideal), at %zu pairs (%.1f ceiling B/pair)\n",
      zipf.miss_pct - lru.miss_pct, lru.miss_pct - top_c.miss_pct,
      zipf.held_pairs,
      static_cast<double>(kCeiling) / static_cast<double>(zipf.held_pairs));

  const bool ceiling_held = churn.hwm <= kCeiling + kSlack;
  if (!ceiling_held) {
    std::fprintf(stderr,
                 "FAIL [%s]: churn resident high-water %zu escaped "
                 "ceiling %zu + slack %zu (evictions=%llu scans=%llu)\n",
                 kTrie, churn.hwm, kCeiling, kSlack,
                 static_cast<unsigned long long>(churn.evictions),
                 static_cast<unsigned long long>(churn.scans));
  }

  std::printf(
      "\nexpected shape: the trie's resident high-water mark holds under\n"
      "%.2f MB and its final resident tracks the ceiling exactly\n"
      "(double-entry ledger); zipf miss rate well under the 100%% an\n"
      "uncached pass would pay, ordered trie >= exact LRU >= static top-C.\n",
      static_cast<double>(kCeiling + kSlack) / 1e6);

  const int report_rc = bench::finish_report(report);
  if (!ceiling_held) return 1;  // the acceptance criterion is the ceiling
  return report_rc;
}
