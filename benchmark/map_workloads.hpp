// map_workloads.hpp — the embedded-map workloads: load threads call one
// unbounded CacheTrie directly in a closed loop, so no net layer is in the
// path and the trie, its cache and epoch reclamation do all the work.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace ctbench {

struct MapWorkload {
  const char* name;
  std::size_t key_space;  // keys in the stream; a power of two
  std::size_t prefill;    // the first `prefill` keys are inserted at set-up
  unsigned get_pct;       // lookup share of operations, in percent
  unsigned put_pct;       // insert share; the rest are removes
};

/// The paper's headline shape (Fig. 13 / A.5.3): 2^20 keys, ~86 MB, far
/// beyond L2, so the cache fast path and lookup depth decide the cost. The
/// inserts overwrite present keys, so every lookup must hit.
inline constexpr MapWorkload kMapReadLarge{"map_read_large", 1u << 20,
                                           1u << 20, 95, 5};
/// Writes beside reads on a trie that fits in L2: the two-CAS txn,
/// expand/compress, cache invalidation and epoch retire/free. Inserts and
/// removes balance at ~50% occupancy.
inline constexpr MapWorkload kMapChurnSmall{"map_churn_small", 1u << 14,
                                            1u << 13, 50, 25};

/// One load thread fewer than the 4 hardware threads: the spare one runs
/// the window clock, the kernel and the rest of the host's work, so no load
/// thread is preempted by them. In one interleaved experiment on a 4-vCPU
/// VM, 8 seeds each, 4 threads gave a run-to-run spread of 14% in
/// map_read_large's throughput; 3 threads gave 5%.
inline constexpr int kMapThreads = 3;
/// Operations per read of the window index; the first of each batch is
/// timed, so 1 in 64 operations is sampled.
inline constexpr int kBatch = 64;
/// In traced windows every 64th timed operation also becomes a span (1 in
/// 4096 operations), which keeps a dump near 50k spans.
inline constexpr std::uint64_t kMapSpanEvery = 64;

using Trie = cachetrie::CacheTrie<Key, Value>;

/// A load thread's outcome counts, checked after the run.
struct MapOutcomes {
  std::uint64_t inserted = 0;  // insert() returned true
  std::uint64_t removed = 0;   // remove() returned a value
  std::uint64_t wrong = 0;     // a value without its key's tag
  std::uint64_t missing = 0;   // a lookup missed a key that is never removed
};

inline void map_worker(Trie& map, const MapWorkload& wl,
                       const Schedule& sched, const Clock& clock,
                       std::uint64_t seed, int thread, Tallies& tallies,
                       MapOutcomes& out) {
  cachetrie::util::XorShift64Star rng{
      mix64(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(thread))};
  const std::uint64_t mask = wl.key_space - 1;
  const bool all_present = wl.get_pct + wl.put_pct == 100;
  std::uint32_t version = 0;
  std::uint64_t timed = 0;
  RunMeter meter(tallies);
  for (int w = sched.current(); !sched.done(w); w = sched.current()) {
    meter.at(w);
    Tally& tl = tallies[static_cast<std::size_t>(w)];
    const bool traced = sched.traced(w);
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t r = rng.next();
      const Key k = key_at(seed, r & mask);
      const auto pick = static_cast<unsigned>((r >> 32) % 100);
      const std::uint64_t t0 = i == 0 ? tsc::now() : 0;
      std::uint64_t t1 = 0;
      const char* op = nullptr;
      if (pick < wl.get_pct) {
        const auto v = map.lookup(k);
        if (i == 0) t1 = tsc::now();
        op = "map.lookup";
        ++tl.gets;
        if (v.has_value()) {
          ++tl.hits;
          if (!carries_tag(k, *v)) {
            ++out.wrong;
            ++tl.failed;
          }
        } else if (all_present) {
          ++out.missing;
          ++tl.failed;
        }
      } else if (pick < wl.get_pct + wl.put_pct) {
        const bool fresh = map.insert(k, make_value(k, ++version));
        if (i == 0) t1 = tsc::now();
        op = "map.insert";
        ++tl.puts;
        if (fresh) ++out.inserted;
      } else {
        const auto v = map.remove(k);
        if (i == 0) t1 = tsc::now();
        op = "map.remove";
        ++tl.removes;
        if (v.has_value()) {
          ++out.removed;
          if (!carries_tag(k, *v)) {
            ++out.wrong;
            ++tl.failed;
          }
        }
      }
      if (i == 0) {
        tl.latency.record(clock.call_ns(t0, t1));
        if (traced && ++timed % kMapSpanEvery == 0) {
          Span s;
          s.name = op;
          s.t0 = t0;
          s.t1 = t1;
          s.key = k;
          s.has_key = true;
          SpanLog::instance().record(s);
        }
      }
    }
    tl.ops += kBatch;
  }
}

inline RunResult run_map(const MapWorkload& wl, const Options& opt) {
  RunResult res;
  res.workload = wl.name;
  res.seed = opt.seed;
  res.traced = opt.traced;

  std::unique_ptr<Trie> map;
  res.setups = time_setups(
      [&] { map.reset(); },
      [&] {
        map = std::make_unique<Trie>();
        for (std::size_t i = 0; i < wl.prefill; ++i) {
          const Key k = key_at(opt.seed, i);
          map->insert(k, make_value(k, 0));
        }
      },
      allowed_cpus());

  Schedule sched(opt.seconds, opt.traced);
  std::vector<Tallies> tallies(kMapThreads,
                               Tallies(static_cast<std::size_t>(opt.seconds) + 1));
  std::vector<MapOutcomes> outcomes(kMapThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kMapThreads; ++t) {
      threads.emplace_back(map_worker, std::ref(*map), std::cref(wl),
                           std::cref(sched),
                           std::cref(opt.clock), opt.seed, t,
                           std::ref(tallies[static_cast<std::size_t>(t)]),
                           std::ref(outcomes[static_cast<std::size_t>(t)]));
    }
    sched.run(
        [&](int w) {
          if (w == 1) res.layers.registry_begin = obs::registry().snapshot();
          if (sched.done(w)) res.layers.registry_end = obs::registry().snapshot();
        },
        [] {});
  }  // joins the load threads

  res.windows = window_rows(tallies, sched, /*callers_never_sleep=*/true,
                            &res.measured);
  res.steal_frac = sched.steal();
  res.attempted = res.measured.ops;
  res.failed = res.measured.failed;

  MapOutcomes sum;
  for (const MapOutcomes& o : outcomes) {
    sum.inserted += o.inserted;
    sum.removed += o.removed;
    sum.wrong += o.wrong;
    sum.missing += o.missing;
  }
  const std::size_t size = map->size();
  if (sum.wrong != 0) {
    res.errors.push_back(std::to_string(sum.wrong) +
                         " returned values do not carry their key's tag");
  }
  if (sum.missing != 0) {
    res.errors.push_back(std::to_string(sum.missing) +
                         " lookups missed keys that are never removed");
  }
  if (wl.get_pct + wl.put_pct == 100) {
    if (sum.inserted != 0) {
      res.errors.push_back("insert() reported " + std::to_string(sum.inserted) +
                           " present keys as new");
    }
    if (size != wl.key_space) {
      res.errors.push_back("size() is " + std::to_string(size) + ", expected " +
                           std::to_string(wl.key_space));
    }
  } else if (size != wl.prefill + sum.inserted - sum.removed) {
    res.errors.push_back(
        "size() is " + std::to_string(size) + " but prefill + inserted - " +
        "removed is " + std::to_string(wl.prefill + sum.inserted - sum.removed));
  }
  for (const std::string& problem : map->debug_validate()) {
    res.errors.push_back("debug_validate: " + problem);
  }

  LayerData& ly = res.layers;
  ly.size = size;
  ly.footprint_bytes = map->footprint_bytes();
  ly.cache_level = map->cache_level();
  ly.level_top_pair_share = map->level_histogram().top_pair_share();
  res.mem_bytes_per_key = size == 0 ? 0.0
                                    : static_cast<double>(ly.footprint_bytes) /
                                          static_cast<double>(size);
  return res;
}

}  // namespace ctbench
