// runner.hpp — the measurement protocol of the paper's evaluation (§5),
// transplanted from ScalaMeter to native code:
//
//   1. run the benchmark body repeatedly until the coefficient of variation
//      over a sliding window drops below a threshold (warmup detected), or
//      a warmup budget is exhausted;
//   2. run `reps` measured repetitions;
//   3. report mean and standard deviation.
//
// The JVM original also forks fresh VM processes; a native binary has no
// JIT or GC to isolate, so process forking is intentionally dropped
// (documented in EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "harness/stats.hpp"
#include "obs/latency.hpp"
#include "obs/tsc.hpp"

namespace cachetrie::harness {

struct MeasureOptions {
  std::size_t min_warmup = 2;
  std::size_t max_warmup = 12;
  double cov_threshold = 0.10;
  std::size_t cov_window = 3;
  std::size_t reps = 5;
};

/// Scale profile: container-friendly sizes by default; REPRO_SCALE=paper
/// selects the paper's exact sizes (needs a real multicore and ~8 GB), and
/// REPRO_SCALE=smoke shrinks everything for CI-style runs.
enum class Scale { kSmoke, kDefault, kPaper };

inline Scale scale_from_env() {
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr) return Scale::kDefault;
  const std::string s{env};
  if (s == "paper") return Scale::kPaper;
  if (s == "smoke") return Scale::kSmoke;
  return Scale::kDefault;
}

/// Human/JSON name of the active scale profile.
inline const char* scale_name() {
  switch (scale_from_env()) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kPaper:
      return "paper";
    default:
      return "default";
  }
}

/// Picks one of three values by the active scale profile.
template <typename T>
T by_scale(T smoke, T dflt, T paper) {
  switch (scale_from_env()) {
    case Scale::kSmoke:
      return smoke;
    case Scale::kPaper:
      return paper;
    default:
      return dflt;
  }
}

/// Milliseconds consumed by fn().
template <typename F>
double time_ms(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Full protocol: `body()` must execute one complete benchmark iteration
/// and return its duration in milliseconds (so it can exclude setup).
template <typename Body>
Summary measure(Body&& body, const MeasureOptions& opts = {}) {
  Summary summary;
  SlidingCov warm{opts.cov_window};
  std::size_t iters = 0;
  while (iters < opts.max_warmup) {
    warm.add(body());
    ++iters;
    if (iters >= opts.min_warmup && warm.full() &&
        warm.cov() < opts.cov_threshold) {
      break;
    }
  }
  summary.warmup_iters = iters;

  RunningStats rs;
  for (std::size_t r = 0; r < opts.reps; ++r) {
    rs.add(body());
  }
  summary.mean_ms = rs.mean();
  summary.stddev_ms = rs.stddev();
  summary.min_ms = rs.min();
  summary.max_ms = rs.max();
  summary.reps = rs.count();
  return summary;
}

/// One latency quantile aggregated across measurement passes. Units are
/// nanoseconds (not ms): per-op latencies live in the 10ns–10µs range and
/// the bench schema's *_ms fields are reused verbatim by add_latency().
struct LatencyQuantile {
  double mean_ns = 0.0;
  double stddev_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
};

/// Tail-latency report for one benchmark cell: p50/p90/p99/p999 of the
/// per-operation latency distribution, each summarized over `passes`
/// independent passes so a stddev is available for noise gating.
struct LatencySummary {
  LatencyQuantile p50;
  LatencyQuantile p90;
  LatencyQuantile p99;
  LatencyQuantile p999;
  std::uint64_t ops_per_pass = 0;
  std::size_t passes = 0;
};

/// Per-operation latency protocol. `per_op(i)` executes the i-th operation;
/// each of `passes` passes times all `ops` operations individually on the
/// TSC clock (tsc::now_ordered(), so neither read overlaps the op) into a
/// log2-sub-bucketed histogram (≤1/16 relative error),
/// then the per-pass quantiles are combined with Welford so the artifact
/// cells carry a cross-pass stddev. Runs *after* the throughput reps by
/// convention — the structure is warm and the timing cells are unaffected.
template <typename PerOp>
LatencySummary measure_latency(PerOp&& per_op, std::uint64_t ops,
                               std::size_t passes = 3) {
  // Force calibration outside the timed region (first call busy-waits).
  const double ns_per_tick = obs::tsc::calibration().ns_per_tick;
  RunningStats q50, q90, q99, q999;
  for (std::size_t p = 0; p < passes; ++p) {
    obs::LatencyHistogram h;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t t0 = obs::tsc::now_ordered();
      per_op(i);
      const std::uint64_t t1 = obs::tsc::now_ordered();
      h.record(t1 - t0);
    }
    q50.add(static_cast<double>(h.quantile(0.50)) * ns_per_tick);
    q90.add(static_cast<double>(h.quantile(0.90)) * ns_per_tick);
    q99.add(static_cast<double>(h.quantile(0.99)) * ns_per_tick);
    q999.add(static_cast<double>(h.quantile(0.999)) * ns_per_tick);
  }
  const auto pack = [](const RunningStats& rs) {
    return LatencyQuantile{rs.mean(), rs.stddev(), rs.min(), rs.max()};
  };
  LatencySummary out;
  out.p50 = pack(q50);
  out.p90 = pack(q90);
  out.p99 = pack(q99);
  out.p999 = pack(q999);
  out.ops_per_pass = ops;
  out.passes = passes;
  return out;
}

}  // namespace cachetrie::harness
