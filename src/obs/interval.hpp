// interval.hpp — pull-based snapshot differ: what changed since the last
// look, as rates and interval distributions.
//
// A cumulative obs::Snapshot answers "how much ever happened"; a monitoring
// poll wants "how much happened *lately* and how fast". Because counters
// are monotone and histogram buckets are monotone per bucket, the delta of
// two snapshots is itself a well-formed snapshot of exactly the interval
// between them: counter deltas divide into rates, and bucket-wise
// subtraction yields the *interval histogram*, whose quantiles describe
// only the requests that landed since the previous pull — the cumulative
// quantile's long memory is gone. That subtraction is the whole trick; the
// rest is bookkeeping (DESIGN.md §2d).
//
// IntervalDiffer is the stateful pull endpoint: each advance() diffs the
// registry's current state against the previous advance() and remembers
// the new state. One differ per puller — the serving layer gives each
// shard its own (a kStats request is served by one shard), and the example
// server's --stats-interval loop owns another; pullers never share a
// differ, so no locking beyond the registry's own snapshot mutex.
//
// A registry reset() between pulls makes cumulative values shrink; the
// differ detects the rewind (cur < prev) per metric and falls back to
// diffing against zero, so a reset shows up as "everything since the
// reset" rather than as underflowed garbage.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace cachetrie::obs {

/// The delta between two registry snapshots. Plain data, like Snapshot;
/// entries with nothing to report (zero counter delta, zero histogram
/// count delta) are omitted so the wire form stays proportional to
/// activity, not to the size of the metric inventory. Gauges are levels,
/// not events — every gauge is reported, with its movement.
struct SnapshotDelta {
  double interval_s = 0.0;  // 0 on the first pull (nothing to rate against)

  struct CounterRate {
    std::string name;
    std::uint64_t delta = 0;
    double per_s = 0.0;  // delta / interval_s; 0 when interval_s == 0
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;  // current level
    std::int64_t delta = 0;  // movement since the previous pull
  };
  struct HistogramDrift {
    std::string name;
    std::uint64_t count_delta = 0;
    double interval_p50 = 0.0;  // quantiles of the interval histogram
    double interval_p99 = 0.0;
    double cum_p50_drift = 0.0;  // cumulative-quantile movement across the
    double cum_p99_drift = 0.0;  // interval (positive = tail got heavier)
  };

  std::vector<CounterRate> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramDrift> histograms;

  /// {"interval_s":..,"counters":{name:{"delta":..,"per_s":..}},
  ///  "gauges":{name:{"value":..,"delta":..}},
  ///  "histograms":{name:{"count_delta":..,"p50":..,"p99":..,
  ///                      "cum_p50_drift":..,"cum_p99_drift":..}}}
  void write_json(std::ostream& os) const {
    os << "{\"interval_s\":" << interval_s << ",\"counters\":{";
    for (std::size_t i = 0; i < counters.size(); ++i) {
      if (i != 0) os << ",";
      os << "\"";
      detail_emit::json_escape(os, counters[i].name);
      os << "\":{\"delta\":" << counters[i].delta << ",\"per_s\":"
         << counters[i].per_s << "}";
    }
    os << "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      if (i != 0) os << ",";
      os << "\"";
      detail_emit::json_escape(os, gauges[i].name);
      os << "\":{\"value\":" << gauges[i].value << ",\"delta\":"
         << gauges[i].delta << "}";
    }
    os << "},\"histograms\":{";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      if (i != 0) os << ",";
      const auto& h = histograms[i];
      os << "\"";
      detail_emit::json_escape(os, h.name);
      os << "\":{\"count_delta\":" << h.count_delta << ",\"p50\":"
         << h.interval_p50 << ",\"p99\":" << h.interval_p99
         << ",\"cum_p50_drift\":" << h.cum_p50_drift << ",\"cum_p99_drift\":"
         << h.cum_p99_drift << "}";
    }
    os << "}}";
  }

  /// Human form for live watching (--stats-interval in the example server).
  void print_table(std::ostream& os) const {
    os << "interval " << interval_s << "s\n";
    for (const auto& c : counters) {
      os << "  " << c.name << "  +" << c.delta << "  (" << c.per_s
         << "/s)\n";
    }
    for (const auto& g : gauges) {
      if (g.delta == 0 && g.value == 0) continue;
      os << "  " << g.name << "  " << g.value
         << (g.delta >= 0 ? "  (+" : "  (") << g.delta << ")\n";
    }
    for (const auto& h : histograms) {
      os << "  " << h.name << "  +" << h.count_delta << "  p50~"
         << h.interval_p50 << "  p99~" << h.interval_p99 << "\n";
    }
  }
};

/// Stateful pull endpoint: advance() diffs `cur` against the previously
/// seen snapshot (empty before the first call) and keeps `cur` as the new
/// base. `now_us` is the caller's clock (proto::now_us() in the serving
/// layer) — passed in rather than sampled here so tests can pin intervals.
class IntervalDiffer {
 public:
  SnapshotDelta advance(Snapshot cur, std::uint64_t now_us) {
    SnapshotDelta d;
    if (has_prev_ && now_us > prev_us_) {
      d.interval_s = static_cast<double>(now_us - prev_us_) / 1e6;
    }

    for (const auto& c : cur.counters) {
      const std::uint64_t before = prev_.counter_value(c.name);
      // Rewind (registry reset between pulls): diff against zero.
      const std::uint64_t delta = c.value >= before ? c.value - before
                                                    : c.value;
      if (delta == 0) continue;
      const double per_s =
          d.interval_s > 0.0 ? static_cast<double>(delta) / d.interval_s
                             : 0.0;
      d.counters.push_back({c.name, delta, per_s});
    }

    for (const auto& g : cur.gauges) {
      const Snapshot::Gauge* before = prev_.find_gauge(g.name);
      const std::int64_t prev_v = before != nullptr ? before->value : 0;
      d.gauges.push_back({g.name, g.value, g.value - prev_v});
    }

    for (const auto& h : cur.histograms) {
      const Snapshot::Histogram* before = prev_.find_histogram(h.name);
      Snapshot::Histogram interval = h;  // interval = cur - prev, bucket-wise
      double prev_p50 = 0.0;
      double prev_p99 = 0.0;
      if (before != nullptr && h.count >= before->count) {
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
          // Per-bucket clamp: concurrent recording means bucket deltas can
          // individually dip negative even when the totals are monotone.
          interval.buckets[b] =
              h.buckets[b] >= before->buckets[b]
                  ? h.buckets[b] - before->buckets[b]
                  : 0;
        }
        interval.count = h.count - before->count;
        interval.sum = h.sum >= before->sum ? h.sum - before->sum : 0;
        prev_p50 = before->quantile(0.50);
        prev_p99 = before->quantile(0.99);
      }
      if (interval.count == 0) continue;
      d.histograms.push_back({h.name, interval.count, interval.quantile(0.50),
                              interval.quantile(0.99),
                              h.quantile(0.50) - prev_p50,
                              h.quantile(0.99) - prev_p99});
    }

    prev_ = std::move(cur);
    prev_us_ = now_us;
    has_prev_ = true;
    return d;
  }

 private:
  Snapshot prev_;
  std::uint64_t prev_us_ = 0;
  bool has_prev_ = false;
};

}  // namespace cachetrie::obs
