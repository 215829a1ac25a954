// latency.hpp — the histogram geometry of obs/, and a per-operation latency
// histogram built on it.
//
// One geometry serves every histogram in the repo, the registry's striped
// obs::Histogram (metrics.hpp) included: the classic HdrHistogram-lite
// layout — exact unit buckets below 32, then 16 linear sub-buckets per
// power of two, bounding relative error by 1/16 (~6%) at every magnitude
// up to 2^64. Small discrete values (trie depths, level counts) stay
// exact; tail latencies get fine resolution. Counts is the plain bucket
// array plus count and sum, with the one quantile walk: LatencyHistogram
// records into one, and a registry snapshot's Snapshot::Histogram is one.
//
// LatencyHistogram has plain (non-atomic) counters: one recorder per
// instance; merge() combines per-pass or per-thread instances losslessly
// (bucket-wise addition).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace cachetrie::obs {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: top 4 value bits after the leading one.
  static constexpr std::size_t kSubBuckets = 16;
  /// Indices 0..31 are exact units; (e-3)*16 + sub for 2^e <= v < 2^(e+1),
  /// e in [5, 63] — 976 buckets, ~8 KB per instance.
  static constexpr std::size_t kBuckets = 976;

  static constexpr std::size_t index_of(std::uint64_t v) noexcept {
    if (v < 32) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;
    return static_cast<std::size_t>((e - 3) * 16 +
                                    static_cast<int>((v >> (e - 4)) & 15));
  }

  /// Smallest value mapping to bucket b.
  static constexpr std::uint64_t lower_of(std::size_t b) noexcept {
    if (b < 32) return b;
    const int e = static_cast<int>(b / 16) + 3;
    return (std::uint64_t{16} + b % 16) << (e - 4);
  }

  /// Number of distinct values in bucket b.
  static constexpr std::uint64_t width_of(std::size_t b) noexcept {
    return b < 32 ? 1 : (std::uint64_t{1} << (b / 16 - 1));
  }

  /// Bucket counts in this geometry, with their count and sum.
  struct Counts {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;  // == sum of buckets, unless a delta clamped one
    std::uint64_t sum = 0;

    double mean() const noexcept {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) /
                              static_cast<double>(count);
    }

    /// p-quantile (p in [0,1]) with linear interpolation inside the
    /// landing bucket — exact for values < 32, within bucket-width/count
    /// above.
    double quantile(double p) const noexcept {
      if (count == 0) return 0.0;
      double target = p * static_cast<double>(count);
      if (target > static_cast<double>(count)) {
        target = static_cast<double>(count);
      }
      std::uint64_t cum = 0;
      std::size_t last = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        if (buckets[b] == 0) continue;
        if (static_cast<double>(cum + buckets[b]) >= target) {
          double frac = (target - static_cast<double>(cum)) /
                        static_cast<double>(buckets[b]);
          if (frac < 0.0) frac = 0.0;
          return static_cast<double>(lower_of(b)) +
                 static_cast<double>(width_of(b) - 1) * frac;
        }
        cum += buckets[b];
        last = b;
      }
      // count exceeds the bucket total: an interval delta whose buckets
      // were clamped at zero. Report the top of the highest bucket.
      return static_cast<double>(lower_of(last) + (width_of(last) - 1));
    }

    /// Fraction of recorded values <= v (resolution: bucket boundaries;
    /// exact for v < 32 thanks to the unit buckets).
    double fraction_at_most(std::uint64_t v) const noexcept {
      if (count == 0) return 0.0;
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b <= index_of(v); ++b) cum += buckets[b];
      return static_cast<double>(cum) / static_cast<double>(count);
    }

    /// Bucket-wise addition: per-pass, per-thread, per-stripe and per-run
    /// counts combine losslessly.
    void merge(const Counts& other) noexcept {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        buckets[b] += other.buckets[b];
      }
      count += other.count;
      sum += other.sum;
    }
  };

  void record(std::uint64_t v) noexcept {
    ++counts_.buckets[index_of(v)];
    ++counts_.count;
    counts_.sum += v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const noexcept { return counts_.count; }
  std::uint64_t max_value() const noexcept { return max_; }
  double mean() const noexcept { return counts_.mean(); }
  double quantile(double p) const noexcept { return counts_.quantile(p); }

  void merge(const LatencyHistogram& other) noexcept {
    counts_.merge(other.counts_);
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() noexcept { *this = LatencyHistogram{}; }

 private:
  Counts counts_;
  std::uint64_t max_ = 0;
};

// The geometry is a smooth continuation of the unit range: 16..31 are both
// "units" and the e=4 sub-bucket row, so index_of(v) == v for all v < 32.
static_assert(LatencyHistogram::index_of(31) == 31);
static_assert(LatencyHistogram::index_of(32) == 32);
static_assert(LatencyHistogram::index_of(63) == 47);
static_assert(LatencyHistogram::lower_of(32) == 32);
static_assert(LatencyHistogram::width_of(32) == 2);
static_assert(LatencyHistogram::index_of(~std::uint64_t{0}) ==
              LatencyHistogram::kBuckets - 1);

}  // namespace cachetrie::obs
