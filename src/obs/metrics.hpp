// metrics.hpp — lock-free, compile-time-gated observability substrate.
//
// The paper's central claims are quantitative (expected depth <= log16 n,
// cache hits collapsing lookups to 1-2 dereferences, miss-counter-driven
// cache growth), and the companion analysis report (arXiv:1712.09636)
// derives the distributions the runtime should exhibit. This layer makes
// those internals observable without perturbing them:
//
//   * Counter   — monotone event count, striped over cache-line-padded
//                 slots so concurrent recorders never share a line. A
//                 thread claims one of the stripes on its first add and
//                 then owns it: a record is a relaxed load and store, no
//                 RMW. Threads that find every stripe taken, and adds made
//                 after a thread released its stripe at exit, fetch_add one
//                 shared overflow cell. Reads sum the stripes and the
//                 overflow. Totals are exact after quiescence and monotone
//                 at all times (each cell is monotone, and repeated relaxed
//                 loads of one atomic respect its modification order).
//   * Histogram — mergeable bucketed distribution in LatencyHistogram's
//                 geometry (latency.hpp): exact unit buckets for values
//                 < 32 (depths, level counts), then 16 sub-buckets per
//                 power of two (latencies, byte sizes). Striped like
//                 Counter; merging is bucket-wise addition, so per-stripe,
//                 per-run and per-machine histograms all combine
//                 losslessly.
//   * Gauge     — a settable level, plus registered *callback* gauges that
//                 sample an external source at snapshot time (used to fold
//                 the mr/ epoch-limbo and stall counters into snapshots
//                 without double-bookkeeping).
//   * Registry  — process-wide name -> metric table. Snapshots merge the
//                 stripes into plain structs with JSON and human-table
//                 emitters; reset() zeroes counters/histograms (callback
//                 gauges re-sample, so they are unaffected).
//
// Build modes (mirrors testkit/chaos.hpp):
//   * CACHETRIE_METRICS on (default via CMake option): the above.
//   * CACHETRIE_METRICS off: Counter/Histogram/Gauge alias the Null*
//     handles below — empty, constexpr-constructible types whose members
//     are constexpr no-ops, so every record site compiles to nothing and
//     embedding a handle adds zero bytes ([[no_unique_address]]-friendly).
//     The Null* types are defined unconditionally so the zero-size
//     guarantee is static_assert-enforced even in metrics-on test builds.
//
// Recording is lock-free (wait-free, in fact: a counter add is a plain
// store, a histogram record two relaxed RMWs); only registration (cold:
// first use of a name) and snapshot/reset take the registry mutex.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency.hpp"
#include "util/padded.hpp"

namespace cachetrie::obs {

// --- snapshot (unconditional plain data) -----------------------------------

/// Point-in-time merged view of the registry. Plain values — safe to hold
/// across resets, compare between runs, or serialize.
struct Snapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    std::int64_t value = 0;
  };
  /// Bucket counts in LatencyHistogram's geometry (mean, quantile,
  /// fraction_at_most and merge come from there) under a metric name.
  struct Histogram : LatencyHistogram::Counts {
    std::string name;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Histogram> histograms;

  std::uint64_t counter_value(std::string_view name) const noexcept {
    for (const auto& c : counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }

  const Gauge* find_gauge(std::string_view name) const noexcept {
    for (const auto& g : gauges) {
      if (g.name == name) return &g;
    }
    return nullptr;
  }

  const Histogram* find_histogram(std::string_view name) const noexcept {
    for (const auto& h : histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  }

  // The emitter is defined in json.hpp-free form here to keep this header
  // self-contained; the JSON shape is documented in DESIGN.md §2d.
  void write_json(std::ostream& os) const;
};

// --- zero-cost handles (unconditional; the OFF configuration) --------------
//
// These are what Counter/Histogram/Gauge alias when CACHETRIE_METRICS is
// off. Empty, constexpr-constructible, every member a constant no-op: a
// record site compiles to literally nothing, and the types stay visible in
// metrics-on builds so tests can static_assert the guarantee.

struct NullCounter {
  constexpr explicit NullCounter(const char*) noexcept {}
  /// Returns the pre-add per-stripe value (always 0 here) so call sites can
  /// derive a sampling decision that dead-codes away in OFF builds.
  constexpr std::uint64_t add(std::uint64_t = 1) const noexcept { return 0; }
  constexpr std::uint64_t total() const noexcept { return 0; }
};

struct NullHistogram {
  constexpr explicit NullHistogram(const char*) noexcept {}
  constexpr void record(std::uint64_t) const noexcept {}
};

struct NullGauge {
  constexpr explicit NullGauge(const char*) noexcept {}
  constexpr void set(std::int64_t) const noexcept {}
  constexpr void add(std::int64_t) const noexcept {}
  constexpr std::int64_t value() const noexcept { return 0; }
};

static_assert(std::is_empty_v<NullCounter> && std::is_empty_v<NullHistogram> &&
              std::is_empty_v<NullGauge>);

#if defined(CACHETRIE_METRICS) && CACHETRIE_METRICS

inline constexpr bool kMetricsCompiled = true;

namespace detail {
/// Stripe count: power of two, sized like kMissSlots in config.hpp (the
/// paper's THROUGHPUT_FACTOR * #CPU miss array, §3.6) — enough that
/// concurrent recorders rarely collide, small enough to sum cheaply.
inline constexpr std::size_t kStripes = 16;

// --- stripe ownership ------------------------------------------------------
//
// Each thread owns one stripe index, the same in every Counter and
// Histogram, from its first record until its thread_local lease is
// destroyed at thread exit. Only the owner writes its counter cells, so a
// counter add is a relaxed load and store. The lease's release and the next
// claimer's acquire order the old owner's stores before the new owner's.

inline constexpr std::uint32_t kStripeUnclaimed = kStripes;
/// Every stripe was taken at the first record, or the lease is gone.
inline constexpr std::uint32_t kStripeOverflow = kStripes + 1;
static_assert(kStripes <= 32);

/// This thread's stripe: an index below kStripes once claimed. Constant-
/// initialized and trivially destructible, so reading it is one
/// thread-pointer-relative load with no init guard (unlike a dynamically
/// initialized thread_local such as util::current_thread_id()'s).
inline thread_local std::uint32_t t_stripe = kStripeUnclaimed;

/// Bit i is set while a live thread owns stripe i.
inline std::atomic<std::uint32_t> g_stripes_owned{0};

struct StripeLease {
  std::uint32_t stripe;
  ~StripeLease() {
    t_stripe = kStripeOverflow;
    g_stripes_owned.fetch_and(~(std::uint32_t{1} << stripe),
                              std::memory_order_release);
  }
};

/// Claims the lowest free stripe for this thread, or settles it on
/// kStripeOverflow when all are taken. Runs once per thread.
[[gnu::noinline]] inline std::uint32_t claim_stripe() noexcept {
  std::uint32_t owned = g_stripes_owned.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t free = ~owned & ((std::uint32_t{1} << kStripes) - 1);
    if (free == 0) {
      t_stripe = kStripeOverflow;
      return kStripeOverflow;
    }
    const auto stripe = static_cast<std::uint32_t>(std::countr_zero(free));
    if (g_stripes_owned.compare_exchange_weak(
            owned, owned | (std::uint32_t{1} << stripe),
            std::memory_order_acquire, std::memory_order_relaxed)) {
      thread_local StripeLease lease{stripe};
      t_stripe = stripe;
      return stripe;
    }
  }
}

/// Stripe for cells written with an RMW (histograms): the owned one, or a
/// shared one for threads without a stripe. Sharing is safe there.
inline std::size_t rmw_stripe() noexcept {
  std::uint32_t stripe = t_stripe;
  if (stripe == kStripeUnclaimed) [[unlikely]] stripe = claim_stripe();
  return stripe % kStripes;
}

struct alignas(util::kCacheLineSize) CounterCell {
  std::atomic<std::uint64_t> v{0};
};

struct CounterCells {
  std::array<CounterCell, kStripes> cells{};
  /// Shared by threads without a stripe; the only cell added with an RMW.
  CounterCell overflow{};

  std::uint64_t total() const noexcept {
    std::uint64_t t = overflow.v.load(std::memory_order_relaxed);
    for (const auto& c : cells) t += c.v.load(std::memory_order_relaxed);
    return t;
  }
  /// Needs quiescent recorders: an owner's add that straddles the reset
  /// stores its pre-reset sum back.
  void reset() noexcept {
    for (auto& c : cells) c.v.store(0, std::memory_order_relaxed);
    overflow.v.store(0, std::memory_order_relaxed);
  }
};

struct alignas(util::kCacheLineSize) HistStripe {
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
};

struct HistCells {
  std::array<HistStripe, kStripes> stripes{};

  void reset() noexcept {
    for (auto& s : stripes) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
    }
  }
};

struct GaugeCell {
  std::atomic<std::int64_t> v{0};
};

}  // namespace detail

class Registry;

/// Striped monotone event counter. Handles are one pointer; any number of
/// handles constructed with the same name share storage.
class Counter {
 public:
  explicit Counter(const char* name);

  /// Records n events. Returns the written cell's *previous* value —
  /// callers use it for cheap 1-in-2^k sampling decisions without a second
  /// atomic (`if ((c.add() & 63) == 0) hist.record(...)`).
  ///
  /// always_inline, as libstdc++'s std::atomic members are: in a large TU,
  /// GCC stops inlining plain inline functions once the unit's growth
  /// budget is spent, and an out-of-line call per record is not free.
  // [read-path]
  [[gnu::always_inline]] std::uint64_t add(std::uint64_t n = 1) noexcept {
    const std::uint32_t stripe = detail::t_stripe;
    if (stripe < detail::kStripes) [[likely]] {
      return owner_add(cells_->cells[stripe].v, n);
    }
    return add_unowned(n);
  }

  std::uint64_t total() const noexcept { return cells_->total(); }

 private:
  /// Only this thread writes the cell, so a load and store do what an RMW
  /// would, without locking the line.
  [[gnu::always_inline]] static std::uint64_t owner_add(
      std::atomic<std::uint64_t>& cell, std::uint64_t n) noexcept {
    const std::uint64_t old = cell.load(std::memory_order_relaxed);
    cell.store(old + n, std::memory_order_relaxed);
    return old;
  }

  /// The first add on a thread, and every add by a thread without a stripe.
  [[gnu::noinline]] std::uint64_t add_unowned(std::uint64_t n) noexcept {
    std::uint32_t stripe = detail::t_stripe;
    if (stripe == detail::kStripeUnclaimed) stripe = detail::claim_stripe();
    if (stripe < detail::kStripes) {
      return owner_add(cells_->cells[stripe].v, n);
    }
    return cells_->overflow.v.fetch_add(n, std::memory_order_relaxed);
  }

  detail::CounterCells* cells_;
};

/// Striped histogram in LatencyHistogram's bucket geometry.
class Histogram {
 public:
  explicit Histogram(const char* name);

  /// Out of line on purpose: callers record on sampled branches of hot
  /// functions (CacheTrie::lookup's 1-in-64 depth sample), and whether the
  /// compiler inlines these two locked adds there would otherwise shift
  /// with the size of the translation unit. check.sh's lookup disassembly
  /// step allows no locked instruction but the bounded op tick.
  [[gnu::noinline]] void record(std::uint64_t v) noexcept {
    auto& s = cells_->stripes[detail::rmw_stripe()];
    s.buckets[LatencyHistogram::index_of(v)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

 private:
  detail::HistCells* cells_;
};

/// Settable level (single atomic; gauges are read far more than written).
class Gauge {
 public:
  explicit Gauge(const char* name);

  void set(std::int64_t v) noexcept {
    cell_->v.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    cell_->v.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return cell_->v.load(std::memory_order_relaxed);
  }

 private:
  detail::GaugeCell* cell_;
};

/// Process-wide metric table. Leak-free Meyers singleton: constructed on
/// first use (which static-initialization of the site handles forces
/// before main), destroyed after every handle (handles are trivially
/// destructible and nothing records during static destruction).
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  detail::CounterCells* counter_cells(const char* name) {
    std::lock_guard<std::mutex> lk{mu_};
    return find_or_create(counters_, name);
  }
  detail::HistCells* hist_cells(const char* name) {
    std::lock_guard<std::mutex> lk{mu_};
    return find_or_create(hists_, name);
  }
  detail::GaugeCell* gauge_cell(const char* name) {
    std::lock_guard<std::mutex> lk{mu_};
    return find_or_create(gauges_, name);
  }

  /// Registers a gauge whose value is sampled by calling `fn` at snapshot
  /// time — how external subsystems (the mr/ epoch domain) fold their own
  /// counters into snapshots without double bookkeeping.
  void register_gauge_fn(std::string name,
                         std::function<std::int64_t()> fn) {
    std::lock_guard<std::mutex> lk{mu_};
    gauge_fns_.emplace_back(std::move(name), std::move(fn));
  }

  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lk{mu_};
    Snapshot s;
    s.counters.reserve(counters_.size());
    for (const auto& [name, cells] : counters_) {
      s.counters.push_back({name, cells->total()});
    }
    for (const auto& [name, cell] : gauges_) {
      s.gauges.push_back({name, cell->v.load(std::memory_order_relaxed)});
    }
    for (const auto& [name, fn] : gauge_fns_) {
      s.gauges.push_back({name, fn()});
    }
    for (const auto& [name, cells] : hists_) {
      Snapshot::Histogram h;
      h.name = name;
      for (const auto& stripe : cells->stripes) {
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
          const std::uint64_t n =
              stripe.buckets[b].load(std::memory_order_relaxed);
          h.buckets[b] += n;
          h.count += n;
        }
        h.sum += stripe.sum.load(std::memory_order_relaxed);
      }
      s.histograms.push_back(std::move(h));
    }
    return s;
  }

  /// Zeroes counters, histograms and settable gauges. Callback gauges
  /// re-sample their source and are unaffected. Needs quiescent recorders:
  /// a counter add racing the reset can store its pre-reset stripe sum
  /// back (see DESIGN.md "Striping"). Every caller resets between runs,
  /// with no recorder running.
  void reset() {
    std::lock_guard<std::mutex> lk{mu_};
    for (auto& [name, cells] : counters_) cells->reset();
    for (auto& [name, cells] : hists_) cells->reset();
    for (auto& [name, cell] : gauges_) {
      cell->v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  template <typename T>
  static T* find_or_create(
      std::vector<std::pair<std::string, std::unique_ptr<T>>>& table,
      const char* name) {
    for (auto& [n, ptr] : table) {
      if (n == name) return ptr.get();
    }
    table.emplace_back(name, std::make_unique<T>());
    return table.back().second.get();
  }

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<detail::CounterCells>>>
      counters_;
  std::vector<std::pair<std::string, std::unique_ptr<detail::HistCells>>>
      hists_;
  std::vector<std::pair<std::string, std::unique_ptr<detail::GaugeCell>>>
      gauges_;
  std::vector<std::pair<std::string, std::function<std::int64_t()>>>
      gauge_fns_;
};

inline Counter::Counter(const char* name)
    : cells_(Registry::instance().counter_cells(name)) {}
inline Histogram::Histogram(const char* name)
    : cells_(Registry::instance().hist_cells(name)) {}
inline Gauge::Gauge(const char* name)
    : cell_(Registry::instance().gauge_cell(name)) {}

#else  // !CACHETRIE_METRICS

inline constexpr bool kMetricsCompiled = false;

using Counter = NullCounter;
using Histogram = NullHistogram;
using Gauge = NullGauge;

/// No-op control surface so metrics-aware code compiles in both modes.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }
  template <typename F>
  void register_gauge_fn(std::string, F&&) {}
  Snapshot snapshot() const { return {}; }
  void reset() {}
};

#endif  // CACHETRIE_METRICS

/// Shorthand used by instrumentation sites and tests.
inline Registry& registry() { return Registry::instance(); }

// --- snapshot emitters ------------------------------------------------------

namespace detail_emit {

inline void json_escape(std::ostream& os, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xf] << hex[ch & 0xf];
        } else {
          os << ch;
        }
    }
  }
}

}  // namespace detail_emit

/// Machine-readable form: counters/gauges as name -> value maps; histograms
/// as sparse [bucket lower bound, count] pairs plus count/sum.
inline void Snapshot::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"";
    detail_emit::json_escape(os, counters[i].name);
    os << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"";
    detail_emit::json_escape(os, gauges[i].name);
    os << "\":" << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i != 0) os << ",";
    const auto& h = histograms[i];
    os << "\"";
    detail_emit::json_escape(os, h.name);
    os << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "[" << LatencyHistogram::lower_of(b) << "," << h.buckets[b] << "]";
    }
    os << "]}";
  }
  os << "}}";
}

}  // namespace cachetrie::obs
