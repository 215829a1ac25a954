// evict_policy.hpp — when a pair may be evicted: the one eviction policy of
// the bounded-memory mode (DESIGN.md §3), which the bounded CacheTrie runs.
//
// The policy owns the clock (BoundedConfig::tick_fn, or a per-map logical
// tick), turns it into each operation's horizons (TTL floor, LRU floor),
// keeps the adaptive idle window, and answers the near-ceiling question. The
// map owns the mechanism: its byte count, what a scan visits, and how a pair
// is unlinked. An unbounded trie has neither.
//
// All words here are advisory: every access is relaxed, and no protocol
// decision builds a happens-before edge through them (the note atop
// util/ordering_contracts.hpp says why).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>

#include "cachetrie/config.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"

namespace cachetrie::evict {

/// Process-wide resident-bytes cell: the sum of every live bounded
/// CacheTrie's byte ledger (each trie books into it wherever it books its
/// own), so one registered callback gauge reports the process's bounded-trie
/// footprint without per-trie gauge registrations (which could dangle: the
/// registry has no unregister, but this cell outlives every trie).
inline std::atomic<std::int64_t>& process_resident_bytes() {
  static std::atomic<std::int64_t> cell{0};
  return cell;
}

/// Registers the `cachetrie.bounded.resident_bytes` callback gauge once per
/// process; every bounded CacheTrie calls this on construction.
inline void register_resident_gauge() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::Registry::instance().register_gauge_fn(
        "cachetrie.bounded.resident_bytes",
        [] { return process_resident_bytes().load(std::memory_order_relaxed); });
  });
}

/// One operation's eviction horizons. All zero (inert) in an unbounded
/// trie, which reads no clock: no stamp is ever below a zero floor.
struct Horizon {
  std::uint64_t now = 0;        // current tick; doubles as creation stamp
  std::uint64_t ttl_floor = 0;  // stamp < ttl_floor => semantically absent
  std::uint64_t lru_floor = 0;  // stamp < lru_floor => evictable (pressure)

  bool expired(std::uint64_t stamp) const noexcept {
    return stamp < ttl_floor;
  }
  bool evictable(std::uint64_t stamp) const noexcept {
    return stamp < ttl_floor || stamp < lru_floor;
  }
};

/// Injectable clock. Returns the current tick; tests point it at a
/// test-controlled atomic so TTL expiry is deterministic. A plain function
/// pointer keeps BoundedConfig trivially copyable.
using TickFn = std::uint64_t (*)();

/// A bounded trie's configuration: the trie's knobs plus the three the
/// policy reads. A bounded trie stamps its pairs and keeps its byte count
/// whatever the limits; with both 0 it never evicts.
struct BoundedConfig : Config {
  /// Hard ceiling on the trie's observed resident bytes (0 = no ceiling).
  /// Enforced by backpressure eviction scans run by every writer, so a dead
  /// evictor cannot unbound the footprint.
  std::size_t ceiling_bytes = 0;

  /// TTL in ticks (0 = no TTL): a pair whose stamp is older than
  /// `now - ttl_ticks` is semantically absent and lazily evicted.
  std::uint64_t ttl_ticks = 0;

  /// Clock for stamps and horizons; nullptr = a per-map logical tick that
  /// advances once per operation.
  TickFn tick_fn = nullptr;
};

/// Reads `ceiling_bytes`, `ttl_ticks` and `tick_fn` of a BoundedConfig.
class Policy {
 public:
  explicit Policy(const BoundedConfig& cfg) noexcept
      : ceiling_(cfg.ceiling_bytes),
        ttl_(cfg.ttl_ticks),
        tick_fn_(cfg.tick_fn) {}

  /// This operation's horizons, advancing the logical clock by one tick —
  /// unless an injectable clock owns time (then tests drive it).
  Horizon horizon() const noexcept {
    Horizon hz;
    hz.now = tick_fn_ != nullptr
                 ? tick_fn_()
                 : op_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (ttl_ != 0 && hz.now > ttl_) hz.ttl_floor = hz.now - ttl_;
    return hz;
  }

  /// Ceiling enforcement, run by every writer before its own work, so
  /// enforcement survives any particular evictor dying: there is no
  /// dedicated eviction thread to lose. Over the ceiling, sets
  /// `hz.lru_floor` from the idle window and calls `scan(hz)`, which
  /// returns the pairs it evicted; the window halves whenever a scan frees
  /// nothing and doubles back, up to kLruIdleTicks, once `resident()` is at
  /// most 3/4 of the ceiling. `resident()` is read only when a ceiling is
  /// set.
  template <typename Resident, typename Scan>
  void backpressure(Horizon& hz, Resident&& resident, Scan&& scan) {
    if (ceiling_ == 0) return;
    const std::size_t r = resident();
    const std::uint64_t w = window_.load(std::memory_order_relaxed);
    if (r <= ceiling_) {
      if (w < kLruIdleTicks && r <= ceiling_ - ceiling_ / 4) {
        window_.store(std::min<std::uint64_t>(w * 2, kLruIdleTicks),
                      std::memory_order_relaxed);
      }
      return;
    }
    obs::sites::cachetrie_evict_backpressure.record(r, ceiling_);
    hz.lru_floor = hz.now > w ? hz.now - w : hz.now;
    if (scan(hz) == 0 && w > 1) {
      window_.store(w / 2, std::memory_order_relaxed);
    }
  }

  /// True once `resident` crosses `frac` of the ceiling — the serving
  /// layer's graceful-degradation signal (net/shard.hpp).
  bool near_ceiling(std::size_t resident, double frac) const noexcept {
    return ceiling_ != 0 && static_cast<double>(resident) >=
                                frac * static_cast<double>(ceiling_);
  }

  /// Bytes left under the ceiling; SIZE_MAX when there is none. Advisory,
  /// which is all the callers want: the serving layer flips a degraded
  /// hint on replies, it does not gate admission on an exact byte count.
  std::size_t headroom_bytes(std::size_t resident) const noexcept {
    if (ceiling_ == 0) return std::numeric_limits<std::size_t>::max();
    return resident >= ceiling_ ? 0 : ceiling_ - resident;
  }

  /// Current width of the adaptive idle window, in ticks.
  std::uint64_t idle_window() const noexcept {
    return window_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t ceiling_;
  std::uint64_t ttl_;
  TickFn tick_fn_;
  /// Logical clock (one tick per op) when no injectable clock is set.
  /// Mutable: lookups advance it too.
  mutable std::atomic<std::uint64_t> op_tick_{0};
  std::atomic<std::uint64_t> window_{kLruIdleTicks};
};

}  // namespace cachetrie::evict
