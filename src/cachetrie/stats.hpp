// stats.hpp — optional operation counters (enabled via Config::collect_stats).
#pragma once

#include <atomic>
#include <cstdint>

namespace cachetrie {

/// Relaxed counters; meaningful totals require external quiescence. Tests
/// use them to assert that specific code paths (expansion, compression,
/// cache hits, sampling) actually ran.
struct Stats {
  std::atomic<std::uint64_t> expansions{0};
  std::atomic<std::uint64_t> compressions{0};
  std::atomic<std::uint64_t> cache_installs{0};
  /// Stores into a cache entry (maybe_inhabit at the deepest level).
  std::atomic<std::uint64_t> cache_inhabits{0};
  std::atomic<std::uint64_t> cache_level_changes{0};
  std::atomic<std::uint64_t> cache_fast_hits{0};
  std::atomic<std::uint64_t> cache_misses_recorded{0};
  std::atomic<std::uint64_t> sampling_passes{0};
  std::atomic<std::uint64_t> root_restarts{0};

  void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.fetch_add(1, std::memory_order_relaxed);
  }
};

}  // namespace cachetrie
