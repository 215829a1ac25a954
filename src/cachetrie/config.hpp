// config.hpp — tuning knobs of the cache-trie.
//
// Defaults follow the paper; every knob exists so the ablation benches and
// the property tests can move it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cachetrie {

/// Injectable clock for the bounded-memory mode (DESIGN.md §3). Returns the
/// current tick; tests point it at a test-controlled atomic so TTL expiry is
/// deterministic. A plain function pointer keeps Config trivially copyable.
using TickFn = std::uint64_t (*)();

/// Padded per-thread miss counters per cache array (§3.6: the paper's
/// THROUGHPUT_FACTOR * #CPU).
inline constexpr std::uint32_t kMissSlots = 16;

/// The cache is first created when a slow operation encounters a node at
/// this trie level or deeper (§3.5: "If the cachee level is 12, inhabit
/// initializes the cache at level 8" — Config::cache_init_level).
inline constexpr std::uint32_t kCacheInitTriggerLevel = 12;

/// Random trie descents per sampling pass (§3.6: "The thread repeats this
/// several times").
inline constexpr std::uint32_t kSampleSize = 192;

/// Samples by which a pass's best pair of adjacent levels must outscore the
/// pair at the current cache level before the pass moves the cache deeper
/// (ours, not the paper's: §3.6 always moves to the best pair). Where two
/// pairs share the middle level and the outer levels are thinly populated,
/// one pass in about a thousand draws (almost) no shallow leaf and picks
/// the deeper pair by chance. Each such flip allocates a 16x larger array,
/// and a remove that starts from it cannot compress the node it starts at,
/// until a later pass moves back. With this margin a flip needs four more
/// deep samples than shallow ones in one pass instead of one. Moves toward
/// the root keep the paper's rule, so a trie that has emptied, whose passes
/// find only a few leaves, still shrinks its cache.
inline constexpr std::uint32_t kLevelHysteresis = 4;

struct Config {
  /// Master switch for the auxiliary cache (§3.4). Off reproduces the
  /// paper's "w/o cache" variant used throughout the evaluation.
  bool use_cache = true;

  /// remove() compresses ANodes that became empty (§3.7).
  bool compress = true;

  /// Extension beyond the paper: during compression, an ANode left with a
  /// single live SNode collapses to that SNode (hoisted one level up). The
  /// reachability invariant ("the slot path is a prefix of the hash") is
  /// preserved because a shorter path is still a prefix.
  bool compress_singletons = true;

  /// Cache misses a thread accumulates before triggering a depth-sampling
  /// pass (§3.6; "experimentally set to 2048" in the paper).
  std::uint32_t max_misses = 2048;

  /// Level of the first cache array (§3.5; see kCacheInitTriggerLevel).
  std::uint32_t cache_init_level = 8;

  /// Bounds for the adaptive cache level. The lower bound keeps the cache
  /// from degenerating into a copy of the root; the upper bound caps the
  /// cache array at 2^max_cache_level pointers.
  std::uint32_t min_cache_level = 8;
  std::uint32_t max_cache_level = 24;

  // --- bounded-memory mode (DESIGN.md §3; evict.hpp wraps these) ------------
  // The mode is active iff ceiling_bytes != 0 or ttl_ticks != 0; otherwise
  // every knob below is inert and the trie pays one predictable branch.

  /// Hard ceiling on the trie's observed resident bytes (0 = unbounded).
  /// Enforced by backpressure eviction scans run by every writer, so a dead
  /// evictor cannot unbound the footprint.
  std::size_t ceiling_bytes = 0;

  /// TTL in ticks (0 = no TTL): a pair whose stamp is older than
  /// `now - ttl_ticks` is semantically absent and lazily evicted.
  std::uint64_t ttl_ticks = 0;

  /// Initial width of the adaptive LRU window: under ceiling pressure,
  /// pairs idle for more than this many ticks are evictable. The window
  /// halves when a backpressure scan frees nothing and relaxes back once
  /// the footprint drops below 3/4 of the ceiling.
  std::uint64_t lru_idle_ticks = 1024;

  /// Hash paths probed per backpressure scan (the lazy clock hand).
  std::uint32_t evict_probes = 8;

  /// Clock for stamps and horizons; nullptr = a per-trie logical tick that
  /// advances once per operation.
  TickFn tick_fn = nullptr;

  /// Optional process-wide resident-bytes cell this trie mirrors its exact
  /// byte accounting into; evict.hpp points it at the cell its registered
  /// callback gauge reads. Must outlive the trie.
  std::atomic<std::int64_t>* resident_gauge = nullptr;
};

}  // namespace cachetrie
