// config.hpp — tuning knobs of the cache-trie.
//
// Defaults follow the paper; every knob exists so the ablation benches and
// the property tests can move it. The bounded-memory mode (DESIGN.md §3) is
// a type, not a knob: a bounded trie (CacheTrie<..., Bounded = true>, named
// evict::BoundedCacheTrie) and evict::BoundedChm read evict::BoundedConfig
// (evict_policy.hpp), which adds the ceiling, the TTL and the clock to
// Config. Constants below are fixed choices that no caller tunes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cachetrie {

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

/// Bounded mode: initial and largest width of the adaptive LRU window.
/// Under ceiling pressure, pairs idle for more than the window's ticks are
/// evictable; the window halves when a backpressure scan frees nothing and
/// doubles back once the footprint is at most 3/4 of the ceiling.
inline constexpr std::uint64_t kLruIdleTicks = 1024;

/// Bounded mode: hash paths (trie) or bins (chm) probed per backpressure
/// scan — the lazy clock hand.
inline constexpr std::uint32_t kEvictProbes = 8;

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
};

}  // namespace cachetrie
