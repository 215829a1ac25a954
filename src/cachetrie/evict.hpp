// evict.hpp — the bounded-memory mode's baseline map and the benchmark's
// name for the bounded trie (DESIGN.md §3).
//
// A bounded trie is a plain CacheTrie with Config::ceiling_bytes and/or
// Config::ttl_ticks set: every pair carries a last-use stamp, a pair older
// than the TTL horizon is semantically absent and lazily evicted, and under
// ceiling pressure every writer runs a short backpressure scan against an
// adaptive LRU window. evict_policy.hpp decides when a pair may be evicted,
// for the trie and for BoundedChm below alike.
//
// BoundedChm is the baseline counterpart: the same stamp/TTL/pressure
// surface over a stamped chm::ConcurrentHashMap, with a *derived* byte
// estimate (size() * node_bytes() + table bytes) — the trie's double-entry
// ledger is the headline, the baseline shows what a conventional design can
// offer. Both charge a node its pool class (NodePool::class_bytes), the
// block the pool hands out for it: the trie's 32 B bounded leaf books 32 B,
// the hash map's 40 B stamped node 48 B.
#pragma once

#include <optional>

#include "cachetrie/cache_trie.hpp"
#include "cachetrie/evict_policy.hpp"
#include "chashmap/chashmap.hpp"
#include "obs/sites.hpp"
#include "util/hashing.hpp"

namespace cachetrie::evict {

// The two names below exist only because benchmark/ (a frozen contract)
// spells the bounded trie this way; nothing else in the repo uses them.
using BoundedConfig = Config;

template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class BoundedCacheTrie : public CacheTrie<K, V, Hash, Reclaimer> {
 public:
  using Trie = CacheTrie<K, V, Hash, Reclaimer>;
  using Trie::Trie;

  Trie& underlying() { return *this; }
  const Trie& underlying() const { return *this; }
};

/// Baseline counterpart: the same bounded-mode surface over the
/// ConcurrentHashMap. Differences (documented in DESIGN.md §3):
///   * byte accounting is a derived estimate, not double-entry exact;
///   * pressure eviction sweeps bins under bin locks (evict_stale), so a
///     writer parked inside a swept bin's lock blocks that bin's eviction —
///     the baseline's known weakness under faults.
template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class BoundedChm {
 public:
  using Map = chm::ConcurrentHashMap<K, V, Hash, Reclaimer, /*Stamped=*/true>;

  /// Reads `ceiling_bytes`, `ttl_ticks` and `tick_fn`.
  explicit BoundedChm(const Config& cfg = {}) : policy_(cfg) {}

  bool insert(const K& key, const V& value) {
    const Horizon hz = write_horizon();
    expire_target(key, hz);
    return map_.insert(key, value, hz.now);
  }

  bool put_if_absent(const K& key, const V& value) {
    const Horizon hz = write_horizon();
    expire_target(key, hz);
    return map_.put_if_absent(key, value, hz.now);
  }

  std::optional<V> lookup(const K& key) const {
    const Horizon hz = policy_.horizon();
    return map_.lookup_refresh(key, hz.now, hz.ttl_floor);
  }

  std::optional<V> remove(const K& key) {
    // A corpse is semantically absent: evict it, report nothing removed.
    if (expire_target(key, write_horizon())) return std::nullopt;
    return map_.remove(key);
  }

  bool remove_if_equals(const K& key, const V& expected)
    requires std::equality_comparable<V>
  {
    if (expire_target(key, write_horizon())) return false;
    return map_.remove_if_equals(key, expected);
  }

  /// Derived footprint estimate (DESIGN.md §3): table bytes plus
  /// size() * node_bytes() (each node at its pool class size), O(1) —
  /// write_horizon polls this on every write, so the exact traversal
  /// (footprint_bytes) is out of the question. The striped size counter
  /// makes this approximate under concurrency — the trie's exact
  /// double-entry accounting is the contrast the fig14 bench draws.
  std::size_t resident_bytes() const {
    return map_.footprint_estimate_bytes();
  }

 private:
  /// A writer's horizons, after the policy's ceiling enforcement: over the
  /// ceiling, sweep stale bins (the trie's dead-evictor-tolerant design).
  Horizon write_horizon() {
    Horizon hz = policy_.horizon();
    policy_.backpressure(
        hz, [this] { return resident_bytes(); },
        [this](const Horizon& h) {
          const std::size_t evicted =
              map_.evict_stale(h.lru_floor, kEvictProbes);
          if (evicted != 0) obs::sites::cachetrie_evict_lru.add(evicted);
          return evicted;
        });
    return hz;
  }

  /// Lazily unlinks the operation's own key if it expired; true iff it did.
  bool expire_target(const K& key, const Horizon& hz) {
    if (hz.ttl_floor == 0) return false;
    if (map_.remove_if_stale(key, hz.ttl_floor)) {
      obs::sites::cachetrie_evict_ttl.add();
      return true;
    }
    return false;
  }

  // Map first: the policy's clock word takes a locked add on every op and
  // stays off the line that holds the map's table pointer.
  Map map_;
  Policy policy_;
};

}  // namespace cachetrie::evict
