// evict.hpp — the bounded-memory production cache mode (DESIGN.md §3).
//
// BoundedCacheTrie wraps CacheTrie with a hard byte ceiling and/or TTL:
//   * every pair carries a last-use stamp (a relaxed tick from an injectable
//     clock); lookups refresh it, horizons read it;
//   * a pair older than the TTL horizon is semantically absent and lazily
//     evicted by the first writer whose traversal crosses it;
//   * under ceiling pressure every writer runs a short backpressure scan
//     that evicts pairs idle past an adaptive LRU window — no dedicated
//     evictor thread exists to die, so a stalled or killed thread cannot
//     unbound the footprint (eviction_fault_test proves this);
//   * freed bytes flow through the same retire paths as user removes, so
//     the ceiling is enforced as *observed footprint*: exact double-entry
//     accounting at publish/retire choke points, with retire-limbo bytes
//     visible separately via mr.epoch.limbo_bytes.
//
// BoundedChm is the baseline counterpart: the same stamp/TTL/pressure
// surface over chm::ConcurrentHashMap, with a *derived* byte estimate
// (size() * node_bytes() + table bytes) — the trie's exact accounting is
// the headline, the baseline shows what a conventional design can offer.
//
// All stamp/tick/resident words are relaxed-advisory (no protocol decision
// creates a happens-before edge through them); the eviction CASes reuse the
// declared CT_TXN / CT_SLOT_COMMIT edges (ordering_contracts.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "obs/inventory.hpp"
#include "obs/metrics.hpp"
#include "util/hashing.hpp"

namespace cachetrie::evict {

/// Process-wide resident-bytes cell. Every bounded trie mirrors its exact
/// per-trie accounting into this cell (Config::resident_gauge), so one
/// registered callback gauge reports the process's total bounded footprint
/// without per-trie gauge registrations (which could dangle: the registry
/// has no unregister, but this cell outlives every trie).
inline std::atomic<std::int64_t>& process_resident_bytes() {
  static std::atomic<std::int64_t> cell{0};
  return cell;
}

/// Registers the callback gauge once per process (PR-3 machinery: callback
/// gauges fold external state into snapshots at sample time).
inline void register_resident_gauge() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::Registry::instance().register_gauge_fn(
        "cachetrie.bounded.resident_bytes",
        [] { return process_resident_bytes().load(std::memory_order_relaxed); });
  });
}

/// Env override for the ceiling: CACHETRIE_CACHE_CEILING_BYTES. Returns 0
/// (unbounded) when unset or unparsable — same strtoull contract as the
/// mr/ env knobs.
inline std::size_t env_ceiling_bytes() {
  const char* s = std::getenv("CACHETRIE_CACHE_CEILING_BYTES");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s) return 0;
  return static_cast<std::size_t>(v);
}

/// Knobs of the bounded mode. `ceiling_bytes == 0` defers to the env
/// override; if that is unset too, no ceiling is enforced (TTL may still
/// be). See Config for the trie-level fields these map onto.
struct BoundedConfig {
  std::size_t ceiling_bytes = 0;      // 0 -> CACHETRIE_CACHE_CEILING_BYTES
  std::uint64_t ttl_ticks = 0;        // 0 -> no TTL
  std::uint64_t lru_idle_ticks = 1024;
  std::uint32_t evict_probes = 8;
  TickFn tick = nullptr;              // nullptr -> per-structure logical tick
  Config trie;                        // remaining cache-trie knobs
};

/// The production cache mode: CacheTrie with lazy lock-free LRU/TTL
/// eviction under a hard byte ceiling. A thin façade — every operation
/// delegates; the eviction machinery lives inside CacheTrie so it can ride
/// the protocol's own txn announce/commit path.
template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class BoundedCacheTrie {
 public:
  using Trie = CacheTrie<K, V, Hash, Reclaimer>;
  using EvictionCounts = typename Trie::EvictionCounts;

  explicit BoundedCacheTrie(BoundedConfig cfg = {})
      : trie_(make_trie_config(cfg)) {
    register_resident_gauge();
  }

  bool insert(const K& key, const V& value) {
    return trie_.insert(key, value);
  }
  bool put_if_absent(const K& key, const V& value) {
    return trie_.put_if_absent(key, value);
  }
  bool replace(const K& key, const V& value) {
    return trie_.replace(key, value);
  }
  bool replace_if_equals(const K& key, const V& expected, const V& desired)
    requires std::equality_comparable<V>
  {
    return trie_.replace_if_equals(key, expected, desired);
  }
  std::optional<V> lookup(const K& key) const { return trie_.lookup(key); }
  bool contains(const K& key) const { return trie_.contains(key); }
  std::optional<V> remove(const K& key) { return trie_.remove(key); }
  bool remove_if_equals(const K& key, const V& expected)
    requires std::equality_comparable<V>
  {
    return trie_.remove_if_equals(key, expected);
  }
  /// Forced eviction of one key (linearizable remove counted as an LRU
  /// eviction) — the test battery races this against user operations.
  std::optional<V> evict(const K& key) { return trie_.evict(key); }

  std::size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.empty(); }
  template <typename F>
  void for_each(F&& fn) const {
    trie_.for_each(static_cast<F&&>(fn));
  }

  std::size_t footprint_bytes() const { return trie_.footprint_bytes(); }
  std::size_t resident_bytes() const { return trie_.resident_bytes(); }
  EvictionCounts eviction_counts() const { return trie_.eviction_counts(); }
  std::uint64_t now_tick() const { return trie_.now_tick(); }
  std::size_t ceiling_bytes() const {
    return trie_.config().ceiling_bytes;
  }
  /// Bytes left under the ceiling; SIZE_MAX when unbounded. Advisory (both
  /// inputs are relaxed-published), which is all the callers want — the
  /// serving layer flips a degraded *hint* on replies, it does not gate
  /// admission on an exact byte count.
  std::size_t resident_headroom_bytes() const {
    const std::size_t c = ceiling_bytes();
    if (c == 0) return std::numeric_limits<std::size_t>::max();
    const std::size_t r = resident_bytes();
    return r >= c ? 0 : c - r;
  }
  /// True once resident bytes cross `frac` of the ceiling — the serving
  /// layer's graceful-degradation signal (net/shard.hpp).
  bool near_ceiling(double frac = 0.9) const {
    const std::size_t c = ceiling_bytes();
    return c != 0 && static_cast<double>(resident_bytes()) >=
                         frac * static_cast<double>(c);
  }

  /// The wrapped trie, for tests that need debug_validate() etc.
  Trie& underlying() { return trie_; }
  const Trie& underlying() const { return trie_; }

 private:
  static Config make_trie_config(const BoundedConfig& cfg) {
    Config c = cfg.trie;
    c.ceiling_bytes =
        cfg.ceiling_bytes != 0 ? cfg.ceiling_bytes : env_ceiling_bytes();
    c.ttl_ticks = cfg.ttl_ticks;
    c.lru_idle_ticks = cfg.lru_idle_ticks;
    c.evict_probes = cfg.evict_probes;
    c.tick_fn = cfg.tick;
    c.resident_gauge = &process_resident_bytes();
    return c;
  }

  Trie trie_;
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
  using Map = chm::ConcurrentHashMap<K, V, Hash, Reclaimer>;

  struct EvictionCounts {
    std::uint64_t lru_evictions = 0;
    std::uint64_t ttl_expiries = 0;
    std::uint64_t backpressure_scans = 0;
  };

  explicit BoundedChm(BoundedConfig cfg = {})
      : cfg_(cfg),
        ceiling_(cfg.ceiling_bytes != 0 ? cfg.ceiling_bytes
                                        : env_ceiling_bytes()),
        lru_window_(cfg.lru_idle_ticks == 0 ? 1 : cfg.lru_idle_ticks) {
    register_resident_gauge();
  }

  bool insert(const K& key, const V& value) {
    const std::uint64_t now = tick();
    maybe_backpressure(now);
    expire_target(key, now);
    return map_.insert(key, value, now);
  }

  bool put_if_absent(const K& key, const V& value) {
    const std::uint64_t now = tick();
    maybe_backpressure(now);
    expire_target(key, now);
    return map_.put_if_absent(key, value, now);
  }

  std::optional<V> lookup(const K& key) const {
    const std::uint64_t now = tick();
    return map_.lookup_refresh(key, now, ttl_floor(now));
  }

  bool contains(const K& key) const { return lookup(key).has_value(); }

  std::optional<V> remove(const K& key) {
    const std::uint64_t now = tick();
    maybe_backpressure(now);
    // A corpse is semantically absent: evict it, report nothing removed.
    if (expire_target(key, now)) return std::nullopt;
    return map_.remove(key);
  }

  bool remove_if_equals(const K& key, const V& expected)
    requires std::equality_comparable<V>
  {
    const std::uint64_t now = tick();
    maybe_backpressure(now);
    if (expire_target(key, now)) return false;
    return map_.remove_if_equals(key, expected);
  }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  /// Derived footprint estimate (DESIGN.md §3): table bytes plus
  /// size() * node_bytes(), O(1) — maybe_backpressure polls this on every
  /// write, so the exact traversal (footprint_bytes) is out of the
  /// question. The striped size counter makes this approximate under
  /// concurrency — the trie's exact double-entry accounting is the
  /// contrast the fig14 bench draws.
  std::size_t resident_bytes() const {
    return map_.footprint_estimate_bytes();
  }

  EvictionCounts eviction_counts() const {
    return {lru_evictions_.load(std::memory_order_relaxed),
            ttl_expiries_.load(std::memory_order_relaxed),
            backpressure_scans_.load(std::memory_order_relaxed)};
  }

  std::uint64_t now_tick() const {
    return cfg_.tick != nullptr ? cfg_.tick()
                                : op_tick_.load(std::memory_order_relaxed);
  }
  std::size_t ceiling_bytes() const { return ceiling_; }
  bool near_ceiling(double frac = 0.9) const {
    return ceiling_ != 0 && static_cast<double>(resident_bytes()) >=
                                frac * static_cast<double>(ceiling_);
  }

  Map& underlying() { return map_; }
  const Map& underlying() const { return map_; }

 private:
  std::uint64_t tick() const {
    return cfg_.tick != nullptr
               ? cfg_.tick()
               : op_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t ttl_floor(std::uint64_t now) const {
    return (cfg_.ttl_ticks != 0 && now > cfg_.ttl_ticks)
               ? now - cfg_.ttl_ticks
               : 0;
  }

  /// Lazily unlinks the operation's own key if it expired; true iff it did.
  bool expire_target(const K& key, std::uint64_t now) {
    const std::uint64_t floor = ttl_floor(now);
    if (floor == 0) return false;
    if (map_.remove_if_stale(key, floor)) {
      ttl_expiries_.fetch_add(1, std::memory_order_relaxed);
      obs::sites::cachetrie_evict_ttl.add();
      return true;
    }
    return false;
  }

  /// Writer-run ceiling enforcement, mirroring the trie's dead-evictor-
  /// tolerant design: sweep stale bins while over the ceiling.
  void maybe_backpressure(std::uint64_t now) {
    if (ceiling_ == 0) return;
    if (resident_bytes() <= ceiling_) return;
    backpressure_scans_.fetch_add(1, std::memory_order_relaxed);
    obs::sites::cachetrie_evict_backpressure.add();
    const std::uint64_t w = lru_window_.load(std::memory_order_relaxed);
    const std::uint64_t floor = now > w ? now - w : now;
    const std::size_t evicted = map_.evict_stale(floor, cfg_.evict_probes);
    if (evicted != 0) {
      lru_evictions_.fetch_add(evicted, std::memory_order_relaxed);
      obs::sites::cachetrie_evict_lru.add(evicted);
    } else if (w > 1) {
      // Fruitless scan: tighten the idle window so the next scan can bite.
      lru_window_.store(w / 2, std::memory_order_relaxed);
    }
  }

  BoundedConfig cfg_;
  std::size_t ceiling_ = 0;
  Map map_;
  mutable std::atomic<std::uint64_t> op_tick_{0};
  std::atomic<std::uint64_t> lru_window_{1024};
  mutable std::atomic<std::uint64_t> lru_evictions_{0};
  mutable std::atomic<std::uint64_t> ttl_expiries_{0};
  mutable std::atomic<std::uint64_t> backpressure_scans_{0};
};

}  // namespace cachetrie::evict
