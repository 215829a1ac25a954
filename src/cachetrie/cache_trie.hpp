// cache_trie.hpp — the cache-trie: a concurrent lock-free hash trie with
// expected constant-time operations.
//
// Reproduction of: Aleksandar Prokopec, "Cache-Tries: Concurrent Lock-Free
// Hash Tries with Constant-Time Operations", PPoPP 2018.
//
// Structure
//   * The trie proper is a 16-way hash trie with two inner-node sizes —
//     narrow (4 slots) and wide (16 slots). Levels advance by 4 bits of the
//     key hash; this implementation uses 64-bit hashes, so paths are at most
//     16 levels deep, and keys with fully equal hashes fall into immutable
//     LNode collision chains.
//   * Every mutation of a leaf goes through its txn field (two-CAS protocol:
//     announce on txn, commit on the parent slot). This is what lets the
//     auxiliary cache evict automatically: a cached SNode whose txn is not
//     NoTxn, or a cached ANode with a frozen entry, is provably stale
//     (§3.4).
//   * Replacing an inner node (narrow->wide expansion, or compression after
//     removals) freezes it first — every slot is made permanently
//     non-writable — then a fresh copy is built and committed into the
//     parent with a single CAS, coordinated through an ENode announcement so
//     that any thread can finish the job (§3.3).
//   * The cache (§3.4-3.6) is a list of per-level pointer arrays, deepest
//     first. Lookups probe the deepest level first and fall back level by
//     level, then to the root. Slow operations lazily inhabit the cache and
//     count misses; after max_misses misses a thread samples random trie
//     paths, estimates the key-depth distribution, and moves the cache to
//     the most populated pair of adjacent levels (deeper only once that
//     pair clearly beats the current one).
//
// Progress: lookup is wait-free (it never helps — special nodes carry enough
// state to continue read-only); insert and remove are lock-free.
//
// Memory reclamation: the JVM artifact leans on GC; here every operation
// runs under a Reclaimer guard (EBR by default) and the single thread whose
// CAS unlinked a node retires it. Helpers never retire.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cachetrie/cache.hpp"
#include "cachetrie/config.hpp"
#include "cachetrie/nodes.hpp"
#include "mr/epoch.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"

namespace cachetrie {

/// Per-level key counts, used by the appendix "BirthdaySimulations" bench
/// and by the depth-distribution property tests (Theorems 4.1-4.3).
struct LevelHistogram {
  /// counts[d] = number of keys whose SNode sits at depth d (level 4*d).
  std::array<std::uint64_t, 17> counts{};
  std::uint64_t total = 0;

  /// Fraction of keys on the most populated pair of adjacent depths
  /// (Theorem 4.2 predicts >= 0.8745 as n grows).
  double top_pair_share() const noexcept {
    if (total == 0) return 1.0;
    std::uint64_t best = 0;
    for (std::size_t d = 0; d + 1 < counts.size(); ++d) {
      best = std::max(best, counts[d] + counts[d + 1]);
    }
    return static_cast<double>(best) / static_cast<double>(total);
  }
};

template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class CacheTrie {
  using NodeBase = detail::NodeBase;
  using Kind = detail::Kind;
  using Sentinels = detail::Sentinels;
  using ANode = detail::ANode;
  using ENode = detail::ENode;
  using FNode = detail::FNode;
  using SNodeT = detail::SNode<K, V>;
  using LNodeT = detail::LNode<K, V>;
  using CacheArray = detail::CacheArray;

 public:
  explicit CacheTrie(Config config = {})
      : config_(config),
        bounded_(config.ceiling_bytes != 0 || config.ttl_ticks != 0),
        lru_window_(config.lru_idle_ticks == 0 ? 1 : config.lru_idle_ticks) {
    root_ = ANode::make(16);
    account(static_cast<std::ptrdiff_t>(ANode::alloc_size(16)));
  }

  CacheTrie(const CacheTrie&) = delete;
  CacheTrie& operator=(const CacheTrie&) = delete;

  ~CacheTrie() {
    destroy_subtree(root_);
    CacheArray* c = cache_head_.load(std::memory_order_relaxed);
    while (c != nullptr) {
      CacheArray* parent = c->parent;
      CacheArray::destroy(c);
      c = parent;
    }
    // Whatever this trie still counted as resident leaves the process-wide
    // gauge with it.
    if (config_.resident_gauge != nullptr) {
      config_.resident_gauge->fetch_sub(
          resident_bytes_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }

  /// Inserts or replaces the pair. Returns true iff the key was new.
  bool insert(const K& key, const V& value) {
    return mutate(key, value, Mode::kUpsert) == Res::kNew;
  }

  /// Inserts only if the key is absent. Returns true iff it inserted.
  bool put_if_absent(const K& key, const V& value) {
    return mutate(key, value, Mode::kIfAbsent) == Res::kNew;
  }

  /// Replaces the value only if the key is present. Returns true iff it did.
  bool replace(const K& key, const V& value) {
    return mutate(key, value, Mode::kReplaceOnly) == Res::kReplaced;
  }

  /// Compare-and-replace on the value (JDK's 3-argument replace, §3.7):
  /// succeeds only if the key is present and its value equals `expected`.
  bool replace_if_equals(const K& key, const V& expected, const V& desired)
    requires std::equality_comparable<V>
  {
    return mutate(key, desired, Mode::kReplaceIfEquals, &expected) ==
           Res::kReplaced;
  }

  /// Finds the value associated with the key. Wait-free.
  /// Bounded mode: a hit refreshes the pair's stamp (relaxed store — the
  /// stamp is advisory); a TTL-expired pair is reported absent without being
  /// evicted here (lookups stay wait-free; writers do the lazy eviction).
  // [read-path]
  std::optional<V> lookup(const K& key) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("cachetrie.pinned");
    const std::uint64_t h = hasher_(key);
    const Horizon hz = make_horizon();
    CacheArray* cache = config_.use_cache
                            ? cache_head_.load(std::memory_order_acquire)
                            : nullptr;
    if (cache == nullptr) {
      const bool sample_depth =
          (obs::sites::cachetrie_lookup_slow.add() & 63u) == 0u;
      return lookup_rec(key, h, 0, root_, kNoCacheLevel, 0, sample_depth, hz);
    }
    const std::int32_t cache_level = static_cast<std::int32_t>(cache->level);
    // Fast path (paper Fig. 6): probe cache levels, deepest first.
    for (CacheArray* c = cache; c != nullptr; c = c->parent) {
      NodeBase* cachee =
          c->entries()[c->index_of(h)].load(std::memory_order_acquire);
      if (cachee == nullptr) continue;
      if (cachee->kind == Kind::kSNode) {
        auto* sn = static_cast<SNodeT*>(cachee);
        if (sn->txn.load(std::memory_order_acquire) == Sentinels::no_txn()) {
          // Live SNode on this key's path: it either is the key, or proves
          // the key absent (no other key shares this hash prefix, else an
          // ANode would occupy the position).
          // One plain add to this thread's stripe; its return value doubles
          // as a ~1/64 sampler for the depth histogram (depth 1: the
          // cached SNode was the only dereference).
          if ((obs::sites::cachetrie_cache_hit.add() & 63u) == 0u) {
            obs::sites::cachetrie_lookup_depth.record(1);
          }
          if (sn->hash == h && sn->key == key) {
            if (bounded_) {
              if (hz.expired(sn->stamp.load(std::memory_order_relaxed))) {
                return std::nullopt;
              }
              sn->stamp.store(hz.now, std::memory_order_relaxed);
            }
            return sn->value;
          }
          return std::nullopt;
        }
        continue;  // stale entry; try a shallower cache level
      }
      if (cachee->kind == Kind::kANode) {
        auto* an = static_cast<ANode*>(cachee);
        NodeBase* entry = an->slots()[slot_index(h, c->level, an->length)]
                              .load(std::memory_order_acquire);
        // If the relevant entry is frozen the ANode may already be detached;
        // fall back. Otherwise the ANode is still reachable (§3.4: a node
        // with any non-frozen entry has a path from the root).
        if (entry == Sentinels::fv()) continue;
        if (entry != nullptr) {
          if (entry->kind == Kind::kFNode) continue;
          if (entry->kind == Kind::kSNode &&
              static_cast<SNodeT*>(entry)->txn.load(
                  std::memory_order_acquire) == Sentinels::fs()) {
            continue;
          }
        }
        // Same counter as the SNode fast path, so its pre-add value keeps
        // sampling one in 64 hits regardless of which hit kind fires.
        const bool sample_depth =
            (obs::sites::cachetrie_cache_hit.add() & 63u) == 0u;
        return lookup_rec(key, h, c->level, an, cache_level, c->level,
                          sample_depth, hz);
      }
      // Anything else cached is stale; fall through to shallower levels.
    }
    {
      const bool sample_depth =
          (obs::sites::cachetrie_lookup_slow.add() & 63u) == 0u;
      return lookup_rec(key, h, 0, root_, cache_level, 0, sample_depth, hz);
    }
  }

  bool contains(const K& key) const { return lookup(key).has_value(); }

  /// Removes the key. Returns the removed value, if any.
  std::optional<V> remove(const K& key) { return do_remove(key, nullptr); }

  /// Removes the key only if its value equals `expected` (JDK's 2-argument
  /// remove). Returns true iff it removed.
  bool remove_if_equals(const K& key, const V& expected)
    requires std::equality_comparable<V>
  {
    return do_remove(key, &expected).has_value();
  }

  /// Returns the current value, inserting make_value() if the key is
  /// absent (computeIfAbsent). make_value may run and be discarded when a
  /// racing insert wins; it must be side-effect-tolerant.
  template <typename F>
  V get_or_insert_with(const K& key, F&& make_value) {
    while (true) {
      if (auto v = lookup(key)) return *std::move(v);
      if (put_if_absent(key, make_value())) {
        if (auto v = lookup(key)) return *std::move(v);
        // Inserted but already removed by a racer; retry.
      }
    }
  }

  // --- whole-structure operations -----------------------------------------
  //
  // These traverse the live view. They are exact when the trie is quiescent;
  // under concurrent mutation they see some valid mixture of states (they
  // are not linearizable snapshots — the paper lists snapshots as future
  // work).

  /// Number of keys (O(n) traversal). Bounded mode: TTL-expired pairs are
  /// unobservable, so they are not counted even while physically present.
  std::size_t size() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    const Horizon hz = make_horizon();
    std::size_t n = 0;
    auto count = [&](const K&, const V&, std::uint64_t st) {
      if (bounded_ && hz.expired(st)) return;
      ++n;
    };
    for_each_node(root_, count);
    return n;
  }

  bool empty() const { return size() == 0; }

  /// Applies fn(key, value) to every pair (bounded mode: to every live,
  /// unexpired pair).
  template <typename F>
  void for_each(F&& fn) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    const Horizon hz = make_horizon();
    auto visit = [&](const K& k, const V& v, std::uint64_t st) {
      if (bounded_ && hz.expired(st)) return;
      fn(k, v);
    };
    for_each_node(root_, visit);
  }

  /// Bytes of heap owned by the trie: nodes, plus the cache arrays when the
  /// cache is enabled, each at its exact size. The node pool rounds every
  /// node up to a 16 B class (mr/node_pool.hpp) and keeps freed blocks for
  /// reuse; neither is counted here (NodePool::mapped_bytes() and the
  /// mr.pool.mapped_bytes gauge cover it, for all structures alike).
  std::size_t footprint_bytes() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    std::size_t bytes = sizeof(*this);
    bytes += subtree_footprint(root_);
    for (CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      bytes += c->footprint_bytes();
    }
    return bytes;
  }

  /// Distribution of keys over trie depths (appendix A.5.1).
  LevelHistogram level_histogram() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    LevelHistogram hist;
    collect_histogram(root_, 0, hist);
    return hist;
  }

  /// Current deepest cache level, or -1 when no cache exists yet.
  std::int32_t cache_level() const {
    CacheArray* c = cache_head_.load(std::memory_order_acquire);
    return c == nullptr ? -1 : static_cast<std::int32_t>(c->level);
  }

  /// What the cache array at `level` holds for `key`'s hash: nullptr when
  /// the entry is empty or no array in the chain covers `level`. For tests;
  /// the node may be retired as soon as another operation runs.
  const detail::NodeBase* debug_cache_entry(const K& key,
                                            std::uint32_t level) const {
    const std::uint64_t h = hasher_(key);
    for (CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      if (c->level == level) {
        return c->entries()[c->index_of(h)].load(std::memory_order_acquire);
      }
    }
    return nullptr;
  }

  const Config& config() const noexcept { return config_; }

  // --- bounded-memory mode (DESIGN.md §3) -----------------------------------

  /// True when this trie enforces a byte ceiling and/or TTL.
  bool bounded() const noexcept { return bounded_; }

  /// Current eviction-clock tick, without advancing the logical clock.
  std::uint64_t now_tick() const noexcept {
    if (!bounded_) return 0;
    return config_.tick_fn != nullptr
               ? config_.tick_fn()
               : op_tick_.load(std::memory_order_relaxed);
  }

  /// Observed resident footprint: bytes published into the trie minus bytes
  /// retired out of it — exact double-entry accounting at the protocol's
  /// publish/retire choke points, excluding bytes parked in reclaimer limbo
  /// (EpochDomain::retired_bytes() tracks those). Always 0 when unbounded.
  std::size_t resident_bytes() const noexcept {
    const std::int64_t b = resident_bytes_.load(std::memory_order_relaxed);
    return b > 0 ? static_cast<std::size_t>(b) : 0;
  }

  /// Forcibly removes the pair through the eviction path. The removal is a
  /// linearizable remove — same two-CAS protocol, same linearization point —
  /// but its success is counted as an LRU eviction, not a user remove.
  std::optional<V> evict(const K& key) {
    return do_remove(key, nullptr, /*as_evict=*/true);
  }

  /// Quiescent structural invariant check, used by the test suite. Returns
  /// human-readable descriptions of violations (empty = consistent).
  std::vector<std::string> debug_validate() const {
    std::vector<std::string> issues;
    validate_node(root_, 0, 0, issues);
    return issues;
  }

 private:
  enum class Res : std::uint8_t {
    kNew,       // key inserted
    kReplaced,  // existing pair replaced
    kExists,    // put_if_absent found the key; nothing changed
    kNotFound,  // key absent (replace/remove)
    kRemoved,    // pair removed
    kRestart,    // frozen/stale path; retry from the root
    kRetryLevel, // internal: CAS lost locally; re-read the same slot
  };

  enum class Mode : std::uint8_t {
    kUpsert,
    kIfAbsent,
    kReplaceOnly,
    kReplaceIfEquals,
  };

  static constexpr std::int32_t kNoCacheLevel = -1;

  static std::uint32_t slot_index(std::uint64_t h, std::uint32_t lev,
                                  std::uint32_t len) noexcept {
    return static_cast<std::uint32_t>((h >> lev) & (len - 1));
  }

  // --- bounded-memory mode machinery (DESIGN.md §3) -------------------------

  /// Per-operation eviction horizons, computed once at each public entry
  /// point and threaded through the descent. Inert (all zero) when the trie
  /// is unbounded: no stamp is ever below a zero floor, so every check falls
  /// through at the cost of one predictable compare.
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

  /// Computes this operation's horizons, advancing the logical clock by one
  /// tick — unless an injectable clock owns time (then tests drive it).
  Horizon make_horizon() const {
    Horizon hz;
    if (!bounded_) return hz;
    hz.now = config_.tick_fn != nullptr
                 ? config_.tick_fn()
                 : op_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config_.ttl_ticks != 0 && hz.now > config_.ttl_ticks) {
      hz.ttl_floor = hz.now - config_.ttl_ticks;
    }
    return hz;
  }

  /// Exact double-entry byte accounting: every publish-success adds the
  /// bytes it made reachable, every retire subtracts exactly what it hands
  /// the reclaimer. Like the stamp/tick/window words, this sum is advisory —
  /// all accesses relaxed, no ordering contract (ordering_contracts.hpp
  /// documents why).
  void account(std::ptrdiff_t delta) const noexcept {
    if (!bounded_) return;
    resident_bytes_.fetch_add(delta, std::memory_order_relaxed);
    if (config_.resident_gauge != nullptr) {
      config_.resident_gauge->fetch_add(delta, std::memory_order_relaxed);
    }
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire_snode(SNodeT* sn) const {
    account(-static_cast<std::ptrdiff_t>(sizeof(SNodeT)));
    Reclaimer::template retire<SNodeT>(sn);
  }

  void note_eviction(bool expiry, std::uint64_t h, std::uint32_t lev) const {
    if (expiry) {
      obs::sites::cachetrie_evict_ttl.record(h, lev);
    } else {
      obs::sites::cachetrie_evict_lru.record(h, lev);
    }
  }

  /// Lazily evicts `osn` through its txn word — the identical announce/commit
  /// pair the remove path uses, so an eviction linearizes exactly like a
  /// remove of that key. Returns true iff this thread won the announcement
  /// (and is therefore the unique retirer).
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  bool try_evict_snode(std::atomic<NodeBase*>& slot, SNodeT* osn, ANode* cur,
                       ANode* prev, std::uint32_t lev, bool expiry) {
    testkit::chaos_point("cachetrie.evict_announce");
    NodeBase* etxn = Sentinels::no_txn();
    // [publishes: CT_TXN]
    if (!osn->txn.compare_exchange_strong(etxn, nullptr,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      return false;
    }
    testkit::chaos_point("cachetrie.evict_commit");
    NodeBase* eo = osn;
    slot.compare_exchange_strong(eo, nullptr, std::memory_order_acq_rel,
                                 std::memory_order_acquire);
    clear_cache_refs(osn, osn->hash, lev + 4);
    retire_snode(osn);
    note_eviction(expiry, osn->hash, lev);
    maybe_compress(cur, prev, osn->hash, lev);
    return true;
  }

  /// Ceiling enforcement. Every writer passes through here before doing its
  /// own work, so enforcement survives any particular evictor dying: there
  /// is no dedicated eviction thread to lose. Over the ceiling, the op runs
  /// a bounded clock-hand scan against an adaptive idle window; the window
  /// halves whenever a scan frees nothing and relaxes once pressure clears.
  void maybe_backpressure(Horizon& hz) {
    if (config_.ceiling_bytes == 0) return;
    const std::size_t resident = resident_bytes();
    const std::uint64_t w = lru_window_.load(std::memory_order_relaxed);
    if (resident <= config_.ceiling_bytes) {
      if (w < config_.lru_idle_ticks &&
          resident <= config_.ceiling_bytes - config_.ceiling_bytes / 4) {
        lru_window_.store(
            std::min<std::uint64_t>(w * 2, config_.lru_idle_ticks),
            std::memory_order_relaxed);
      }
      return;
    }
    obs::sites::cachetrie_evict_backpressure.record(resident,
                                                    config_.ceiling_bytes);
    hz.lru_floor = hz.now > w ? hz.now - w : hz.now;
    const std::size_t evicted = evict_scan(hz, config_.evict_probes);
    if (evicted == 0 && w > 1) {
      lru_window_.store(w / 2, std::memory_order_relaxed);
    }
  }

  /// The lazy clock hand (after the fwoodruff Lock-Free-Cache design: no
  /// doubly-linked list, no dedicated thread): descend a few pseudo-random
  /// hash paths from a roving cursor and evict any live leaf whose stamp
  /// fell past a horizon. Each probe is an O(1)-expected descent.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  std::size_t evict_scan(const Horizon& hz, std::uint32_t probes) {
    testkit::chaos_point("cachetrie.evict_scan");
    std::size_t evicted = 0;
    for (std::uint32_t p = 0; p < probes; ++p) {
      const std::uint64_t h =
          util::mix64(evict_cursor_.fetch_add(1, std::memory_order_relaxed));
      ANode* cur = root_;
      ANode* prev = nullptr;
      std::uint32_t lev = 0;
      while (true) {
        auto& slot = cur->slots()[slot_index(h, lev, cur->length)];
        NodeBase* n = slot.load(std::memory_order_acquire);
        if (n == nullptr || n == Sentinels::fv()) break;
        if (n->kind == Kind::kANode) {
          prev = cur;
          cur = static_cast<ANode*>(n);
          lev += 4;
          continue;
        }
        if (n->kind == Kind::kSNode) {
          auto* sn = static_cast<SNodeT*>(n);
          if (sn->txn.load(std::memory_order_acquire) !=
              Sentinels::no_txn()) {
            break;
          }
          const std::uint64_t st = sn->stamp.load(std::memory_order_relaxed);
          if (hz.evictable(st) &&
              try_evict_snode(slot, sn, cur, prev, lev, hz.expired(st))) {
            ++evicted;
          }
          break;
        }
        // Chains and in-flight announcements: skip this probe; chain
        // corpses are pruned by the traversal rebuilds instead.
        break;
      }
    }
    return evicted;
  }

  // --- write-path driver ---------------------------------------------------

  Res mutate(const K& key, const V& value, Mode mode,
             const V* expected = nullptr) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    // Fault site: a victim parked (or killed) here stalls inside a guard
    // with the epoch pinned — the worst case for epoch reclamation.
    testkit::chaos_point("cachetrie.pinned");
    Horizon hz = make_horizon();
    if (bounded_) maybe_backpressure(hz);  // may raise hz.lru_floor
    const std::uint64_t h = hasher_(key);
    if (auto start = cache_start(h); start.node != nullptr) {
      const Res r = insert_rec(key, value, h, start.level, start.node,
                               nullptr, mode, expected, hz);
      if (r != Res::kRestart) return note_mutate_result(r);
    }
    while (true) {
      const Res r =
          insert_rec(key, value, h, 0, root_, nullptr, mode, expected, hz);
      if (r != Res::kRestart) return note_mutate_result(r);
      obs::sites::cachetrie_root_restart.add();
    }
  }

  /// Counts committed mutation outcomes — linearized before the count, so
  /// after all threads join, insert_new - remove == size() exactly (the
  /// obs_chaos_test invariant).
  static Res note_mutate_result(Res r) noexcept {
    if (r == Res::kNew) {
      obs::sites::cachetrie_insert_new.add();
    } else if (r == Res::kReplaced) {
      obs::sites::cachetrie_replace.add();
    }
    return r;
  }

  struct CacheStart {
    ANode* node = nullptr;
    std::uint32_t level = 0;
  };

  /// Finds a cached ANode to begin a write-path descent. Only ANode cachees
  /// are usable (writes may need the node's parent, which the cache cannot
  /// supply for SNodes). Mirrors the validity checks of the fast lookup.
  CacheStart cache_start(std::uint64_t h) const {
    if (!config_.use_cache) return {};
    for (CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      NodeBase* cachee =
          c->entries()[c->index_of(h)].load(std::memory_order_acquire);
      if (cachee == nullptr || cachee->kind != Kind::kANode) continue;
      auto* an = static_cast<ANode*>(cachee);
      NodeBase* entry = an->slots()[slot_index(h, c->level, an->length)]
                            .load(std::memory_order_acquire);
      if (entry == Sentinels::fv()) continue;
      if (entry != nullptr) {
        if (entry->kind == Kind::kFNode) continue;
        if (entry->kind == Kind::kSNode &&
            static_cast<SNodeT*>(entry)->txn.load(
                std::memory_order_acquire) == Sentinels::fs()) {
          continue;
        }
      }
      return {an, c->level};
    }
    return {};
  }

  // --- insert (paper Fig. 3) -----------------------------------------------

  Res insert_rec(const K& key, const V& value, std::uint64_t h,
                 std::uint32_t lev, ANode* cur, ANode* prev, Mode mode,
                 const V* expected_value, const Horizon& hz) {
    while (true) {
      auto& slot = cur->slots()[slot_index(h, lev, cur->length)];
      // [acquires: CT_SLOT_COMMIT]
      NodeBase* old = slot.load(std::memory_order_acquire);

      if (old == nullptr) {  // case (1): empty slot
        if (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals) {
          return Res::kNotFound;
        }
        SNodeT* sn = SNodeT::make(h, key, value, hz.now);
        NodeBase* expected = nullptr;
        // [publishes: CT_SLOT_COMMIT]
        if (slot.compare_exchange_strong(expected, sn,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          account(static_cast<std::ptrdiff_t>(sizeof(SNodeT)));
          maybe_inhabit(sn, h, lev + 4);
          return Res::kNew;
        }
        delete sn;  // [delete: unpublished]
        continue;
      }
      if (old == Sentinels::fv()) return Res::kRestart;  // frozen empty slot

      switch (old->kind) {
        case Kind::kANode: {
          auto* child = static_cast<ANode*>(old);
          maybe_inhabit(child, h, lev + 4);
          return insert_rec(key, value, h, lev + 4, child, cur, mode,
                            expected_value, hz);
        }
        case Kind::kSNode: {
          const Res r = insert_at_snode(key, value, h, lev, cur, prev, slot,
                                        static_cast<SNodeT*>(old), mode,
                                        expected_value, hz);
          if (r != Res::kRetryLevel) return r;
          continue;
        }
        case Kind::kLNode: {
          const Res r = insert_at_lnode(key, value, h, lev, slot,
                                        static_cast<LNodeT*>(old), mode,
                                        expected_value, hz);
          if (r != Res::kRetryLevel) return r;
          continue;
        }
        case Kind::kENode:
          // Help the pending expansion/compression, then re-read the slot.
          complete_enode(static_cast<ENode*>(old));
          continue;
        case Kind::kFNode:
          return Res::kRestart;
        default:
          assert(false && "unexpected node kind in ANode slot");
          return Res::kRestart;
      }
    }
  }

  /// Slot holds an SNode: replace in place (same key), expand a narrow node
  /// (collision in a 4-slot node), or hang a fresh subtree (collision in a
  /// wide node). Paper Fig. 3, lines 11-38.
  /// Value comparison for the compare-and-replace mode; instantiable even
  /// for value types without operator== (the mode is then unreachable).
  static bool value_equals(const V& a, const V& b) {
    if constexpr (std::equality_comparable<V>) {
      return a == b;
    } else {
      (void)a;
      (void)b;
      return false;
    }
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res insert_at_snode(const K& key, const V& value, std::uint64_t h,
                      std::uint32_t lev, ANode* cur, ANode* prev,
                      std::atomic<NodeBase*>& slot, SNodeT* osn, Mode mode,
                      const V* expected_value, const Horizon& hz) {
    // [acquires: CT_TXN]
    NodeBase* txn = osn->txn.load(std::memory_order_acquire);
    if (txn == Sentinels::no_txn()) {
      const std::uint64_t ostamp =
          bounded_ ? osn->stamp.load(std::memory_order_relaxed) : 0;
      if (osn->hash == h && osn->key == key) {
        // A TTL-expired pair is semantically absent (DESIGN.md §3): upsert
        // and put_if_absent replace the corpse through the same txn path —
        // the replacement doubles as the lazy eviction — while the replace
        // modes evict it and report the key absent.
        const bool corpse = hz.expired(ostamp);
        if (corpse &&
            (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals)) {
          try_evict_snode(slot, osn, cur, prev, lev, /*expiry=*/true);
          return Res::kNotFound;
        }
        if (!corpse) {
          if (mode == Mode::kIfAbsent) {
            if (bounded_) {
              osn->stamp.store(hz.now, std::memory_order_relaxed);
            }
            return Res::kExists;
          }
          if (mode == Mode::kReplaceIfEquals &&
              !value_equals(osn->value, *expected_value)) {
            if (bounded_) {
              osn->stamp.store(hz.now, std::memory_order_relaxed);
            }
            return Res::kExists;
          }
        }
        // case (4): same key — two-CAS replacement. The txn CAS both
        // announces the change and invalidates any cache entry.
        SNodeT* sn = SNodeT::make(h, key, value, hz.now);
        testkit::chaos_point("cachetrie.txn_announce");
        NodeBase* expected = Sentinels::no_txn();
        // [publishes: CT_TXN]
        if (osn->txn.compare_exchange_strong(expected, sn,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
          // The window between the txn announcement and the slot commit is
          // where helpers race the winner (§3.3's two-CAS protocol).
          testkit::chaos_point("cachetrie.txn_commit");
          obs::sites::cachetrie_txn_commit.record(h, lev);
          NodeBase* eo = osn;
          slot.compare_exchange_strong(eo, sn, std::memory_order_acq_rel,
                                       std::memory_order_acquire);
          // The only possible slot transition was osn -> sn (helpers commit
          // the announced txn), so osn is out either way; we won the txn and
          // are the unique retirer.
          clear_cache_refs(osn, h, lev + 4);
          account(static_cast<std::ptrdiff_t>(sizeof(SNodeT)));
          retire_snode(osn);
          if (corpse) {
            note_eviction(/*expiry=*/true, h, lev);
            return Res::kNew;  // the replaced pair was semantically absent
          }
          return Res::kReplaced;
        }
        delete sn;  // [delete: unpublished]
        obs::sites::cachetrie_txn_retry.add();
        return Res::kRetryLevel;
      }
      // A stale colliding pair is lazily evicted instead of growing a
      // subtree under a corpse; the caller re-reads the emptied slot.
      if (bounded_ && hz.evictable(ostamp)) {
        try_evict_snode(slot, osn, cur, prev, lev, hz.expired(ostamp));
        return Res::kRetryLevel;
      }
      if (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals) {
        return Res::kNotFound;
      }
      if (cur->length == 4) {
        // case (3): collision in a narrow node — expand it to a wide one.
        if (prev == nullptr) return Res::kRestart;  // descent began mid-trie
        const std::uint32_t ppos = slot_index(h, lev - 4, prev->length);
        ENode* en =
            ENode::make(prev, ppos, cur, h, lev, /*compress=*/false);
        testkit::chaos_point("cachetrie.expand_announce");
        NodeBase* expected = cur;
        if (prev->slots()[ppos].compare_exchange_strong(
                expected, en, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          account(static_cast<std::ptrdiff_t>(sizeof(ENode)));
          complete_enode(en);
          // [acquires: CT_ENODE_RESULT]
          NodeBase* wide = en->result.load(std::memory_order_acquire);
          assert(wide != nullptr && wide->kind == Kind::kANode);
          return insert_rec(key, value, h, lev, static_cast<ANode*>(wide),
                            prev, mode, expected_value, hz);
        }
        delete en;  // [delete: unpublished]
        // Someone got to prev[ppos] first; help if it is an announcement.
        NodeBase* now =
            prev->slots()[ppos].load(std::memory_order_acquire);
        if (now != nullptr && now->kind == Kind::kENode) {
          complete_enode(static_cast<ENode*>(now));
        }
        return Res::kRestart;
      }
      // case (2): collision in a wide node — build a deeper subtree that
      // holds a fresh copy of osn's pair plus the new pair, and commit it
      // through osn's txn.
      NodeBase* subtree = create_subtree(osn, h, key, value, lev + 4, hz.now);
      // Footprint of the replacement, taken while it is still private; after
      // the txn wins, helpers may commit it and make it concurrently mutable.
      const std::ptrdiff_t sub_bytes =
          bounded_ ? static_cast<std::ptrdiff_t>(subtree_footprint(subtree))
                   : 0;
      testkit::chaos_point("cachetrie.txn_announce");
      NodeBase* expected = Sentinels::no_txn();
      if (osn->txn.compare_exchange_strong(expected, subtree,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        testkit::chaos_point("cachetrie.txn_commit");
        obs::sites::cachetrie_txn_commit.record(h, lev);
        NodeBase* eo = osn;
        slot.compare_exchange_strong(eo, subtree, std::memory_order_acq_rel,
                                     std::memory_order_acquire);
        clear_cache_refs(osn, h, lev + 4);
        account(sub_bytes);
        retire_snode(osn);
        return Res::kNew;
      }
      destroy_subtree_value(subtree);
      obs::sites::cachetrie_txn_retry.add();
      return Res::kRetryLevel;
    }
    if (txn == Sentinels::fs()) return Res::kRestart;  // frozen leaf
    // A transaction is pending on this SNode: help commit it (the announced
    // value may be nullptr — a removal) and retry.
    NodeBase* eo = osn;
    slot.compare_exchange_strong(eo, txn, std::memory_order_acq_rel,
                                 std::memory_order_acquire);
    obs::sites::cachetrie_txn_retry.add();
    return Res::kRetryLevel;
  }

  /// Slot holds a collision chain. Chains are immutable: build the updated
  /// chain (or, when the new hash differs, a subtree that pushes the chain
  /// deeper) and swap it in with one CAS.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res insert_at_lnode(const K& key, const V& value, std::uint64_t h,
                      std::uint32_t lev, std::atomic<NodeBase*>& slot,
                      LNodeT* chain, Mode mode, const V* expected_value,
                      const Horizon& hz) {
    if (chain->hash != h) {
      // The new key only shares a prefix with the chain's hash: grow an
      // inner path below this slot that separates them. The existing chain
      // is reused (it is immutable), so nothing is retired on success; any
      // corpses it holds stay invisible until a same-hash rebuild drops them.
      if (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals) {
        return Res::kNotFound;
      }
      SNodeT* sn = SNodeT::make(h, key, value, hz.now);
      NodeBase* subtree = branch_apart(chain, chain->hash, sn, lev + 4);
      std::ptrdiff_t delta = 0;
      if (bounded_) {
        // The reused chain is already accounted; only the fresh inner path
        // and the new pair are new bytes.
        delta = static_cast<std::ptrdiff_t>(subtree_footprint(subtree));
        for (LNodeT* l = chain; l != nullptr; l = l->next) {
          delta -= static_cast<std::ptrdiff_t>(sizeof(LNodeT));
        }
      }
      NodeBase* expected = chain;
      if (slot.compare_exchange_strong(expected, subtree,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        account(delta);
        return Res::kNew;
      }
      destroy_subtree_value_sparing(subtree, chain);
      obs::sites::cachetrie_txn_retry.add();
      return Res::kRetryLevel;
    }
    // Same full hash: rebuild the chain with the pair added or replaced.
    // Bounded mode: TTL-expired pairs are semantically absent — invisible to
    // the mode checks, and dropped (counted as expiries) by the rebuild.
    bool found = false;       // a live pair for `key` exists
    bool key_corpse = false;  // an expired pair for `key` exists
    std::size_t live_others = 0;
    std::size_t expired_others = 0;
    for (LNodeT* l = chain; l != nullptr; l = l->next) {
      const bool expired = bounded_ && hz.expired(l->stamp);
      if (l->key == key) {
        if (expired) {
          key_corpse = true;
          continue;
        }
        found = true;
        if (mode == Mode::kReplaceIfEquals &&
            !value_equals(l->value, *expected_value)) {
          return Res::kExists;
        }
      } else if (expired) {
        ++expired_others;
      } else {
        ++live_others;
      }
    }
    if (found && mode == Mode::kIfAbsent) return Res::kExists;
    if (!found && (mode == Mode::kReplaceOnly ||
                   mode == Mode::kReplaceIfEquals)) {
      // A corpse for `key` (if any) stays until a mutating walk rebuilds the
      // chain; it is already unobservable, so reporting absent is correct.
      return Res::kNotFound;
    }
    // Rebuild without `key`'s old pair and without corpses. A chain that
    // would hold a single pair collapses back to an SNode (chain invariant:
    // >= 2 pairs).
    NodeBase* replacement = nullptr;
    LNodeT* fresh = nullptr;
    if (live_others == 0) {
      replacement = SNodeT::make(h, key, value, hz.now);
    } else {
      for (LNodeT* l = chain; l != nullptr; l = l->next) {
        if (l->key == key || (bounded_ && hz.expired(l->stamp))) continue;
        fresh = LNodeT::make(l->hash, l->key, l->value, fresh, l->stamp);
      }
      fresh = LNodeT::make(h, key, value, fresh, hz.now);
      replacement = fresh;
    }
    NodeBase* expected = chain;
    if (slot.compare_exchange_strong(expected, replacement,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      account(static_cast<std::ptrdiff_t>(
          live_others == 0 ? sizeof(SNodeT)
                           : (live_others + 1) * sizeof(LNodeT)));
      for (std::size_t i = 0; i < expired_others; ++i) {
        note_eviction(/*expiry=*/true, h, lev);
      }
      // The old pair for `key`, when expired, is evicted-by-replacement just
      // like the SNode corpse path: count it and report the key as new.
      if (key_corpse) note_eviction(/*expiry=*/true, h, lev);
      retire_chain(chain);
      return found ? Res::kReplaced : Res::kNew;
    }
    if (live_others == 0) {
      delete static_cast<SNodeT*>(replacement);  // [delete: unpublished]
    } else {
      destroy_chain(fresh);
    }
    obs::sites::cachetrie_txn_retry.add();
    return Res::kRetryLevel;
  }

  // --- lookup (paper Fig. 2, with the Fig. 6 cache hooks) -------------------

  // [read-path]
  std::optional<V> lookup_rec(const K& key, std::uint64_t h,
                              std::uint32_t lev, const ANode* cur,
                              std::int32_t cache_level,
                              std::uint32_t start_lev, bool sample_depth,
                              const Horizon& hz) const {
    // Fig. 6 line 3: passing the cache level on the way down lets the slow
    // path repopulate the cache. A one-hop descent starts at the ANode it
    // just read from the deepest cache entry (lev == start_lev, not the
    // root); re-storing it would write back the pointer already there, and
    // pay the inhabit's seq_cst fence for nothing.
    if (static_cast<std::int32_t>(lev) == cache_level &&
        (lev != start_lev || cur == root_)) {
      maybe_inhabit(const_cast<ANode*>(cur), h, lev);
    }
    const auto& slot = cur->slots()[slot_index(h, lev, cur->length)];
    NodeBase* old = slot.load(std::memory_order_acquire);
    if (old == nullptr || old == Sentinels::fv()) return std::nullopt;
    switch (old->kind) {
      case Kind::kANode:
        return lookup_rec(key, h, lev + 4, static_cast<const ANode*>(old),
                          cache_level, start_lev, sample_depth, hz);
      case Kind::kSNode: {
        auto* sn = static_cast<SNodeT*>(old);
        note_leaf_level(sn, lev + 4, cache_level, start_lev, sample_depth);
        if (sn->hash == h && sn->key == key) {
          if (bounded_) {
            if (hz.expired(sn->stamp.load(std::memory_order_relaxed))) {
              return std::nullopt;  // corpse: unobservable, evicted lazily
            }
            sn->stamp.store(hz.now, std::memory_order_relaxed);
          }
          return sn->value;
        }
        return std::nullopt;
      }
      case Kind::kLNode: {
        note_leaf_level(nullptr, lev + 4, cache_level, start_lev,
                        sample_depth);
        for (const LNodeT* l = static_cast<const LNodeT*>(old); l != nullptr;
             l = l->next) {
          if (l->hash == h && l->key == key) {
            if (bounded_ && hz.expired(l->stamp)) return std::nullopt;
            return l->value;
          }
        }
        return std::nullopt;
      }
      case Kind::kENode: {
        // A pending expansion/compression: continue read-only through the
        // still-intact target (linearizes before the replacement commits).
        auto* en = static_cast<ENode*>(old);
        return lookup_rec(key, h, lev + 4, en->target, cache_level,
                          start_lev, sample_depth, hz);
      }
      case Kind::kFNode: {
        NodeBase* frozen = static_cast<FNode*>(old)->frozen;
        if (frozen->kind == Kind::kANode) {
          return lookup_rec(key, h, lev + 4,
                            static_cast<const ANode*>(frozen), cache_level,
                            start_lev, sample_depth, hz);
        }
        for (const LNodeT* l = static_cast<const LNodeT*>(frozen);
             l != nullptr; l = l->next) {
          if (l->hash == h && l->key == key) {
            if (bounded_ && hz.expired(l->stamp)) return std::nullopt;
            return l->value;
          }
        }
        return std::nullopt;
      }
      default:
        assert(false && "unexpected node kind in ANode slot");
        return std::nullopt;
    }
  }

  /// Cache bookkeeping when the slow path reaches a leaf at `leaf_lev`
  /// (Fig. 6 lines 9-13): inhabit the cache when the leaf is exactly at the
  /// cache level (or when a deep leaf justifies creating the cache), and
  /// record a miss when the leaf lies outside the cache's reach — the cache
  /// at level L serves leaves at L (direct) and L+4 (one hop through a
  /// cached ANode).
  void note_leaf_level(SNodeT* sn, std::uint32_t leaf_lev,
                       std::int32_t cache_level,
                       std::uint32_t start_lev, bool sample_depth) const {
    // Dereferences this descent performed: the nodes walked from the level
    // the descent entered at (cached ANode, or the root) down to and
    // including the leaf. Every lookup entry point derives `sample_depth`
    // from its counter's pre-add value the same way the fast SNode path
    // does, so the histogram is a uniform ~1/64 sample of the per-lookup
    // depth distribution — unbiased across fast, one-hop and root-walk
    // descents, and free on the 63-in-64 unsampled hot iterations.
    if (sample_depth) {
      obs::sites::cachetrie_lookup_depth.record((leaf_lev - start_lev) / 4 +
                                                1);
    }
    if (!config_.use_cache) return;
    // SNodes are always inhabited under their *own* hash, not the probing
    // hash: under a narrow parent two bits of the slot index are unpinned,
    // and the canonical index is the one clear_cache_refs() can recompute
    // when the SNode is retired. (ANodes never hang under narrow parents,
    // so for them every probing hash yields the same index.)
    if (cache_level == kNoCacheLevel) {
      // No cache yet: a sufficiently deep leaf triggers creation (Fig. 7).
      if (sn != nullptr && leaf_lev >= kCacheInitTriggerLevel) {
        maybe_inhabit(sn, sn->hash, leaf_lev);
      }
      return;
    }
    if (sn != nullptr &&
        static_cast<std::int32_t>(leaf_lev) == cache_level) {
      maybe_inhabit(sn, sn->hash, leaf_lev);
    }
    const auto ll = static_cast<std::int32_t>(leaf_lev);
    if (ll < cache_level || ll > cache_level + 4) record_cache_miss();
  }

  // --- remove (paper §3.7) ---------------------------------------------------

  /// `as_evict` routes the success to the eviction counters (the removal is
  /// the same linearizable protocol either way); used by evict().
  std::optional<V> do_remove(const K& key, const V* expected,
                             bool as_evict = false) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("cachetrie.pinned");
    const std::uint64_t h = hasher_(key);
    const Horizon hz = make_horizon();
    std::optional<V> out;
    if (auto start = cache_start(h); start.node != nullptr) {
      const Res r = remove_rec(key, h, start.level, start.node, nullptr, &out,
                               expected, hz);
      if (r != Res::kRestart) {
        if (r == Res::kRemoved) {
          if (as_evict) {
            note_eviction(/*expiry=*/false, h, 0);
          } else {
            obs::sites::cachetrie_remove.add();
          }
        }
        return r == Res::kRemoved ? std::move(out) : std::nullopt;
      }
    }
    while (true) {
      const Res r = remove_rec(key, h, 0, root_, nullptr, &out, expected, hz);
      if (r != Res::kRestart) {
        if (r == Res::kRemoved) {
          if (as_evict) {
            note_eviction(/*expiry=*/false, h, 0);
          } else {
            obs::sites::cachetrie_remove.add();
          }
        }
        return r == Res::kRemoved ? std::move(out) : std::nullopt;
      }
      obs::sites::cachetrie_root_restart.add();
    }
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res remove_rec(const K& key, std::uint64_t h, std::uint32_t lev, ANode* cur,
                 ANode* prev, std::optional<V>* out, const V* expected,
                 const Horizon& hz) {
    while (true) {
      auto& slot = cur->slots()[slot_index(h, lev, cur->length)];
      NodeBase* old = slot.load(std::memory_order_acquire);
      if (old == nullptr) return Res::kNotFound;
      if (old == Sentinels::fv()) return Res::kRestart;
      switch (old->kind) {
        case Kind::kANode:
          return remove_rec(key, h, lev + 4, static_cast<ANode*>(old), cur,
                            out, expected, hz);
        case Kind::kSNode: {
          auto* osn = static_cast<SNodeT*>(old);
          NodeBase* txn = osn->txn.load(std::memory_order_acquire);
          if (txn == Sentinels::no_txn()) {
            const std::uint64_t ostamp =
                bounded_ ? osn->stamp.load(std::memory_order_relaxed) : 0;
            if (osn->hash != h || !(osn->key == key)) {
              // Hygiene: a stale pair crossing a remover's path is evicted
              // even though it is not the remover's key.
              if (bounded_ && hz.evictable(ostamp)) {
                try_evict_snode(slot, osn, cur, prev, lev,
                                hz.expired(ostamp));
              }
              return Res::kNotFound;
            }
            if (bounded_ && hz.expired(ostamp)) {
              // The target itself is a corpse: semantically absent — evict
              // it and report NotFound (even for a plain remove).
              try_evict_snode(slot, osn, cur, prev, lev, /*expiry=*/true);
              return Res::kNotFound;
            }
            if (expected != nullptr && !value_equals(osn->value, *expected)) {
              return Res::kNotFound;
            }
            // Announce removal by publishing nullptr in txn (invalidates
            // cache entries), then commit null into the slot.
            testkit::chaos_point("cachetrie.txn_announce");
            NodeBase* etxn = Sentinels::no_txn();
            if (osn->txn.compare_exchange_strong(etxn, nullptr,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
              testkit::chaos_point("cachetrie.txn_commit");
              obs::sites::cachetrie_txn_commit.record(h, lev);
              NodeBase* eo = osn;
              slot.compare_exchange_strong(eo, nullptr,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
              *out = osn->value;
              clear_cache_refs(osn, h, lev + 4);
              retire_snode(osn);
              maybe_compress(cur, prev, h, lev);
              return Res::kRemoved;
            }
            obs::sites::cachetrie_txn_retry.add();
            continue;
          }
          if (txn == Sentinels::fs()) return Res::kRestart;
          {  // help commit the pending transaction and retry
            NodeBase* eo = osn;
            slot.compare_exchange_strong(eo, txn, std::memory_order_acq_rel,
                                         std::memory_order_acquire);
            obs::sites::cachetrie_txn_retry.add();
            continue;
          }
        }
        case Kind::kLNode: {
          auto* chain = static_cast<LNodeT*>(old);
          if (chain->hash != h) return Res::kNotFound;
          bool found = false;
          std::size_t live_others = 0;
          std::size_t expired_others = 0;
          for (LNodeT* l = chain; l != nullptr; l = l->next) {
            const bool is_expired = bounded_ && hz.expired(l->stamp);
            if (l->key == key) {
              // A corpse is semantically absent: nothing to remove. It stays
              // until a mutating rebuild of this chain drops it.
              if (is_expired) return Res::kNotFound;
              if (expected != nullptr && !value_equals(l->value, *expected)) {
                return Res::kNotFound;
              }
              found = true;
              *out = l->value;
            } else if (is_expired) {
              ++expired_others;
            } else {
              ++live_others;
            }
          }
          if (!found) return Res::kNotFound;
          // Rebuild without the target and without corpses. Chains never
          // hold < 2 pairs: one live survivor collapses to an SNode, zero
          // (all others expired) empties the slot outright.
          NodeBase* replacement = nullptr;
          if (live_others == 1) {
            for (LNodeT* l = chain; l != nullptr; l = l->next) {
              if (!(l->key == key) && !(bounded_ && hz.expired(l->stamp))) {
                replacement =
                    SNodeT::make(l->hash, l->key, l->value, l->stamp);
              }
            }
          } else if (live_others > 1) {
            LNodeT* fresh = nullptr;
            for (LNodeT* l = chain; l != nullptr; l = l->next) {
              if (l->key == key || (bounded_ && hz.expired(l->stamp))) {
                continue;
              }
              fresh =
                  LNodeT::make(l->hash, l->key, l->value, fresh, l->stamp);
            }
            replacement = fresh;
          }
          NodeBase* echain = chain;
          if (slot.compare_exchange_strong(echain, replacement,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            if (live_others == 1) {
              account(static_cast<std::ptrdiff_t>(sizeof(SNodeT)));
            } else if (live_others > 1) {
              account(static_cast<std::ptrdiff_t>(live_others *
                                                  sizeof(LNodeT)));
            }
            for (std::size_t i = 0; i < expired_others; ++i) {
              note_eviction(/*expiry=*/true, h, lev);
            }
            retire_chain(chain);
            if (replacement == nullptr) maybe_compress(cur, prev, h, lev);
            return Res::kRemoved;
          }
          if (replacement != nullptr) destroy_subtree_value(replacement);
          out->reset();
          obs::sites::cachetrie_txn_retry.add();
          continue;
        }
        case Kind::kENode:
          complete_enode(static_cast<ENode*>(old));
          continue;
        case Kind::kFNode:
          return Res::kRestart;
        default:
          assert(false && "unexpected node kind in ANode slot");
          return Res::kRestart;
      }
    }
  }

  /// After a removal emptied `cur`, announce a compression that replaces it
  /// in `prev` with null (or with a collapsed copy if it was repopulated
  /// concurrently — the freeze-then-copy protocol makes this race benign).
  void maybe_compress(ANode* cur, ANode* prev, std::uint64_t h,
                      std::uint32_t lev) {
    if (!config_.compress || prev == nullptr) return;
    std::uint32_t live = 0;
    bool hoistable_only = true;
    for (std::uint32_t i = 0; i < cur->length; ++i) {
      NodeBase* n = cur->slots()[i].load(std::memory_order_acquire);
      if (n == nullptr) continue;
      if (n == Sentinels::fv() || n->kind == Kind::kFNode ||
          n->kind == Kind::kENode) {
        return;  // another structural operation owns this node
      }
      ++live;
      if (n->kind != Kind::kSNode) hoistable_only = false;
    }
    const bool empty = live == 0;
    const bool singleton =
        config_.compress_singletons && live == 1 && hoistable_only;
    if (!empty && !singleton) return;
    ENode* en = ENode::make(prev, slot_index(h, lev - 4, prev->length), cur,
                            h, lev, /*compress=*/true);
    testkit::chaos_point("cachetrie.compress_announce");
    NodeBase* expected = cur;
    if (prev->slots()[en->parentpos].compare_exchange_strong(
            expected, en, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      account(static_cast<std::ptrdiff_t>(sizeof(ENode)));
      complete_enode(en);
    } else {
      delete en;  // [delete: unpublished]
    }
  }

  // --- freezing and node replacement (paper Fig. 4) --------------------------

  /// Makes every slot of `cur` permanently non-writable: null -> FVNode,
  /// SNode.txn -> FSNode, child ANode/LNode -> FNode wrapper (children are
  /// frozen recursively). Pending txns and nested announcements are
  /// completed along the way. Idempotent; any number of threads may help.
  void freeze(ANode* cur) {
    // Counts freeze passes, helpers included — the helping rate under
    // contention is itself the signal of interest.
    obs::sites::cachetrie_freeze.record(reinterpret_cast<std::uintptr_t>(cur),
                                        cur->length);
    std::uint32_t i = 0;
    while (i < cur->length) {
      // Freezing races other freezers slot-by-slot and pending txns get
      // committed mid-freeze; perturb every slot visit.
      testkit::chaos_point("cachetrie.freeze_slot");
      auto& slot = cur->slots()[i];
      NodeBase* node = slot.load(std::memory_order_acquire);
      if (node == nullptr) {
        NodeBase* expected = nullptr;
        if (slot.compare_exchange_strong(expected, Sentinels::fv(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          ++i;
        }
        continue;
      }
      if (node == Sentinels::fv()) {
        ++i;
        continue;
      }
      switch (node->kind) {
        case Kind::kSNode: {
          auto* sn = static_cast<SNodeT*>(node);
          NodeBase* txn = sn->txn.load(std::memory_order_acquire);
          if (txn == Sentinels::no_txn()) {
            NodeBase* expected = Sentinels::no_txn();
            // [publishes: CT_FREEZE]
            if (sn->txn.compare_exchange_strong(expected, Sentinels::fs(),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
              ++i;
            }
            continue;
          }
          if (txn == Sentinels::fs()) {
            ++i;
            continue;
          }
          // Pending change: commit it (possibly null) and re-examine.
          NodeBase* expected = node;
          slot.compare_exchange_strong(expected, txn,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
          continue;
        }
        case Kind::kANode:
        case Kind::kLNode: {
          FNode* fn = FNode::make(node);
          NodeBase* expected = node;
          if (slot.compare_exchange_strong(expected, fn,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            account(static_cast<std::ptrdiff_t>(sizeof(FNode)));
          } else {
            delete fn;  // [delete: unpublished]
          }
          continue;  // revisit: the kFNode case below recurses
        }
        case Kind::kFNode: {
          NodeBase* frozen = static_cast<FNode*>(node)->frozen;
          if (frozen->kind == Kind::kANode) {
            freeze(static_cast<ANode*>(frozen));
          }
          ++i;
          continue;
        }
        case Kind::kENode:
          complete_enode(static_cast<ENode*>(node));
          continue;
        default:
          assert(false && "unexpected node kind while freezing");
          ++i;
          continue;
      }
    }
  }

  /// Finishes an announced expansion or compression: freeze the target,
  /// build the replacement, publish it in en->result (first builder wins),
  /// and commit it into the parent slot. The unique winner of the parent
  /// CAS retires the announcement and the frozen originals.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void complete_enode(ENode* en) {
    testkit::chaos_point("cachetrie.enode_complete");
    freeze(en->target);
    NodeBase* replacement;
    if (en->compress) {
      replacement = revive_copy(en->target);
    } else {
      ANode* wide = ANode::make(16);
      expand_copy(en->target, wide, en->level);
      replacement = wide;
    }
    testkit::chaos_point("cachetrie.enode_publish");
    NodeBase* expected = Sentinels::pending();
    // [publishes: CT_ENODE_RESULT]
    if (!en->result.compare_exchange_strong(expected, replacement,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      destroy_subtree_value(replacement);  // lost the build race
    }
    NodeBase* committed = en->result.load(std::memory_order_acquire);
    // Footprint of the committed replacement, taken before the parent-slot
    // CAS: until the unique winner of that CAS publishes it, the subtree is
    // unreachable for mutation (helpers only return from here after the
    // winner's CAS), so the walk is exact.
    const std::ptrdiff_t committed_bytes =
        bounded_ ? static_cast<std::ptrdiff_t>(subtree_footprint(committed))
                 : 0;
    testkit::chaos_point("cachetrie.enode_commit");
    NodeBase* expected_en = en;
    if (en->parent->slots()[en->parentpos].compare_exchange_strong(
            expected_en, committed, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      account(committed_bytes - static_cast<std::ptrdiff_t>(sizeof(ENode)));
      if (committed != nullptr && committed->kind == Kind::kANode) {
        maybe_inhabit(committed, en->hash, en->level);
      }
      if (en->compress) {
        obs::sites::cachetrie_compress.record(en->hash, en->level);
      } else {
        obs::sites::cachetrie_expand.record(en->hash, en->level);
      }
      retire_frozen(en->target, en->hash, en->level);
      Reclaimer::template retire<ENode>(en);
    }
  }

  /// Transfers a frozen narrow node's pairs into a fresh wide node (paper's
  /// `copy`). By the structural invariant, a narrow node only ever holds
  /// SNodes (collisions in a narrow node expand it before going deeper), and
  /// distinct 2-bit positions imply distinct 4-bit positions, so the copy is
  /// collision-free.
  void expand_copy(ANode* narrow, ANode* wide, std::uint32_t lev) {
    for (std::uint32_t i = 0; i < narrow->length; ++i) {
      // [acquires: CT_FREEZE]
      NodeBase* node = narrow->slots()[i].load(std::memory_order_acquire);
      if (node == Sentinels::fv()) continue;
      assert(node != nullptr && node->kind == Kind::kSNode &&
             "narrow nodes hold only SNodes");
      auto* sn = static_cast<SNodeT*>(node);
      auto& dst = wide->slots()[slot_index(sn->hash, lev, wide->length)];
      assert(dst.load(std::memory_order_relaxed) == nullptr);
      // The copy carries the source stamp: it is the same logical entry.
      dst.store(SNodeT::make(sn->hash, sn->key, sn->value,
                             sn->stamp.load(std::memory_order_relaxed)),
                std::memory_order_relaxed);
    }
  }

  /// Deep-copies a fully frozen subtree back to life (compression). Returns
  ///   * nullptr            — no live pairs remained (the paper's case);
  ///   * a fresh SNode      — exactly one pair remained and singleton
  ///                          collapsing is enabled (hoists it one level up);
  ///   * a fresh ANode      — otherwise, with children revived recursively.
  NodeBase* revive_copy(ANode* frozen) {
    ANode* fresh = ANode::make(frozen->length);
    std::uint32_t live = 0;
    std::uint32_t last_pos = 0;
    for (std::uint32_t i = 0; i < frozen->length; ++i) {
      NodeBase* node = frozen->slots()[i].load(std::memory_order_acquire);
      if (node == Sentinels::fv()) continue;
      assert(node != nullptr);
      NodeBase* copy = nullptr;
      if (node->kind == Kind::kSNode) {
        auto* sn = static_cast<SNodeT*>(node);
        copy = SNodeT::make(sn->hash, sn->key, sn->value,
                            sn->stamp.load(std::memory_order_relaxed));
      } else if (node->kind == Kind::kFNode) {
        NodeBase* wrapped = static_cast<FNode*>(node)->frozen;
        if (wrapped->kind == Kind::kANode) {
          copy = revive_copy(static_cast<ANode*>(wrapped));
        } else {
          copy = copy_chain(static_cast<LNodeT*>(wrapped));
        }
      } else {
        assert(false && "unexpected node kind in frozen subtree");
      }
      if (copy == nullptr) continue;  // child compressed away entirely
      fresh->slots()[i].store(copy, std::memory_order_relaxed);
      ++live;
      last_pos = i;
    }
    if (live == 0) {
      ANode::destroy(fresh);
      return nullptr;
    }
    if (live == 1 && config_.compress_singletons) {
      NodeBase* only = fresh->slots()[last_pos].load(std::memory_order_relaxed);
      if (only->kind == Kind::kSNode) {
        ANode::destroy(fresh);
        return only;
      }
    }
    return fresh;
  }

  LNodeT* copy_chain(LNodeT* chain) {
    LNodeT* fresh = nullptr;
    for (LNodeT* l = chain; l != nullptr; l = l->next) {
      fresh = LNodeT::make(l->hash, l->key, l->value, fresh, l->stamp);
    }
    return fresh;
  }

  // --- subtree construction for wide-node collisions -------------------------

  /// Builds the replacement for an SNode that collided with a new key inside
  /// a wide node (paper's createANode): a fresh copy of the old pair plus
  /// the new pair, pushed as many levels down as their hashes stay equal.
  /// Equal full hashes produce an LNode chain.
  NodeBase* create_subtree(SNodeT* osn, std::uint64_t h, const K& key,
                           const V& value, std::uint32_t lev,
                           std::uint64_t new_stamp) {
    const std::uint64_t ostamp = osn->stamp.load(std::memory_order_relaxed);
    if (osn->hash == h) {
      LNodeT* chain =
          LNodeT::make(osn->hash, osn->key, osn->value, nullptr, ostamp);
      return LNodeT::make(h, key, value, chain, new_stamp);
    }
    SNodeT* copy = SNodeT::make(osn->hash, osn->key, osn->value, ostamp);
    SNodeT* fresh = SNodeT::make(h, key, value, new_stamp);
    return branch_apart(copy, copy->hash, fresh, lev);
  }

  /// Hangs two nodes with distinct hashes (`a` at hash `ah`, SNode `b`)
  /// under a minimal chain of inner nodes starting at level `lev`. Prefers
  /// a narrow node when 2 bits separate them (the paper's space-saving
  /// trick), a wide node when 4 bits do, and recurses otherwise. `a` may be
  /// an SNode or an existing LNode chain (hash-collision chains being pushed
  /// deeper).
  NodeBase* branch_apart(NodeBase* a, std::uint64_t ah, SNodeT* b,
                         std::uint32_t lev) {
    assert(lev <= 60 && "distinct 64-bit hashes must separate by level 60");
    const std::uint32_t a2 = slot_index(ah, lev, 4);
    const std::uint32_t b2 = slot_index(b->hash, lev, 4);
    if (a2 != b2 && a->kind == Kind::kSNode) {
      // Narrow nodes may hold only SNodes (see expand_copy), so an LNode
      // child always gets a wide parent.
      ANode* an = ANode::make(4);
      an->slots()[a2].store(a, std::memory_order_relaxed);
      an->slots()[b2].store(b, std::memory_order_relaxed);
      return an;
    }
    const std::uint32_t a4 = slot_index(ah, lev, 16);
    const std::uint32_t b4 = slot_index(b->hash, lev, 16);
    ANode* an = ANode::make(16);
    if (a4 != b4) {
      an->slots()[a4].store(a, std::memory_order_relaxed);
      an->slots()[b4].store(b, std::memory_order_relaxed);
    } else {
      an->slots()[a4].store(branch_apart(a, ah, b, lev + 4),
                            std::memory_order_relaxed);
    }
    return an;
  }

  // --- deallocation helpers ---------------------------------------------------

  /// Deep-deletes an unpublished value subtree (lost CAS races, ENode build
  /// races). Never called on anything reachable.
  void destroy_subtree_value(NodeBase* node) {
    if (node == nullptr || node == Sentinels::fv()) return;
    switch (node->kind) {
      case Kind::kSNode:
        delete static_cast<SNodeT*>(node);
        return;
      case Kind::kLNode:
        destroy_chain(static_cast<LNodeT*>(node));
        return;
      case Kind::kANode: {
        auto* an = static_cast<ANode*>(node);
        for (std::uint32_t i = 0; i < an->length; ++i) {
          destroy_subtree_value(
              an->slots()[i].load(std::memory_order_relaxed));
        }
        ANode::destroy(an);
        return;
      }
      default:
        assert(false && "unexpected node kind in unpublished subtree");
    }
  }

  /// Like destroy_subtree_value, but spares `keep` (an existing chain that
  /// was linked, not copied, into the failed subtree).
  void destroy_subtree_value_sparing(NodeBase* node, NodeBase* keep) {
    if (node == nullptr || node == keep) return;
    if (node->kind == Kind::kANode) {
      auto* an = static_cast<ANode*>(node);
      for (std::uint32_t i = 0; i < an->length; ++i) {
        destroy_subtree_value_sparing(
            an->slots()[i].load(std::memory_order_relaxed), keep);
      }
      ANode::destroy(an);
      return;
    }
    destroy_subtree_value(node);
  }

  void destroy_chain(LNodeT* chain) {
    while (chain != nullptr) {
      LNodeT* next = chain->next;
      delete chain;
      chain = next;
    }
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire_chain(LNodeT* chain) {
    while (chain != nullptr) {
      LNodeT* next = chain->next;
      account(-static_cast<std::ptrdiff_t>(sizeof(LNodeT)));
      Reclaimer::template retire<LNodeT>(chain);
      chain = next;
    }
  }

  /// Retires a fully frozen, just-unlinked subtree: the ANodes, their FNode
  /// wrappers, frozen SNodes and LNode chains. Called exactly once, by the
  /// winner of the parent-slot CAS in complete_enode. `prefix` is the
  /// subtree root's path (low `level` bits are significant) — needed to
  /// clear cache entries that may still reference nodes of the subtree.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire_frozen(ANode* frozen, std::uint64_t prefix,
                     std::uint32_t level) {
    for (std::uint32_t i = 0; i < frozen->length; ++i) {
      NodeBase* node = frozen->slots()[i].load(std::memory_order_acquire);
      if (node == Sentinels::fv()) continue;
      assert(node != nullptr);
      if (node->kind == Kind::kSNode) {
        auto* sn = static_cast<SNodeT*>(node);
        clear_cache_refs(sn, sn->hash, level + 4);
        retire_snode(sn);
      } else if (node->kind == Kind::kFNode) {
        auto* fn = static_cast<FNode*>(node);
        if (fn->frozen->kind == Kind::kANode) {
          // Children of a wide node pin 4 more prefix bits (narrow nodes
          // have no ANode children).
          const std::uint64_t child_prefix =
              (prefix & ((std::uint64_t{1} << level) - 1)) |
              (static_cast<std::uint64_t>(i) << level);
          retire_frozen(static_cast<ANode*>(fn->frozen), child_prefix,
                        level + 4);
        } else {
          retire_chain(static_cast<LNodeT*>(fn->frozen));
        }
        account(-static_cast<std::ptrdiff_t>(sizeof(FNode)));
        Reclaimer::template retire<FNode>(fn);
      } else {
        assert(false && "unexpected node kind in frozen subtree");
      }
    }
    clear_cache_refs(frozen, prefix, level);
    account(-static_cast<std::ptrdiff_t>(ANode::alloc_size(frozen->length)));
    Reclaimer::retire_raw_sized(frozen, &ANode::destroy_erased,
                                ANode::alloc_size(frozen->length));
  }

  /// Destructor-only: deep-deletes the live structure, including remnants of
  /// unfinished announcements (possible if the trie is destroyed right after
  /// a crashed thread... in practice: after quiescence these do not occur,
  /// but handling them keeps the destructor total).
  void destroy_subtree(NodeBase* node) {
    if (node == nullptr || node == Sentinels::fv()) return;
    switch (node->kind) {
      case Kind::kSNode:
        delete static_cast<SNodeT*>(node);
        return;
      case Kind::kLNode:
        destroy_chain(static_cast<LNodeT*>(node));
        return;
      case Kind::kFNode: {
        auto* fn = static_cast<FNode*>(node);
        destroy_subtree(fn->frozen);
        delete fn;
        return;
      }
      case Kind::kENode: {
        auto* en = static_cast<ENode*>(node);
        destroy_subtree(en->target);
        NodeBase* result = en->result.load(std::memory_order_relaxed);
        if (result != Sentinels::pending()) destroy_subtree(result);
        delete en;
        return;
      }
      case Kind::kANode: {
        auto* an = static_cast<ANode*>(node);
        for (std::uint32_t i = 0; i < an->length; ++i) {
          destroy_subtree(an->slots()[i].load(std::memory_order_relaxed));
        }
        ANode::destroy(an);
        return;
      }
      default:
        assert(false && "unexpected node kind during destruction");
    }
  }

  // --- cache maintenance (paper Fig. 7 and Fig. 8) ----------------------------

  /// Writes `nv` into the cache if the cache covers `node_level`, creating
  /// the cache at cache_init_level the first time a node at or below
  /// kCacheInitTriggerLevel shows up (Fig. 7).
  void maybe_inhabit(NodeBase* nv, std::uint64_t h,
                     std::uint32_t node_level) const {
    if (!config_.use_cache) return;
    // [acquires: CT_CACHE_HEAD]
    CacheArray* cache = cache_head_.load(std::memory_order_acquire);
    if (cache == nullptr) {
      if (node_level < kCacheInitTriggerLevel) return;
      CacheArray* fresh = CacheArray::make(config_.cache_init_level, nullptr);
      CacheArray* expected = nullptr;
      // [publishes: CT_CACHE_HEAD]
      if (cache_head_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        account(static_cast<std::ptrdiff_t>(fresh->footprint_bytes()));
        obs::sites::cachetrie_cache_install.record(config_.cache_init_level,
                                                   node_level);
      } else {
        CacheArray::destroy(fresh);
      }
      cache = cache_head_.load(std::memory_order_acquire);
    }
    if (cache->level == node_level) {
      // Store, then re-validate (§3.5's plain WRITE is safe on the JVM
      // because a stale entry pins the dead node in memory and the dead node
      // is recognizably frozen; with manual reclamation a stale entry would
      // dangle once the node is freed). The protocol here pairs with
      // clear_cache_refs(): an unlinker marks the node (txn/freeze), then
      // clears matching cache entries; an inhabiter stores, then re-checks
      // liveness and undoes its own store if the node died. The seq_cst
      // fences make this a store-buffering (Dekker) pair: either the
      // inhabiter sees the mark, or the clearer sees the store — so no
      // resurrection survives the node's grace period.
      auto& entry = cache->entries()[cache->index_of(h)];
      obs::sites::cachetrie_cache_inhabit.add();
      // [publishes: CT_CACHE_INSTALL]
      entry.store(nv, std::memory_order_release);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!cachee_live(nv, h, node_level)) {
        NodeBase* expected = nv;
        entry.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed);
      }
    }
  }

  /// True while the node may still be linked in the trie: a live SNode has
  /// an idle txn, and a live ANode has at least its relevant entry
  /// unfrozen (once an ANode is detached, every entry is frozen).
  bool cachee_live(NodeBase* nv, std::uint64_t h,
                   std::uint32_t node_level) const {
    if (nv->kind == Kind::kSNode) {
      return static_cast<SNodeT*>(nv)->txn.load(std::memory_order_seq_cst) ==
             Sentinels::no_txn();
    }
    if (nv->kind == Kind::kANode) {
      auto* an = static_cast<ANode*>(nv);
      NodeBase* e = an->slots()[slot_index(h, node_level, an->length)].load(
          std::memory_order_seq_cst);
      if (e == Sentinels::fv()) return false;
      if (e != nullptr) {
        if (e->kind == Kind::kFNode) return false;
        if (e->kind == Kind::kSNode &&
            static_cast<SNodeT*>(e)->txn.load(std::memory_order_seq_cst) ==
                Sentinels::fs()) {
          return false;
        }
      }
      return true;
    }
    return false;
  }

  /// Erases cache entries that reference `node` before it is retired. Every
  /// retire site of a cacheable node (SNodes and ANodes) must call this with
  /// the node's path hash (any key hash whose low `level` bits equal the
  /// node's prefix) so that no cache entry outlives the node's grace period.
  void clear_cache_refs(NodeBase* node, std::uint64_t path_hash,
                        std::uint32_t level) const {
    if (!config_.use_cache) return;
    // [acquires: CT_CACHE_INSTALL]
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      if (c->level != level) continue;
      auto& entry = c->entries()[c->index_of(path_hash)];
      NodeBase* cur = entry.load(std::memory_order_seq_cst);
      if (cur == node) {
        entry.compare_exchange_strong(cur, nullptr,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed);
      }
    }
  }

  /// Counts a miss in this thread's padded slot; at max_misses, samples the
  /// key-depth distribution and adjusts the cache level (Fig. 8).
  void record_cache_miss() const {
    CacheArray* cache = cache_head_.load(std::memory_order_acquire);
    if (cache == nullptr) return;
    obs::sites::cachetrie_cache_miss.add();
    auto& counter =
        cache->misses()[util::current_thread_id() % kMissSlots].value;
    const std::int64_t count = counter.load(std::memory_order_relaxed);
    if (count >= static_cast<std::int64_t>(config_.max_misses)) {
      counter.store(0, std::memory_order_relaxed);
      sample_and_adjust(cache);
    } else {
      counter.store(count + 1, std::memory_order_relaxed);
    }
  }

  /// Depth sampling (§3.6): descend random hash paths, histogram the leaf
  /// depths, and move the cache to the most populated pair of adjacent
  /// levels; a deeper pair must beat the current level's pair by
  /// kLevelHysteresis samples. Neither the counting nor the sampling is
  /// linearizable — a race can pick a stale level, which the next pass
  /// corrects.
  void sample_and_adjust(CacheArray* head) const {
    obs::sites::cachetrie_sampling_pass.add();
    std::array<std::uint32_t, 17> hist{};
    auto& rng = util::thread_rng();
    for (std::uint32_t s = 0; s < kSampleSize; ++s) {
      const int lev = sample_path_leaf_level(rng.next());
      if (lev >= 0) {
        ++hist[static_cast<std::size_t>(lev) / 4];
        obs::sites::cachetrie_sample_leaf_level.record(
            static_cast<std::uint64_t>(lev) / 4);
      }
    }
    std::size_t best_d = 0;
    std::uint64_t best_count = 0;
    for (std::size_t d = 0; d + 1 < hist.size(); ++d) {
      const std::uint64_t c =
          static_cast<std::uint64_t>(hist[d]) + hist[d + 1];
      if (c > best_count) {
        best_count = c;
        best_d = d;
      }
    }
    if (best_count == 0) return;
    const std::size_t cur_d = head->level / 4;
    if (best_d > cur_d &&
        best_count < hist[cur_d] + hist[cur_d + 1] + kLevelHysteresis) {
      return;
    }
    std::uint32_t desired = static_cast<std::uint32_t>(best_d) * 4;
    desired = std::max(desired, config_.min_cache_level);
    desired = std::min(desired, config_.max_cache_level);
    adjust_cache_level(head, desired);
  }

  /// Follows one random hash path; returns the level of the leaf found, or
  /// -1 if the path ends in an empty slot.
  int sample_path_leaf_level(std::uint64_t h) const {
    const ANode* cur = root_;
    std::uint32_t lev = 0;
    while (true) {
      NodeBase* n = cur->slots()[slot_index(h, lev, cur->length)].load(
          std::memory_order_acquire);
      if (n == nullptr || n == Sentinels::fv()) return -1;
      switch (n->kind) {
        case Kind::kANode:
          cur = static_cast<const ANode*>(n);
          lev += 4;
          continue;
        case Kind::kSNode:
        case Kind::kLNode:
          return static_cast<int>(lev) + 4;
        case Kind::kENode:
          cur = static_cast<const ENode*>(n)->target;
          lev += 4;
          continue;
        case Kind::kFNode: {
          NodeBase* frozen = static_cast<const FNode*>(n)->frozen;
          if (frozen->kind == Kind::kANode) {
            cur = static_cast<const ANode*>(frozen);
            lev += 4;
            continue;
          }
          return static_cast<int>(lev) + 4;
        }
        default:
          return -1;
      }
    }
  }

  /// Installs a cache array at `desired`, reusing the ancestor chain. The
  /// chain's levels are strictly decreasing, so growing prepends a deeper
  /// array and shrinking pops (and retires) a prefix.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void adjust_cache_level(CacheArray* head, std::uint32_t desired) const {
    if (head->level == desired) return;
    if (desired > head->level) {
      CacheArray* fresh = CacheArray::make(desired, head);
      CacheArray* expected = head;
      if (cache_head_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        account(static_cast<std::ptrdiff_t>(fresh->footprint_bytes()));
        obs::sites::cachetrie_cache_level_change.record(head->level, desired);
      } else {
        CacheArray::destroy(fresh);
      }
      return;
    }
    CacheArray* anc = head->parent;
    while (anc != nullptr && anc->level > desired) anc = anc->parent;
    CacheArray* fresh = (anc != nullptr && anc->level == desired)
                            ? anc
                            : CacheArray::make(desired, anc);
    CacheArray* expected = head;
    if (cache_head_.compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      if (fresh != anc) {
        account(static_cast<std::ptrdiff_t>(fresh->footprint_bytes()));
      }
      obs::sites::cachetrie_cache_level_change.record(head->level, desired);
      // Retire the unlinked prefix [head, anc); readers inside guards may
      // still be walking it.
      for (CacheArray* c = head; c != anc;) {
        CacheArray* parent = c->parent;
        account(-static_cast<std::ptrdiff_t>(c->footprint_bytes()));
        Reclaimer::retire_raw_sized(c, &CacheArray::destroy_erased,
                                    c->footprint_bytes());
        c = parent;
      }
    } else if (fresh != anc) {
      CacheArray::destroy(fresh);
    }
  }

  // --- traversals --------------------------------------------------------------

  /// Invokes fn(key, value, stamp) for every pair in the subtree (the public
  /// wrappers adapt the arity and filter corpses in bounded mode).
  template <typename F>
  void for_each_node(const NodeBase* node, F& fn) const {
    if (node == nullptr || node == Sentinels::fv()) return;
    switch (node->kind) {
      case Kind::kSNode: {
        auto* sn = static_cast<const SNodeT*>(node);
        fn(sn->key, sn->value, sn->stamp.load(std::memory_order_relaxed));
        return;
      }
      case Kind::kLNode:
        for (const LNodeT* l = static_cast<const LNodeT*>(node); l != nullptr;
             l = l->next) {
          fn(l->key, l->value, l->stamp);
        }
        return;
      case Kind::kANode: {
        auto* an = static_cast<const ANode*>(node);
        for (std::uint32_t i = 0; i < an->length; ++i) {
          for_each_node(an->slots()[i].load(std::memory_order_acquire), fn);
        }
        return;
      }
      case Kind::kENode:
        for_each_node(static_cast<const ENode*>(node)->target, fn);
        return;
      case Kind::kFNode:
        for_each_node(static_cast<const FNode*>(node)->frozen, fn);
        return;
      default:
        return;
    }
  }

  std::size_t subtree_footprint(const NodeBase* node) const {
    if (node == nullptr || node == Sentinels::fv()) return 0;
    switch (node->kind) {
      case Kind::kSNode:
        return sizeof(SNodeT);
      case Kind::kLNode: {
        std::size_t bytes = 0;
        for (const LNodeT* l = static_cast<const LNodeT*>(node); l != nullptr;
             l = l->next) {
          bytes += sizeof(LNodeT);
        }
        return bytes;
      }
      case Kind::kANode: {
        auto* an = static_cast<const ANode*>(node);
        std::size_t bytes = ANode::alloc_size(an->length);
        for (std::uint32_t i = 0; i < an->length; ++i) {
          bytes += subtree_footprint(
              an->slots()[i].load(std::memory_order_acquire));
        }
        return bytes;
      }
      case Kind::kENode:
        return sizeof(ENode) +
               subtree_footprint(static_cast<const ENode*>(node)->target);
      case Kind::kFNode:
        return sizeof(FNode) +
               subtree_footprint(static_cast<const FNode*>(node)->frozen);
      default:
        return 0;
    }
  }

  void collect_histogram(const NodeBase* node, std::uint32_t lev,
                         LevelHistogram& hist) const {
    if (node == nullptr || node == Sentinels::fv()) return;
    switch (node->kind) {
      case Kind::kSNode:
        ++hist.counts[lev / 4];
        ++hist.total;
        return;
      case Kind::kLNode:
        for (const LNodeT* l = static_cast<const LNodeT*>(node); l != nullptr;
             l = l->next) {
          ++hist.counts[lev / 4];
          ++hist.total;
        }
        return;
      case Kind::kANode: {
        auto* an = static_cast<const ANode*>(node);
        for (std::uint32_t i = 0; i < an->length; ++i) {
          collect_histogram(an->slots()[i].load(std::memory_order_acquire),
                            lev + 4, hist);
        }
        return;
      }
      case Kind::kENode:
        collect_histogram(static_cast<const ENode*>(node)->target, lev,
                          hist);
        return;
      case Kind::kFNode:
        collect_histogram(static_cast<const FNode*>(node)->frozen, lev,
                          hist);
        return;
      default:
        return;
    }
  }

  void validate_node(const NodeBase* node, std::uint64_t prefix,
                     std::uint32_t lev,
                     std::vector<std::string>& issues) const {
    if (node == nullptr) return;
    if (node == Sentinels::fv()) {
      issues.push_back("FVNode present in a quiescent trie at level " +
                       std::to_string(lev));
      return;
    }
    switch (node->kind) {
      case Kind::kSNode: {
        auto* sn = static_cast<const SNodeT*>(node);
        const std::uint64_t mask = lev == 0 ? 0 : ((1ULL << lev) - 1);
        if ((sn->hash & mask) != (prefix & mask)) {
          issues.push_back("SNode hash prefix mismatch at level " +
                           std::to_string(lev));
        }
        if (sn->txn.load(std::memory_order_acquire) != Sentinels::no_txn()) {
          issues.push_back("SNode with non-idle txn in a quiescent trie");
        }
        return;
      }
      case Kind::kLNode: {
        std::size_t pairs = 0;
        const std::uint64_t hash = static_cast<const LNodeT*>(node)->hash;
        for (const LNodeT* l = static_cast<const LNodeT*>(node); l != nullptr;
             l = l->next) {
          ++pairs;
          if (l->hash != hash) {
            issues.push_back("LNode chain with mixed hashes");
          }
        }
        if (pairs < 2) {
          issues.push_back("LNode chain with fewer than 2 pairs");
        }
        const std::uint64_t mask = lev == 0 ? 0 : ((1ULL << lev) - 1);
        if ((hash & mask) != (prefix & mask)) {
          issues.push_back("LNode hash prefix mismatch at level " +
                           std::to_string(lev));
        }
        return;
      }
      case Kind::kANode: {
        auto* an = static_cast<const ANode*>(node);
        if (lev > 0 && an->length != 4 && an->length != 16) {
          issues.push_back("ANode with invalid length");
        }
        for (std::uint32_t i = 0; i < an->length; ++i) {
          const NodeBase* child =
              an->slots()[i].load(std::memory_order_acquire);
          if (child != nullptr && an->length == 4 &&
              child->kind != Kind::kSNode) {
            issues.push_back("narrow ANode holding a non-SNode child");
          }
          // Extend the known prefix with this slot's bits. For narrow nodes
          // only 2 bits are pinned by the slot index.
          const std::uint64_t bits = static_cast<std::uint64_t>(i) << lev;
          validate_node(child, prefix | bits, lev + (an->length == 4 ? 2 : 4),
                        issues);
        }
        return;
      }
      default:
        issues.push_back("special node present in a quiescent trie");
        return;
    }
  }

  Config config_;
  Hash hasher_{};
  ANode* root_;
  mutable std::atomic<CacheArray*> cache_head_{nullptr};

  // --- bounded-memory mode state (DESIGN.md §3). All words are advisory:
  // every access is relaxed, and no protocol decision builds a
  // happens-before edge through them.
  bool bounded_ = false;
  /// Logical eviction clock (one tick per op) when no injectable clock is
  /// configured. Mutable: lookups refresh stamps and advance the clock.
  mutable std::atomic<std::uint64_t> op_tick_{0};
  /// Signed so transient publish/retire interleavings can dip below zero.
  mutable std::atomic<std::int64_t> resident_bytes_{0};
  std::atomic<std::uint64_t> evict_cursor_{0};
  std::atomic<std::uint64_t> lru_window_{1};
};

}  // namespace cachetrie

