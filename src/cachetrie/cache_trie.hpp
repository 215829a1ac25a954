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
//   * Every reference to a node is a tagged word (detail::Ref): the node's
//     kind, an ANode's width and a frozen bit ride in the pointer's low
//     bits, so ANodes are bare slot arrays, a hop addresses its slot from
//     the word it followed, and freezing an entry is one CAS that sets the
//     word's frozen bit (nodes.hpp).
//   * The cache (§3.4-3.6) is a list of per-level word arrays, deepest
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
// CAS unlinked a node retires it: for a txn, the winner of the announce CAS
// (helpers run only the slot commit, commit_announced, which retires
// nothing); for an ENode, the winner of the parent-slot CAS, helper or not.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cachetrie/cache.hpp"
#include "cachetrie/config.hpp"
#include "cachetrie/evict_policy.hpp"
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

  /// The most populated pair of adjacent depths {depth, depth + 1} and its
  /// key count; on a tie the lowest depth wins. The depth sampling moves
  /// the cache by this rule.
  struct Pair {
    std::size_t depth = 0;
    std::uint64_t count = 0;
  };
  Pair best_pair() const noexcept {
    Pair best;
    for (std::size_t d = 0; d + 1 < counts.size(); ++d) {
      const std::uint64_t c = counts[d] + counts[d + 1];
      if (c > best.count) best = {d, c};
    }
    return best;
  }

  /// Fraction of keys on the best pair (Theorem 4.2 predicts >= 0.8745 as
  /// n grows).
  double top_pair_share() const noexcept {
    if (total == 0) return 1.0;
    return static_cast<double>(best_pair().count) /
           static_cast<double>(total);
  }
};

namespace detail {

/// A node's word and its trie level: where a descent starts (cache_start),
/// or the leaf a read walk reached (read_walk; an empty word when the path
/// ends in an empty slot).
struct NodeAt {
  Ref node;
  std::uint32_t level = 0;
};

}  // namespace detail

template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class CacheTrie {
  using NodeAt = detail::NodeAt;
  using Ref = detail::Ref;
  using AtomicRef = detail::AtomicRef;
  using Tag = detail::Tag;
  using ANode = detail::ANode;
  using ENode = detail::ENode;
  using SNodeT = detail::SNode<K, V>;
  using LNodeT = detail::LNode<K, V>;
  using CacheArray = detail::CacheArray;

 public:
  explicit CacheTrie(Config config = {})
      : config_(config),
        bounded_(config.ceiling_bytes != 0 || config.ttl_ticks != 0),
        policy_(config) {
    if (bounded_) evict::register_resident_gauge();
    root_ = make<ANode>(16);
  }

  CacheTrie(const CacheTrie&) = delete;
  CacheTrie& operator=(const CacheTrie&) = delete;

  ~CacheTrie() {
    destroy_subtree(root_);
    CacheArray* c = cache_head_.load(std::memory_order_relaxed);
    while (c != nullptr) {
      CacheArray* parent = c->parent;
      discard(c);
      c = parent;
    }
    // Teardown credited every node it freed, so the ledger closes at zero.
    assert(resident_bytes_.load(std::memory_order_relaxed) == 0);
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
    testkit::chaos_point(testkit::Site::cachetrie_pinned);
    const std::uint64_t h = hasher_(key);
    const Horizon hz = make_horizon();
    CacheArray* cache = config_.use_cache
                            ? cache_head_.load(std::memory_order_acquire)
                            : nullptr;
    const std::int32_t cache_level =
        cache == nullptr ? kNoCacheLevel
                         : static_cast<std::int32_t>(cache->level);
    // Fast path (paper Fig. 6): the deepest live cache word on h's path.
    const NodeAt start = cache_start(cache, h, /*snodes=*/true);
    if (start.node.tag() == Tag::kSNode) {
      // Live SNode on this key's path: it either is the key, or proves the
      // key absent (no other key shares this hash prefix, else an ANode
      // would occupy the position).
      // One plain add to this thread's stripe; its return value doubles as
      // a ~1/64 sampler for the depth histogram (depth 1: the cached SNode
      // was the only dereference).
      if ((obs::sites::cachetrie_cache_hit.add() & 63u) == 0u) {
        obs::sites::cachetrie_lookup_depth.record(1);
      }
      return snode_hit(start.node.as<SNodeT>(), key, h, hz);
    }
    // A cached ANode counts a hit on the SNode path's counter, so its
    // pre-add value keeps sampling one in 64 hits whichever hit kind fires;
    // a walk from the root counts on its own. The sample is the
    // dereferences this descent performed: the nodes walked from the level
    // it entered at down to and including the leaf. Every entry derives it
    // the same way, so the histogram is a uniform ~1/64 sample of the
    // per-lookup depth distribution — unbiased across fast, one-hop and
    // root-walk descents.
    auto& counter = start.node == root_ ? obs::sites::cachetrie_lookup_slow
                                        : obs::sites::cachetrie_cache_hit;
    const bool sample_depth = (counter.add() & 63u) == 0u;
    const NodeAt leaf = read_walk(h, start.level, start.node, cache_level);
    if (leaf.node.null()) return std::nullopt;
    if (sample_depth) {
      obs::sites::cachetrie_lookup_depth.record(
          (leaf.level - start.level) / 4 + 1);
    }
    auto* sn = leaf.node.tag() == Tag::kSNode ? leaf.node.as<SNodeT>()
                                              : nullptr;
    note_leaf_level(sn, leaf.level, cache_level);
    if (sn != nullptr) return snode_hit(sn, key, h, hz);
    const LNodeT* l = chain_find(leaf.node.as<LNodeT>(), key, h, hz);
    return l != nullptr ? std::optional<V>(l->value) : std::nullopt;
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
    auto count = [&](const K&, const V&, std::uint64_t st, std::uint32_t) {
      if (bounded_ && hz.expired(st)) return;
      ++n;
    };
    for_each_node(root_, 0, count);
    return n;
  }

  bool empty() const { return size() == 0; }

  /// Applies fn(key, value) to every pair (bounded mode: to every live,
  /// unexpired pair).
  template <typename F>
  void for_each(F&& fn) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    const Horizon hz = make_horizon();
    auto visit = [&](const K& k, const V& v, std::uint64_t st,
                     std::uint32_t) {
      if (bounded_ && hz.expired(st)) return;
      fn(k, v);
    };
    for_each_node(root_, 0, visit);
  }

  /// Bytes of heap owned by the trie: nodes, each at its pool class size
  /// (NodePool::class_bytes: the block the pool serves it from), plus the
  /// cache arrays when the cache is enabled, at their mapped size. Freed
  /// blocks the pool keeps for reuse are not counted here
  /// (NodePool::mapped_bytes() and the mr.pool.mapped_bytes gauge cover
  /// them, for all structures alike).
  std::size_t footprint_bytes() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    auto none = [](const K&, const V&, std::uint64_t, std::uint32_t) {};
    std::size_t bytes = sizeof(*this) + for_each_node(root_, 0, none);
    for (CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      bytes += node_bytes(c);
    }
    return bytes;
  }

  /// Distribution of keys over trie depths (appendix A.5.1).
  LevelHistogram level_histogram() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    LevelHistogram hist;
    auto tally = [&](const K&, const V&, std::uint64_t, std::uint32_t lev) {
      ++hist.counts[lev / 4];
      ++hist.total;
    };
    for_each_node(root_, 0, tally);
    return hist;
  }

  /// Current deepest cache level, or -1 when no cache exists yet.
  std::int32_t cache_level() const {
    CacheArray* c = cache_head_.load(std::memory_order_acquire);
    return c == nullptr ? -1 : static_cast<std::int32_t>(c->level);
  }

  /// The word the cache array at `level` holds for `key`'s hash: empty when
  /// the entry is empty or no array in the chain covers `level`. For tests;
  /// the node may be retired as soon as another operation runs.
  // [read-path]
  detail::Ref debug_cache_entry(const K& key, std::uint32_t level) const {
    const std::uint64_t h = hasher_(key);
    for (CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      if (c->level == level) {
        return c->entry(c->index_of(h)).load(std::memory_order_acquire);
      }
    }
    return {};
  }

  // --- bounded-memory mode (DESIGN.md §3) -----------------------------------

  /// Observed resident footprint: the bytes of every node this trie made and
  /// has not retired or discarded, each at its pool class size —
  /// footprint_bytes() - sizeof(*this) at quiescence, plus in-flight
  /// operations' unpublished copies. Excludes bytes in reclaimer limbo
  /// (EpochDomain::retired_bytes()). Always 0 when unbounded.
  std::size_t resident_bytes() const noexcept {
    return static_cast<std::size_t>(
        resident_bytes_.load(std::memory_order_relaxed));
  }

  /// Bytes left under the ceiling; SIZE_MAX when there is none.
  std::size_t resident_headroom_bytes() const noexcept {
    return policy_.headroom_bytes(resident_bytes());
  }

  /// True once resident bytes cross `frac` of the ceiling — the serving
  /// layer's graceful-degradation signal (net/shard.hpp). Always false
  /// without a ceiling.
  bool near_ceiling(double frac = 0.9) const noexcept {
    return policy_.near_ceiling(resident_bytes(), frac);
  }

  /// Forcibly removes the pair through the eviction path. The removal is a
  /// linearizable remove — same two-CAS protocol, same linearization point —
  /// but its success is counted as an LRU eviction, not a user remove.
  std::optional<V> evict(const K& key) {
    return do_remove(key, nullptr, /*as_evict=*/true);
  }

  /// Quiescent structural invariant check, used by the test suite. Returns
  /// human-readable descriptions of violations (empty = consistent): first
  /// the trie's, then the cache's (validate_cache).
  std::vector<std::string> debug_validate() const {
    std::vector<std::string> issues;
    Reached reached;
    validate_node(root_, 0, 0, 0, reached, issues);
    validate_cache(reached, issues);
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
    kRetryLevel, // internal: re-read the slot at the write walk's position
  };

  /// Where a write walk stands: ANode `cur` at level `lev`, and its parent
  /// `prev` — empty when the walk began at a cached ANode, whose parent the
  /// cache cannot supply.
  struct WritePos {
    Ref cur;
    Ref prev;
    std::uint32_t lev = 0;
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
  /// is unbounded, so every check falls through at the cost of one
  /// predictable compare.
  using Horizon = evict::Horizon;

  Horizon make_horizon() const {
    if (!bounded_) return {};
    return policy_.horizon();
  }

  /// Books `delta` bytes in this trie's ledger and in the process-wide
  /// gauge; only make, retire and discard call it. Like the stamp/tick/window
  /// words, the sum is advisory — all accesses relaxed, no ordering contract
  /// (ordering_contracts.hpp documents why).
  void account(std::ptrdiff_t delta) const noexcept {
    if (!bounded_) return;
    resident_bytes_.fetch_add(delta, std::memory_order_relaxed);
    evict::process_resident_bytes().fetch_add(delta, std::memory_order_relaxed);
  }

  // --- node lifecycle (DESIGN.md §3) -----------------------------------------
  //
  // Every node the trie owns is made, retired or discarded through one
  // function each, and only these book the ledger: a node counts from the
  // moment it is made until it is retired or discarded.

  /// A node's bytes in the ledger: the pool class its allocation takes
  /// (NodePool::class_bytes), so the ledger books what the pool hands out.
  /// A leaf's size depends on whether the trie stamps its leaves; an ANode
  /// is named by its word, whose tag holds its length.
  template <typename N>
  std::size_t node_bytes(const N* n) const noexcept {
    if constexpr (std::is_same_v<N, CacheArray>) {
      return n->footprint_bytes();
    } else if constexpr (std::is_same_v<N, SNodeT>) {
      return mr::NodePool::class_bytes(SNodeT::alloc_size(bounded_),
                                       alignof(SNodeT));
    } else {
      return mr::NodePool::class_bytes(sizeof(N), alignof(N));
    }
  }
  static std::size_t node_bytes(Ref an) noexcept {
    return mr::NodePool::class_bytes(ANode::alloc_size(an.length()));
  }

  /// A fresh node: a pointer, or for an ANode the word that refers to it.
  template <typename N, typename... Args>
  auto make(Args&&... args) const {
    auto n = N::make(std::forward<Args>(args)...);
    account(static_cast<std::ptrdiff_t>(node_bytes(n)));
    return n;
  }

  /// A fresh leaf, with a stamp word exactly when the trie is bounded.
  SNodeT* make_leaf(std::uint64_t h, const K& key, const V& value,
                    std::uint64_t stamp) const {
    return make<SNodeT>(bounded_, h, key, value, stamp);
  }

  /// A fresh copy of a resident leaf: the same logical entry, stamp included.
  SNodeT* copy_leaf(const SNodeT* sn) const {
    return make_leaf(hash_of(sn), sn->key, sn->value, stamp_of(sn));
  }

  /// The hash of a resident leaf's key: its stored field, or the key
  /// rehashed when leaves store none (detail::kLeafStoresHash).
  // [read-path]
  std::uint64_t hash_of(const SNodeT* sn) const {
    if constexpr (detail::kLeafStoresHash<K>) {
      return sn->hash;
    } else {
      return hasher_(sn->key);
    }
  }

  /// True when leaf `sn` holds `key`, whose hash is `h`. Equal keys have
  /// equal hashes, so a stored hash is only a cheap first filter.
  // [read-path]
  static bool holds(const SNodeT* sn, const K& key, std::uint64_t h) {
    if constexpr (detail::kLeafStoresHash<K>) {
      if (sn->hash != h) return false;
    } else {
      (void)h;
    }
    return sn->key == key;
  }

  /// A leaf's last-use tick; 0 in an unbounded trie, whose leaves have no
  /// stamp word.
  // [read-path]
  std::uint64_t stamp_of(const SNodeT* sn) const {
    return bounded_ ? sn->stamp().load(std::memory_order_relaxed) : 0;
  }

  /// For a node this thread's CAS unlinked: readers may still hold it, so
  /// the reclaimer frees it after a grace period.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  template <typename N>
  void retire(N* n) const {
    account(-static_cast<std::ptrdiff_t>(node_bytes(n)));
    if constexpr (std::is_same_v<N, SNodeT>) {  // sized by bounded_
      auto* del = bounded_ ? &SNodeT::template destroy_erased<true>
                           : &SNodeT::template destroy_erased<false>;
      Reclaimer::retire_raw_sized(n, del, node_bytes(n));
    } else if constexpr (requires { N::destroy(n); }) {  // CacheArray
      Reclaimer::retire_raw_sized(n, &N::destroy_erased, node_bytes(n));
    } else {
      Reclaimer::template retire<N>(n);
    }
  }
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire(Ref an) const {
    account(-static_cast<std::ptrdiff_t>(node_bytes(an)));
    Reclaimer::retire_raw_sized(an.anode(),
                                an.length() == 4 ? &ANode::destroy_erased<4>
                                                 : &ANode::destroy_erased<16>,
                                node_bytes(an));
  }

  /// For a node no other thread can reach: a copy that lost its race, or
  /// the trie's own nodes at teardown.
  template <typename N>
  void discard(N* n) const {
    account(-static_cast<std::ptrdiff_t>(node_bytes(n)));
    if constexpr (std::is_same_v<N, SNodeT>) {
      SNodeT::destroy(n, bounded_);
    } else if constexpr (requires { N::destroy(n); }) {
      N::destroy(n);
    } else {
      delete n;  // [delete: unpublished] -- or no longer reachable
    }
  }
  void discard(Ref an) const {
    account(-static_cast<std::ptrdiff_t>(node_bytes(an)));
    ANode::destroy(an);
  }

  void note_eviction(bool expiry, std::uint64_t h, std::uint32_t lev) const {
    if (expiry) {
      obs::sites::cachetrie_evict_ttl.record(h, lev);
    } else {
      obs::sites::cachetrie_evict_lru.record(h, lev);
    }
  }

  /// Lazily evicts `osn` through its txn word — the remove path's
  /// commit_txn, so an eviction linearizes exactly like a remove of that
  /// key. Returns true iff this thread won the announcement (and is
  /// therefore the unique retirer).
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  bool try_evict_snode(AtomicRef& slot, SNodeT* osn, const WritePos& at,
                       bool expiry) {
    const std::uint64_t h = hash_of(osn);
    if (!commit_txn(slot, osn, Ref{}, h, at.lev, kEvictTxn)) return false;
    note_eviction(expiry, h, at.lev);
    maybe_compress(at, h);
    return true;
  }

  /// Ceiling enforcement (evict::Policy::backpressure): over the ceiling,
  /// the writer runs a bounded clock-hand scan against the policy's idle
  /// window before doing its own work.
  void maybe_backpressure(Horizon& hz) {
    policy_.backpressure(
        hz, [this] { return resident_bytes(); },
        [this](const Horizon& h) { return evict_scan(h, kEvictProbes); });
  }

  /// The lazy clock hand (after the fwoodruff Lock-Free-Cache design: no
  /// doubly-linked list, no dedicated thread): descend a few pseudo-random
  /// hash paths from a roving cursor and evict any live leaf whose stamp
  /// fell past a horizon. Each probe is one O(1)-expected write walk from
  /// the root, so it helps an announcement it meets like any write; a walk
  /// that would restart skips the probe. An empty slot or a chain ends it:
  /// chain corpses are pruned by the chain rebuilds instead.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  std::size_t evict_scan(const Horizon& hz, std::uint32_t probes) {
    testkit::chaos_point(testkit::Site::cachetrie_evict_scan);
    std::size_t evicted = 0;
    for (std::uint32_t p = 0; p < probes; ++p) {
      const std::uint64_t h =
          util::mix64(evict_cursor_.fetch_add(1, std::memory_order_relaxed));
      const Res r = write_walk(
          h, 0, root_, /*inhabit=*/false,
          [&](WritePos& at, AtomicRef& slot, Ref old) {
            if (old.tag() != Tag::kSNode) return Res::kNotFound;
            auto* sn = old.as<SNodeT>();
            const std::uint64_t st = stamp_of(sn);
            const bool won = hz.evictable(st) &&
                             try_evict_snode(slot, sn, at, hz.expired(st));
            return won ? Res::kRemoved : Res::kNotFound;
          });
      if (r == Res::kRemoved) ++evicted;
    }
    return evicted;
  }

  // --- write-path driver ---------------------------------------------------

  Res mutate(const K& key, const V& value, Mode mode,
             const V* expected = nullptr) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    // Fault site: a victim parked (or killed) here stalls inside a guard
    // with the epoch pinned — the worst case for epoch reclamation.
    testkit::chaos_point(testkit::Site::cachetrie_pinned);
    Horizon hz = make_horizon();
    if (bounded_) maybe_backpressure(hz);  // may raise hz.lru_floor
    const std::uint64_t h = hasher_(key);
    return note_mutate_result(
        descend(h, [&](std::uint32_t lev, Ref start) {
          return write_walk(h, lev, start, /*inhabit=*/true,
                            [&](WritePos& at, AtomicRef& slot, Ref old) {
                              return insert_at(key, value, h, at, slot, old,
                                               mode, expected, hz);
                            });
        }));
  }

  /// Runs a write-path descent `from(level, node)` from a cached ANode when
  /// cache_start finds one, then from the root until it does not restart.
  template <typename From>
  Res descend(std::uint64_t h, From&& from) {
    CacheArray* cache = config_.use_cache
                            ? cache_head_.load(std::memory_order_acquire)
                            : nullptr;
    if (auto start = cache_start(cache, h, /*snodes=*/false);
        start.node != root_) {
      const Res r = from(start.level, start.node);
      if (r != Res::kRestart) return r;
    }
    while (true) {
      const Res r = from(0, root_);
      if (r != Res::kRestart) return r;
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

  /// The one cache probe (paper Fig. 6): the first live word on `h`'s path
  /// in the chain from `cache`, deepest array first, with its array's
  /// level; the root at level 0 when no array holds one. A cached ANode is
  /// live while its entry for `h` is not frozen (§3.4), a cached SNode while
  /// its txn is idle. Writes pass over SNode words (`snodes` false): they
  /// may need the node's parent, which the cache cannot supply.
  // [read-path]
  NodeAt cache_start(CacheArray* cache, std::uint64_t h,
                     bool snodes) const {
    for (CacheArray* c = cache; c != nullptr; c = c->parent) {
      const Ref cachee =
          c->entry(c->index_of(h)).load(std::memory_order_acquire);
      // The word's tag gives the ANode's slot count, so the slot is
      // addressed without touching anything else in the node.
      const bool live =
          cachee.is_anode()
              ? !entry_frozen</*SeqCst=*/false>(cachee, h, c->level)
              : snodes && cachee.tag() == Tag::kSNode &&
                    cachee.as<SNodeT>()->txn.load(
                        std::memory_order_acquire) == Ref::no_txn();
      // Empty, or anything else cached is stale; try shallower levels.
      if (live) return {cachee, c->level};
    }
    return {root_, 0};
  }

  /// The one write-path walk (paper Fig. 3 and §3.7) down `h`'s path from
  /// `cur`, the word of an ANode at `lev`. It handles every word that does
  /// not depend on the operation: a frozen word restarts from the root (its
  /// node is being replaced), an ANode is stepped into (and inhabited into
  /// the cache when `inhabit`), an ENode is helped to completion, and an
  /// SNode's pending txn is committed (a frozen txn restarts). It hands
  /// `leaf(at, slot, old)` only an empty slot, an idle SNode or a chain.
  /// `leaf` returns kRetryLevel to have the slot at `at` re-read — after a
  /// lost CAS, or after moving `at.cur` to the node that replaced it — and
  /// anything else ends the walk.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  template <typename Leaf>
  Res write_walk(std::uint64_t h, std::uint32_t lev, Ref cur, bool inhabit,
                 Leaf&& leaf) {
    WritePos at{cur, Ref{}, lev};
    while (true) {
      AtomicRef& slot = at.cur.slot(h, at.lev);
      // [acquires: CT_SLOT_COMMIT]
      const Ref old = slot.load(std::memory_order_acquire);
      // A frozen empty slot, ANode or chain: at.cur is being replaced.
      if (old.is_frozen()) return Res::kRestart;
      switch (old.tag()) {
        case Tag::kNarrow:
        case Tag::kWide:
          if (inhabit) maybe_inhabit(old, h, at.lev + 4);
          at = {old, at.cur, at.lev + 4};
          continue;
        case Tag::kENode:
          // Help the pending expansion/compression, then re-read the slot.
          complete_enode(old.as<ENode>());
          continue;
        case Tag::kSNode: {
          auto* sn = old.as<SNodeT>();
          // [acquires: CT_TXN]
          const Ref txn = sn->txn.load(std::memory_order_acquire);
          if (txn == Ref::frozen_txn()) return Res::kRestart;  // frozen leaf
          if (txn != Ref::no_txn()) {
            // A transaction is pending on this SNode: help commit it.
            commit_announced(slot, sn, txn);
            obs::sites::cachetrie_txn_retry.add();
            continue;
          }
          break;
        }
        case Tag::kEmpty:
        case Tag::kLNode:
          break;
        default:
          assert(false && "a sentinel in an ANode slot");
          return Res::kRestart;
      }
      const Res r = leaf(at, slot, old);
      if (r != Res::kRetryLevel) return r;
    }
  }

  // --- leaf commits: the txn protocol and the chain rebuild ------------------

  /// Chaos sites around commit_txn's two CASes. An eviction has its own
  /// pair and counts neither a txn commit nor a retry.
  struct TxnSites {
    testkit::Site announce;
    testkit::Site commit;
    bool counted;  // records cachetrie.txn_commit and cachetrie.txn.retry
  };
  static constexpr TxnSites kWriteTxn{testkit::Site::cachetrie_txn_announce,
                                      testkit::Site::cachetrie_txn_commit,
                                      true};
  static constexpr TxnSites kEvictTxn{testkit::Site::cachetrie_evict_announce,
                                      testkit::Site::cachetrie_evict_commit,
                                      false};

  /// The slot half of the txn protocol: commits the value announced on
  /// osn->txn (null for a removal) into the parent slot. The announcer
  /// and any number of helpers run it; only the first CAS takes effect.
  /// The announcer retires osn after it (commit_txn), never a helper.
  // [helper: no-retire]
  static void commit_announced(AtomicRef& slot, SNodeT* osn, Ref txn) {
    Ref expected = Ref::to(osn);
    slot.compare_exchange_strong(expected, txn, std::memory_order_acq_rel,
                                 std::memory_order_acquire);
  }

  /// The two-CAS txn commit (§3.3, Fig. 3) every SNode change goes
  /// through: announce `nv` on osn->txn — a new SNode, a subtree, or
  /// null for a removal — which invalidates osn's cache entries at once,
  /// then commit it into the parent slot, clear those entries and retire
  /// osn. Returns false when the announcement loses; `nv` is then discarded
  /// and nothing else changed. `h` is the operation's key hash, for the
  /// commit event.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  bool commit_txn(AtomicRef& slot, SNodeT* osn, Ref nv, std::uint64_t h,
                  std::uint32_t lev, const TxnSites& sites) {
    testkit::chaos_point(sites.announce);
    Ref expected = Ref::no_txn();
    // [publishes: CT_TXN]
    if (!osn->txn.compare_exchange_strong(expected, nv,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      destroy_subtree(nv);  // never published
      if (sites.counted) obs::sites::cachetrie_txn_retry.add();
      return false;
    }
    // The window between the txn announcement and the slot commit is where
    // helpers race the winner.
    testkit::chaos_point(sites.commit);
    if (sites.counted) obs::sites::cachetrie_txn_commit.record(h, lev);
    commit_announced(slot, osn, nv);
    // The only possible slot transition was osn -> nv (helpers commit the
    // announced txn), so osn is out either way; we won the txn and are the
    // unique retirer.
    clear_cache_refs(osn, hash_of(osn), lev + 4);
    retire(osn);
    return true;
  }

  /// The chain rebuild behind every same-hash insert into and removal from
  /// a collision chain. Chains are immutable, so the rebuild copies the
  /// chain without `key`'s old pair and without TTL corpses, adds
  /// (key, *value) unless `value` is null, and swaps the copy in with one
  /// CAS. A chain holds at least 2 pairs: one pair collapses to an SNode
  /// and none empties the slot, which may let `at.cur` compress. The CAS
  /// winner counts each dropped corpse as an expiry and retires the old
  /// chain. Returns kRetryLevel when the CAS loses, else kRemoved (no
  /// `value`), kReplaced (`key` had a live pair) or kNew.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res rebuild_chain(AtomicRef& slot, LNodeT* chain, const K& key,
                    const V* value, std::uint64_t h, const WritePos& at,
                    const Horizon& hz) {
    bool had_key = false;
    std::size_t corpses = 0;
    std::size_t pairs = value != nullptr ? 1 : 0;
    const LNodeT* kept = nullptr;
    for (const LNodeT* l = chain; l != nullptr; l = l->next) {
      if (bounded_ && hz.expired(l->stamp)) {
        ++corpses;
      } else if (l->key == key) {
        had_key = true;
      } else {
        ++pairs;
        kept = l;
      }
    }
    Ref replacement;
    if (pairs == 1) {
      replacement = Ref::to(
          value != nullptr
              ? make_leaf(h, key, *value, hz.now)
              : make_leaf(kept->hash, kept->key, kept->value, kept->stamp));
    } else if (pairs > 1) {
      LNodeT* fresh = nullptr;
      for (const LNodeT* l = chain; l != nullptr; l = l->next) {
        if (l->key == key || (bounded_ && hz.expired(l->stamp))) continue;
        fresh = make<LNodeT>(l->hash, l->key, l->value, fresh, l->stamp);
      }
      if (value != nullptr) {
        fresh = make<LNodeT>(h, key, *value, fresh, hz.now);
      }
      replacement = Ref::to(fresh);
    }
    Ref expected = Ref::to(chain);
    if (!slot.compare_exchange_strong(expected, replacement,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      destroy_subtree(replacement);  // never published
      obs::sites::cachetrie_txn_retry.add();
      return Res::kRetryLevel;
    }
    for (std::size_t i = 0; i < corpses; ++i) {
      note_eviction(/*expiry=*/true, h, at.lev);
    }
    retire_chain(chain);
    if (value != nullptr) return had_key ? Res::kReplaced : Res::kNew;
    if (replacement.null()) maybe_compress(at, h);
    return Res::kRemoved;
  }

  // --- insert (paper Fig. 3) -----------------------------------------------

  /// Insert's step where its write walk ends: `old` is an empty slot, an
  /// idle SNode or a chain.
  Res insert_at(const K& key, const V& value, std::uint64_t h, WritePos& at,
                AtomicRef& slot, Ref old, Mode mode, const V* expected_value,
                const Horizon& hz) {
    if (old.tag() == Tag::kSNode) {
      return insert_at_snode(key, value, h, at, slot, old.as<SNodeT>(), mode,
                             expected_value, hz);
    }
    if (old.tag() == Tag::kLNode) {
      return insert_at_lnode(key, value, h, at, slot, old.as<LNodeT>(), mode,
                             expected_value, hz);
    }
    // case (1): empty slot
    if (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals) {
      return Res::kNotFound;
    }
    const Ref sn = Ref::to(make_leaf(h, key, value, hz.now));
    Ref expected;
    // [publishes: CT_SLOT_COMMIT]
    if (slot.compare_exchange_strong(expected, sn, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      maybe_inhabit(sn, h, at.lev + 4);
      note_insert_leaf(at.lev + 4);
      return Res::kNew;
    }
    discard(sn.as<SNodeT>());
    return Res::kRetryLevel;
  }

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

  /// Slot holds an idle SNode: replace in place (same key), expand a narrow
  /// node (collision in a 4-slot node), or hang a fresh subtree (collision
  /// in a wide node). Paper Fig. 3, lines 11-38.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res insert_at_snode(const K& key, const V& value, std::uint64_t h,
                      WritePos& at, AtomicRef& slot, SNodeT* osn, Mode mode,
                      const V* expected_value, const Horizon& hz) {
    const std::uint64_t ostamp = stamp_of(osn);
    if (holds(osn, key, h)) {
      // A TTL-expired pair is semantically absent (DESIGN.md §3): upsert
      // and put_if_absent replace the corpse through the same txn path —
      // the replacement doubles as the lazy eviction — while the replace
      // modes evict it and report the key absent.
      const bool corpse = hz.expired(ostamp);
      if (corpse &&
          (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals)) {
        try_evict_snode(slot, osn, at, /*expiry=*/true);
        return Res::kNotFound;
      }
      if (!corpse &&
          (mode == Mode::kIfAbsent ||
           (mode == Mode::kReplaceIfEquals &&
            !value_equals(osn->value, *expected_value)))) {
        touch(osn, hz);  // the pair stays, and the write is a use of it
        return Res::kExists;
      }
      // case (4): same key — two-CAS replacement.
      if (!commit_txn(slot, osn, Ref::to(make_leaf(h, key, value, hz.now)),
                      h, at.lev, kWriteTxn)) {
        return Res::kRetryLevel;
      }
      if (corpse) {
        note_eviction(/*expiry=*/true, h, at.lev);
        return Res::kNew;  // the replaced pair was semantically absent
      }
      return Res::kReplaced;
    }
    // A stale colliding pair is lazily evicted instead of growing a
    // subtree under a corpse; the caller re-reads the emptied slot.
    if (bounded_ && hz.evictable(ostamp)) {
      try_evict_snode(slot, osn, at, hz.expired(ostamp));
      return Res::kRetryLevel;
    }
    if (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals) {
      return Res::kNotFound;
    }
    if (at.cur.length() == 4) {
      // case (3): collision in a narrow node — expand it to a wide one.
      if (at.prev.null()) return Res::kRestart;  // walk began mid-trie
      const std::uint32_t ppos = slot_index(h, at.lev - 4, at.prev.length());
      ENode* en = make<ENode>(at.prev.anode(), ppos, at.cur, h, at.lev,
                              /*compress=*/false);
      testkit::chaos_point(testkit::Site::cachetrie_expand_announce);
      Ref expected = at.cur;
      if (at.prev.slot_at(ppos).compare_exchange_strong(
              expected, Ref::to(en), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        complete_enode(en);
        // Go on at the wide copy, which took at.cur's place under at.prev.
        // [acquires: CT_ENODE_RESULT]
        at.cur = en->result.load(std::memory_order_acquire);
        assert(at.cur.tag() == Tag::kWide);
        return Res::kRetryLevel;
      }
      discard(en);
      // Someone got to prev[ppos] first; help if it is an announcement.
      const Ref now = at.prev.slot_at(ppos).load(std::memory_order_acquire);
      if (now.tag() == Tag::kENode) complete_enode(now.as<ENode>());
      return Res::kRestart;
    }
    // case (2): collision in a wide node — build a deeper subtree that
    // holds a fresh copy of osn's pair plus the new pair, and commit it
    // through osn's txn.
    return commit_txn(slot, osn,
                      create_subtree(osn, h, key, value, at.lev + 4, hz.now),
                      h, at.lev, kWriteTxn)
               ? Res::kNew
               : Res::kRetryLevel;
  }

  /// Slot holds a collision chain. Chains are immutable: rebuild it with the
  /// pair added or replaced, or, when the new hash differs, hang it with the
  /// new pair under a fresh inner path; either swaps in with one CAS.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res insert_at_lnode(const K& key, const V& value, std::uint64_t h,
                      const WritePos& at, AtomicRef& slot, LNodeT* chain,
                      Mode mode, const V* expected_value, const Horizon& hz) {
    if (chain->hash != h) {
      // The new key only shares a prefix with the chain's hash: grow an
      // inner path below this slot that separates them. The existing chain
      // is reused (it is immutable), so nothing is retired on success; any
      // corpses it holds stay invisible until a same-hash rebuild drops them.
      if (mode == Mode::kReplaceOnly || mode == Mode::kReplaceIfEquals) {
        return Res::kNotFound;
      }
      SNodeT* sn = make_leaf(h, key, value, hz.now);
      const Ref subtree =
          branch_apart(Ref::to(chain), chain->hash, sn, h, at.lev + 4);
      testkit::chaos_point(testkit::Site::cachetrie_chain_grow);
      Ref expected = Ref::to(chain);
      if (slot.compare_exchange_strong(expected, subtree,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return Res::kNew;
      }
      destroy_subtree(subtree, Ref::to(chain));
      obs::sites::cachetrie_txn_retry.add();
      return Res::kRetryLevel;
    }
    // Same full hash. The mode checks see only `key`'s live pair: a
    // TTL-expired one is semantically absent (and the rebuild drops it).
    const LNodeT* live = chain_find(chain, key, h, hz);
    if (live != nullptr) {
      if (mode == Mode::kIfAbsent) return Res::kExists;
      if (mode == Mode::kReplaceIfEquals &&
          !value_equals(live->value, *expected_value)) {
        return Res::kExists;
      }
    } else if (mode == Mode::kReplaceOnly ||
               mode == Mode::kReplaceIfEquals) {
      // A corpse for `key` (if any) stays until a mutating walk rebuilds the
      // chain; it is already unobservable, so reporting absent is correct.
      return Res::kNotFound;
    }
    return rebuild_chain(slot, chain, key, &value, h, at, hz);
  }

  // --- lookup (paper Fig. 2, with the Fig. 6 cache hooks) -------------------

  /// True when ANode `an`'s entry for `h` is frozen: a word with its frozen
  /// bit set (an empty slot, an ANode or a chain), or an SNode whose txn is
  /// frozen. A detached ANode has every entry frozen, so a cached ANode
  /// whose entry is not frozen is still reachable from the root (§3.4). The
  /// lookup and write-path cache probes load with acquire; the inhabit
  /// re-check (`SeqCst`) loads with seq_cst for its Dekker pair.
  // [read-path]
  template <bool SeqCst>
  static bool entry_frozen(Ref an, std::uint64_t h,
                           std::uint32_t lev) noexcept {
    const Ref e = an.slot(h, lev).load(SeqCst ? std::memory_order_seq_cst
                                               : std::memory_order_acquire);
    if (e.is_frozen()) return true;
    return e.tag() == Tag::kSNode &&
           e.as<SNodeT>()->txn.load(SeqCst ? std::memory_order_seq_cst
                                           : std::memory_order_acquire) ==
               Ref::frozen_txn();
  }

  /// A lookup that reached SNode `sn` on `key`'s path: its value when it
  /// holds `key`, else absent. Bounded mode: a TTL-expired pair is a corpse,
  /// unobservable and evicted lazily by writers; a live hit is a use.
  // [read-path]
  std::optional<V> snode_hit(SNodeT* sn, const K& key, std::uint64_t h,
                             const Horizon& hz) const {
    if (!holds(sn, key, h)) return std::nullopt;
    if (bounded_ && hz.expired(sn->stamp().load(std::memory_order_relaxed))) {
      return std::nullopt;
    }
    touch(sn, hz);
    return sn->value;
  }

  /// The stamp-refresh rule: a use of a live pair in bounded mode — a
  /// lookup hit, or a write that leaves the pair in place — restarts its
  /// LRU/TTL clock. Relaxed: the stamp is advisory.
  // [read-path]
  void touch(SNodeT* sn, const Horizon& hz) const {
    if (bounded_) sn->stamp().store(hz.now, std::memory_order_relaxed);
  }

  /// `key`'s live pair in a collision chain, or nullptr when the chain does
  /// not hold it or holds only its TTL corpse.
  // [read-path]
  const LNodeT* chain_find(const LNodeT* chain, const K& key, std::uint64_t h,
                           const Horizon& hz) const {
    for (const LNodeT* l = chain; l != nullptr; l = l->next) {
      if (l->hash == h && l->key == key) {
        return bounded_ && hz.expired(l->stamp) ? nullptr : l;
      }
    }
    return nullptr;
  }

  /// The one read-only walk (paper Fig. 2) down `h`'s path from `cur`, the
  /// word of an ANode at `lev`, shared by lookup and the sampling pass
  /// (§3.6). Each hop addresses its slot from the word it followed, so it
  /// loads nothing from an ANode but that slot. A frozen word reads like
  /// the node it freezes, and an ENode like its still-intact target: both
  /// stay intact until their replacement commits, so the walk goes on
  /// through them and linearizes before that commit. A step into a node at
  /// `inhabit_level` inhabits the cache with it (Fig. 6 line 3); a walk
  /// that starts at a cached ANode never re-stores that ANode, since the
  /// first step is below it.
  // [read-path]
  NodeAt read_walk(std::uint64_t h, std::uint32_t lev, Ref cur,
                   std::int32_t inhabit_level) const {
    while (true) {
      const Ref old = cur.slot(h, lev).load(std::memory_order_acquire);
      switch (old.tag()) {
        case Tag::kNarrow:
        case Tag::kWide:
          cur = old.thawed();
          break;
        case Tag::kENode:
          cur = old.as<ENode>()->target;
          break;
        case Tag::kSNode:
        case Tag::kLNode:
          return {old, lev + 4};
        default:  // an empty slot, frozen or not
          return {};
      }
      lev += 4;
      if (static_cast<std::int32_t>(lev) == inhabit_level) {
        maybe_inhabit(cur, h, lev);
      }
    }
  }

  /// Cache bookkeeping when a lookup's walk reaches a leaf at `leaf_lev`
  /// (Fig. 6 lines 9-13): inhabit the cache when the leaf is exactly at the
  /// cache level (or when a deep leaf justifies creating the cache), and
  /// record a miss when the leaf lies outside the cache's reach — the cache
  /// at level L serves leaves at L (direct) and L+4 (one hop through a
  /// cached ANode). Its own body stays on the read path; the inhabit and
  /// the miss count it may call are slow-path work with their own barriers.
  // [read-path]
  void note_leaf_level(SNodeT* sn, std::uint32_t leaf_lev,
                       std::int32_t cache_level) const {
    if (!config_.use_cache) return;
    // SNodes are always inhabited under their *own* hash, not the probing
    // hash: under a narrow parent two bits of the slot index are unpinned,
    // and the canonical index is the one clear_cache_refs() can recompute
    // when the SNode is retired. (ANodes never hang under narrow parents,
    // so for them every probing hash yields the same index.)
    if (cache_level == kNoCacheLevel) {
      // No cache yet: a sufficiently deep leaf triggers creation (Fig. 7).
      if (sn != nullptr && leaf_lev >= kCacheInitTriggerLevel) {
        maybe_inhabit(Ref::to(sn), hash_of(sn), leaf_lev);
      }
      return;
    }
    if (sn != nullptr &&
        static_cast<std::int32_t>(leaf_lev) == cache_level) {
      maybe_inhabit(Ref::to(sn), hash_of(sn), leaf_lev);
    }
    note_reach(leaf_lev, cache_level);
  }

  /// The miss rule lookups and inserts share: the cache at level L serves
  /// leaves at L (direct) and L+4 (one hop through a cached ANode), and a
  /// leaf outside that reach counts a miss.
  // [read-path]
  void note_reach(std::uint32_t leaf_lev, std::int32_t cache_level) const {
    const auto ll = static_cast<std::int32_t>(leaf_lev);
    if (ll < cache_level || ll > cache_level + 4) record_cache_miss();
  }

  /// An insert stored a fresh leaf into an empty slot, at `leaf_lev`: the
  /// same miss rule, against the cache as it stands now. Without it a trie
  /// built by inserts alone would keep its first cache level however deep
  /// its leaves sink, since only misses start the depth sampling (§3.6).
  /// A collision that pushes a resident leaf down (create_subtree, a chain
  /// growing a path) does not count: counted too, it moved a small fill's
  /// cache a level deeper before the fill ended, and the new array's
  /// inhabits slowed that fill for a level its first lookups pick anyway
  /// (EXPERIMENTS.md, "Writes steer the cache").
  void note_insert_leaf(std::uint32_t leaf_lev) const {
    if (!config_.use_cache) return;
    const std::int32_t level = cache_level();
    if (level != kNoCacheLevel) note_reach(leaf_lev, level);
  }

  // --- remove (paper §3.7) ---------------------------------------------------

  /// What a successful remove_at hands back: the removed value and the
  /// level of the slot its commit emptied or rebuilt.
  struct Removed {
    std::optional<V> value;
    std::uint32_t lev = 0;
  };

  /// `as_evict` routes the success to the eviction counters (the removal is
  /// the same linearizable protocol either way); used by evict().
  std::optional<V> do_remove(const K& key, const V* expected,
                             bool as_evict = false) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point(testkit::Site::cachetrie_pinned);
    const std::uint64_t h = hasher_(key);
    const Horizon hz = make_horizon();
    Removed out;
    const Res r = descend(h, [&](std::uint32_t lev, Ref start) {
      return write_walk(h, lev, start, /*inhabit=*/false,
                        [&](WritePos& at, AtomicRef& slot, Ref old) {
                          return remove_at(key, h, at, slot, old, &out,
                                           expected, hz);
                        });
    });
    if (r != Res::kRemoved) return std::nullopt;
    if (as_evict) {
      note_eviction(/*expiry=*/false, h, out.lev);
    } else {
      obs::sites::cachetrie_remove.add();
    }
    return std::move(out.value);
  }

  /// Remove's step where its write walk ends: `old` is an empty slot, an
  /// idle SNode or a chain. A removal fills `out` (paper §3.7).
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res remove_at(const K& key, std::uint64_t h, const WritePos& at,
                AtomicRef& slot, Ref old, Removed* out, const V* expected,
                const Horizon& hz) {
    if (old.tag() == Tag::kLNode) {
      auto* chain = old.as<LNodeT>();
      // A corpse is semantically absent: nothing to remove. It stays until a
      // mutating rebuild of this chain drops it.
      const LNodeT* live = chain_find(chain, key, h, hz);
      if (live == nullptr ||
          (expected != nullptr && !value_equals(live->value, *expected))) {
        return Res::kNotFound;
      }
      *out = {live->value, at.lev};
      return rebuild_chain(slot, chain, key, nullptr, h, at, hz);
    }
    if (old.tag() != Tag::kSNode) return Res::kNotFound;  // empty slot
    auto* osn = old.as<SNodeT>();
    const std::uint64_t ostamp = stamp_of(osn);
    const bool mine = holds(osn, key, h);
    // Hygiene: a stale pair crossing a remover's path is evicted even though
    // it is not the remover's key. The remover's own pair, when a corpse, is
    // semantically absent: evict it and report NotFound (even for a plain
    // remove).
    if (bounded_ && (mine ? hz.expired(ostamp) : hz.evictable(ostamp))) {
      try_evict_snode(slot, osn, at, hz.expired(ostamp));
      return Res::kNotFound;
    }
    if (!mine) return Res::kNotFound;
    if (expected != nullptr && !value_equals(osn->value, *expected)) {
      return Res::kNotFound;
    }
    // Announce removal by publishing null in txn, then commit null into the
    // slot.
    *out = {osn->value, at.lev};
    if (!commit_txn(slot, osn, Ref{}, h, at.lev, kWriteTxn)) {
      return Res::kRetryLevel;
    }
    maybe_compress(at, h);
    return Res::kRemoved;
  }

  /// After a removal emptied `at.cur`, or left it a single SNode, announce a
  /// compression that replaces it in `at.prev` with null or that SNode (or
  /// with a collapsed copy if it was repopulated concurrently — the
  /// freeze-then-copy protocol makes this race benign). The paper compresses
  /// empty nodes (§3.7); hoisting a single SNode one level up is ours, and
  /// keeps the reachability invariant ("the slot path is a prefix of the
  /// hash") because a shorter path is still a prefix. A walk that began at
  /// a cached ANode has no `at.prev`, so that node is not compressed.
  void maybe_compress(const WritePos& at, std::uint64_t h) {
    const auto [cur, prev, lev] = at;
    if (prev.null()) return;
    std::uint32_t live = 0;
    bool hoistable_only = true;
    for (std::uint32_t i = 0; i < cur.length(); ++i) {
      const Ref n = cur.slot_at(i).load(std::memory_order_acquire);
      if (n.null()) continue;
      if (n.is_frozen() || n.tag() == Tag::kENode) {
        return;  // another structural operation owns this node
      }
      ++live;
      if (n.tag() != Tag::kSNode) hoistable_only = false;
    }
    if (live > 1 || !hoistable_only) return;
    ENode* en = make<ENode>(prev.anode(), slot_index(h, lev - 4, prev.length()),
                            cur, h, lev, /*compress=*/true);
    testkit::chaos_point(testkit::Site::cachetrie_compress_announce);
    Ref expected = cur;
    if (prev.slot_at(en->parentpos)
            .compare_exchange_strong(expected, Ref::to(en),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      complete_enode(en);
    } else {
      discard(en);
    }
  }

  // --- freezing and node replacement (paper Fig. 4) --------------------------

  /// Makes every slot of ANode `cur` permanently non-writable: an empty
  /// slot, a child ANode or a chain gets its word's frozen bit, an SNode's
  /// txn becomes frozen_txn(), and frozen child ANodes are frozen
  /// recursively. Pending txns and nested announcements are completed along
  /// the way. Allocates nothing. Idempotent; any number of threads may help.
  void freeze(Ref cur) {
    // Counts freeze passes, helpers included — the helping rate under
    // contention is itself the signal of interest.
    obs::sites::cachetrie_freeze.record(cur.word(), cur.length());
    std::uint32_t i = 0;
    while (i < cur.length()) {
      // Freezing races other freezers slot-by-slot and pending txns get
      // committed mid-freeze; perturb every slot visit.
      testkit::chaos_point(testkit::Site::cachetrie_freeze_slot);
      AtomicRef& slot = cur.slot_at(i);
      const Ref node = slot.load(std::memory_order_acquire);
      if (node.is_frozen()) {
        // Whoever set the bit, every freezer finishes the child's freeze.
        if (node.is_anode()) freeze(node.thawed());
        ++i;
        continue;
      }
      switch (node.tag()) {
        case Tag::kEmpty:
        case Tag::kNarrow:
        case Tag::kWide:
        case Tag::kLNode: {
          Ref expected = node;
          // [publishes: CT_FREEZE]
          slot.compare_exchange_strong(expected, node.as_frozen(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
          continue;  // revisit: the frozen branch above moves on
        }
        case Tag::kSNode: {
          auto* sn = node.as<SNodeT>();
          const Ref txn = sn->txn.load(std::memory_order_acquire);
          if (txn == Ref::no_txn()) {
            Ref expected = Ref::no_txn();
            // [publishes: CT_FREEZE]
            if (sn->txn.compare_exchange_strong(expected, Ref::frozen_txn(),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
              ++i;
            }
            continue;
          }
          if (txn == Ref::frozen_txn()) {
            ++i;
            continue;
          }
          // Pending change: commit it and re-examine.
          commit_announced(slot, sn, txn);
          continue;
        }
        case Tag::kENode:
          complete_enode(node.as<ENode>());
          continue;
        default:
          assert(false && "a sentinel in an ANode slot");
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
    testkit::chaos_point(testkit::Site::cachetrie_enode_complete);
    freeze(en->target);
    Ref replacement;
    if (en->compress) {
      replacement = revive_copy(en->target);
    } else {
      replacement = make<ANode>(16);
      expand_copy(en->target, replacement, en->level);
    }
    testkit::chaos_point(testkit::Site::cachetrie_enode_publish);
    Ref expected = Ref::pending();
    // [publishes: CT_ENODE_RESULT]
    if (!en->result.compare_exchange_strong(expected, replacement,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      destroy_subtree(replacement);  // lost the build race
    }
    const Ref committed = en->result.load(std::memory_order_acquire);
    testkit::chaos_point(testkit::Site::cachetrie_enode_commit);
    Ref expected_en = Ref::to(en);
    if (en->parent->slots()[en->parentpos].compare_exchange_strong(
            expected_en, committed, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      if (committed.is_anode()) maybe_inhabit(committed, en->hash, en->level);
      if (en->compress) {
        obs::sites::cachetrie_compress.record(en->hash, en->level);
      } else {
        obs::sites::cachetrie_expand.record(en->hash, en->level);
      }
      retire_frozen(en->target, en->hash, en->level);
      retire(en);
    }
  }

  /// Transfers a frozen narrow node's pairs into a fresh wide node (paper's
  /// `copy`). By the structural invariant, a narrow node only ever holds
  /// SNodes (collisions in a narrow node expand it before going deeper), and
  /// distinct 2-bit positions imply distinct 4-bit positions, so the copy is
  /// collision-free.
  void expand_copy(Ref narrow, Ref wide, std::uint32_t lev) {
    for (std::uint32_t i = 0; i < narrow.length(); ++i) {
      // [acquires: CT_FREEZE]
      const Ref node = narrow.slot_at(i).load(std::memory_order_acquire);
      if (node.empty()) continue;
      assert(node.tag() == Tag::kSNode && "narrow nodes hold only SNodes");
      auto* sn = node.as<SNodeT>();
      AtomicRef& dst = wide.slot(hash_of(sn), lev);
      assert(dst.load(std::memory_order_relaxed).null());
      dst.store(Ref::to(copy_leaf(sn)), std::memory_order_relaxed);
    }
  }

  /// Deep-copies a fully frozen subtree back to life (compression). Returns
  ///   * empty              — no live pairs remained (the paper's case);
  ///   * a fresh SNode      — exactly one pair remained (hoists it one level
  ///                          up; see maybe_compress);
  ///   * a fresh ANode      — otherwise, with children revived recursively.
  Ref revive_copy(Ref frozen) {
    const Ref fresh = make<ANode>(frozen.length());
    std::uint32_t live = 0;
    std::uint32_t last_pos = 0;
    for (std::uint32_t i = 0; i < frozen.length(); ++i) {
      const Ref node = frozen.slot_at(i).load(std::memory_order_acquire);
      if (node.empty()) continue;
      Ref copy;
      switch (node.tag()) {
        case Tag::kSNode:
          copy = Ref::to(copy_leaf(node.as<SNodeT>()));
          break;
        case Tag::kNarrow:
        case Tag::kWide:
          copy = revive_copy(node.thawed());
          break;
        case Tag::kLNode:
          copy = Ref::to(copy_chain(node.as<LNodeT>()));
          break;
        default:
          assert(false && "unexpected word in a frozen subtree");
      }
      if (copy.null()) continue;  // child compressed away entirely
      fresh.slot_at(i).store(copy, std::memory_order_relaxed);
      ++live;
      last_pos = i;
    }
    if (live == 0) {
      discard(fresh);
      return {};
    }
    if (live == 1) {
      const Ref only = fresh.slot_at(last_pos).load(std::memory_order_relaxed);
      if (only.tag() == Tag::kSNode) {
        discard(fresh);
        return only;
      }
    }
    return fresh;
  }

  LNodeT* copy_chain(LNodeT* chain) {
    LNodeT* fresh = nullptr;
    for (LNodeT* l = chain; l != nullptr; l = l->next) {
      fresh = make<LNodeT>(l->hash, l->key, l->value, fresh, l->stamp);
    }
    return fresh;
  }

  // --- subtree construction for wide-node collisions -------------------------

  /// Builds the replacement for an SNode that collided with a new key inside
  /// a wide node (paper's createANode): a fresh copy of the old pair plus
  /// the new pair, pushed as many levels down as their hashes stay equal.
  /// Equal full hashes produce an LNode chain.
  Ref create_subtree(SNodeT* osn, std::uint64_t h, const K& key,
                     const V& value, std::uint32_t lev,
                     std::uint64_t new_stamp) {
    const std::uint64_t oh = hash_of(osn);
    if (oh == h) {
      LNodeT* chain =
          make<LNodeT>(oh, osn->key, osn->value, nullptr, stamp_of(osn));
      return Ref::to(make<LNodeT>(h, key, value, chain, new_stamp));
    }
    SNodeT* copy = copy_leaf(osn);
    SNodeT* fresh = make_leaf(h, key, value, new_stamp);
    return branch_apart(Ref::to(copy), oh, fresh, h, lev);
  }

  /// Hangs two nodes with distinct hashes (`a` at hash `ah`, SNode `b` at
  /// hash `bh`) under a minimal chain of inner nodes starting at level
  /// `lev`. Prefers a narrow node when 2 bits separate them (the paper's
  /// space-saving trick), a wide node when 4 bits do, and recurses
  /// otherwise. `a` may be an SNode or an existing LNode chain
  /// (hash-collision chains being pushed deeper).
  Ref branch_apart(Ref a, std::uint64_t ah, SNodeT* b, std::uint64_t bh,
                   std::uint32_t lev) {
    assert(lev <= 60 && "distinct 64-bit hashes must separate by level 60");
    const std::uint32_t a2 = slot_index(ah, lev, 4);
    const std::uint32_t b2 = slot_index(bh, lev, 4);
    if (a2 != b2 && a.tag() == Tag::kSNode) {
      // Narrow nodes may hold only SNodes (see expand_copy), so an LNode
      // child always gets a wide parent.
      const Ref an = make<ANode>(4);
      an.slot_at(a2).store(a, std::memory_order_relaxed);
      an.slot_at(b2).store(Ref::to(b), std::memory_order_relaxed);
      return an;
    }
    const std::uint32_t a4 = slot_index(ah, lev, 16);
    const std::uint32_t b4 = slot_index(bh, lev, 16);
    const Ref an = make<ANode>(16);
    if (a4 != b4) {
      an.slot_at(a4).store(a, std::memory_order_relaxed);
      an.slot_at(b4).store(Ref::to(b), std::memory_order_relaxed);
    } else {
      an.slot_at(a4).store(branch_apart(a, ah, b, bh, lev + 4),
                           std::memory_order_relaxed);
    }
    return an;
  }

  // --- deallocation helpers ---------------------------------------------------

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire_chain(LNodeT* chain) {
    while (chain != nullptr) {
      LNodeT* next = chain->next;
      retire(chain);
      chain = next;
    }
  }

  /// Retires a fully frozen, just-unlinked subtree: the ANodes, frozen
  /// SNodes and LNode chains. Called exactly once, by the winner of the
  /// parent-slot CAS in complete_enode. `prefix` is the subtree root's path
  /// (low `level` bits are significant) — needed to clear cache entries
  /// that may still reference nodes of the subtree.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire_frozen(Ref frozen, std::uint64_t prefix, std::uint32_t level) {
    for (std::uint32_t i = 0; i < frozen.length(); ++i) {
      const Ref node = frozen.slot_at(i).load(std::memory_order_acquire);
      switch (node.tag()) {
        case Tag::kEmpty:
          continue;
        case Tag::kSNode: {
          auto* sn = node.as<SNodeT>();
          clear_cache_refs(sn, hash_of(sn), level + 4);
          retire(sn);
          continue;
        }
        case Tag::kNarrow:
        case Tag::kWide: {
          // Children of a wide node pin 4 more prefix bits (narrow nodes
          // have no ANode children).
          const std::uint64_t child_prefix =
              (prefix & ((std::uint64_t{1} << level) - 1)) |
              (static_cast<std::uint64_t>(i) << level);
          retire_frozen(node.thawed(), child_prefix, level + 4);
          continue;
        }
        case Tag::kLNode:
          retire_chain(node.as<LNodeT>());
          continue;
        default:
          assert(false && "unexpected word in a frozen subtree");
      }
    }
    clear_cache_refs(frozen.node(), prefix, level);
    retire(frozen);
  }

  /// Discards every node of a subtree that no other thread can reach: a
  /// replacement that was never published (a lost CAS or ENode build race),
  /// or, from the destructor, the whole trie, remnants of unfinished
  /// announcements included. `keep` is spared: an existing chain that a lost
  /// subtree linked instead of copying.
  void destroy_subtree(Ref node, Ref keep = {}) {
    node = node.thawed();
    if (node == keep) return;
    switch (node.tag()) {
      case Tag::kEmpty:
        return;
      case Tag::kSNode:
        discard(node.as<SNodeT>());
        return;
      case Tag::kLNode:
        for (auto* l = node.as<LNodeT>(); l != nullptr;) {
          LNodeT* next = l->next;
          discard(l);
          l = next;
        }
        return;
      case Tag::kENode: {
        auto* en = node.as<ENode>();
        destroy_subtree(en->target, keep);
        const Ref result = en->result.load(std::memory_order_relaxed);
        if (result != Ref::pending()) destroy_subtree(result, keep);
        discard(en);
        return;
      }
      case Tag::kNarrow:
      case Tag::kWide:
        for (std::uint32_t i = 0; i < node.length(); ++i) {
          destroy_subtree(node.slot_at(i).load(std::memory_order_relaxed),
                          keep);
        }
        discard(node);
        return;
      default:
        assert(false && "unexpected word in an unreachable subtree");
    }
  }

  // --- cache maintenance (paper Fig. 7 and Fig. 8) ----------------------------

  /// Writes `nv` into the cache if the cache covers `node_level`, creating
  /// the cache at cache_init_level the first time a node at or below
  /// kCacheInitTriggerLevel shows up (Fig. 7). The head array takes nodes
  /// at its own level L. When the head's parent array covers L - 4, that
  /// array takes ANodes at L - 4, so a write to a key whose leaf the head
  /// caches (cache_start skips SNode words) starts one hop above the leaf.
  /// Only writes pass an ANode at L - 4: lookups inhabit at the level they
  /// read from the head, which is L unless the cache moved meanwhile.
  void maybe_inhabit(Ref nv, std::uint64_t h,
                     std::uint32_t node_level) const {
    if (!config_.use_cache) return;
    assert(!nv.is_frozen() && "the cache holds live nodes' words");
    // [acquires: CT_CACHE_HEAD]
    CacheArray* cache = cache_head_.load(std::memory_order_acquire);
    if (cache == nullptr) {
      if (node_level < kCacheInitTriggerLevel) return;
      CacheArray* fresh = make<CacheArray>(config_.cache_init_level, nullptr);
      CacheArray* expected = nullptr;
      // [publishes: CT_CACHE_HEAD]
      if (cache_head_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        obs::sites::cachetrie_cache_install.record(config_.cache_init_level,
                                                   node_level);
      } else {
        discard(fresh);
      }
      cache = cache_head_.load(std::memory_order_acquire);
    }
    if (cache->level != node_level) {
      CacheArray* parent = cache->parent;
      if (parent == nullptr || parent->level != node_level ||
          node_level + 4 != cache->level || !nv.is_anode()) {
        return;
      }
      testkit::chaos_point(testkit::Site::cachetrie_cache_inhabit_parent);
      cache = parent;
    }
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
    // The word carries nv's tag in the same store as the pointer, and the
    // undo expects that same word. A store into the parent array is the
    // same pair with the same undo: clear_cache_refs() walks every array in
    // the chain.
    AtomicRef& entry = cache->entry(cache->index_of(h));
    obs::sites::cachetrie_cache_inhabit.add();
    // [publishes: CT_CACHE_INSTALL]
    entry.store(nv, std::memory_order_release);
    testkit::chaos_point(testkit::Site::cachetrie_cache_inhabit);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!cachee_live(nv, h, node_level)) {
      Ref expected = nv;
      entry.compare_exchange_strong(expected, Ref{}, std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
    }
  }

  /// True while the node may still be linked in the trie: a live SNode has
  /// an idle txn, and a live ANode has at least its relevant entry
  /// unfrozen (once an ANode is detached, every entry is frozen).
  bool cachee_live(Ref nv, std::uint64_t h, std::uint32_t node_level) const {
    if (nv.tag() == Tag::kSNode) {
      return nv.as<SNodeT>()->txn.load(std::memory_order_seq_cst) ==
             Ref::no_txn();
    }
    if (nv.is_anode()) {
      return !entry_frozen</*SeqCst=*/true>(nv, h, node_level);
    }
    return false;
  }

  /// Erases cache entries that reference `node` before it is retired. Every
  /// retire site of a cacheable node (SNodes and ANodes) must call this with
  /// the node's path hash (any key hash whose low `level` bits equal the
  /// node's prefix) so that no cache entry outlives the node's grace period.
  void clear_cache_refs(const void* node, std::uint64_t path_hash,
                        std::uint32_t level) const {
    if (!config_.use_cache) return;
    // [acquires: CT_CACHE_INSTALL]
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      if (c->level != level) continue;
      AtomicRef& entry = c->entry(c->index_of(path_hash));
      Ref cur = entry.load(std::memory_order_seq_cst);
      if (cur.node() == node) {
        entry.compare_exchange_strong(cur, Ref{}, std::memory_order_acq_rel,
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
    LevelHistogram hist;
    auto& rng = util::thread_rng();
    for (std::uint32_t s = 0; s < kSampleSize; ++s) {
      const NodeAt leaf = read_walk(rng.next(), 0, root_, kNoCacheLevel);
      if (leaf.node.null()) continue;
      ++hist.counts[leaf.level / 4];
      ++hist.total;
      obs::sites::cachetrie_sample_leaf_level.record(leaf.level / 4);
    }
    const LevelHistogram::Pair best = hist.best_pair();
    if (best.count == 0) return;
    const std::size_t cur_d = head->level / 4;
    if (best.depth > cur_d &&
        best.count <
            hist.counts[cur_d] + hist.counts[cur_d + 1] + kLevelHysteresis) {
      return;
    }
    std::uint32_t desired = static_cast<std::uint32_t>(best.depth) * 4;
    desired = std::max(desired, config_.min_cache_level);
    desired = std::min(desired, config_.max_cache_level);
    adjust_cache_level(head, desired);
  }

  /// Installs a cache array at `desired`, reusing the ancestor chain. The
  /// chain's levels are strictly decreasing, so growing prepends a deeper
  /// array and shrinking pops (and retires) a prefix.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void adjust_cache_level(CacheArray* head, std::uint32_t desired) const {
    if (head->level == desired) return;
    if (desired > head->level) {
      CacheArray* fresh = make<CacheArray>(desired, head);
      CacheArray* expected = head;
      if (cache_head_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        obs::sites::cachetrie_cache_level_change.record(head->level, desired);
      } else {
        discard(fresh);
      }
      return;
    }
    CacheArray* anc = head->parent;
    while (anc != nullptr && anc->level > desired) anc = anc->parent;
    CacheArray* fresh = (anc != nullptr && anc->level == desired)
                            ? anc
                            : make<CacheArray>(desired, anc);
    CacheArray* expected = head;
    if (cache_head_.compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      obs::sites::cachetrie_cache_level_change.record(head->level, desired);
      // Retire the unlinked prefix [head, anc); readers inside guards may
      // still be walking it.
      for (CacheArray* c = head; c != anc;) {
        CacheArray* parent = c->parent;
        retire(c);
        c = parent;
      }
    } else if (fresh != anc) {
      discard(fresh);
    }
  }

  // --- traversals --------------------------------------------------------------

  /// The one subtree visitor: invokes fn(key, value, stamp, lev) for every
  /// pair in the subtree, where `lev` is the pair's leaf level — `node`'s
  /// level `lev` plus 4 per ANode below it (the public wrappers adapt the
  /// arity and filter corpses in bounded mode) — and returns node_bytes
  /// summed over the subtree's nodes.
  template <typename F>
  std::size_t for_each_node(Ref node, std::uint32_t lev, F& fn) const {
    switch (node.tag()) {
      case Tag::kSNode: {
        auto* sn = node.as<const SNodeT>();
        fn(sn->key, sn->value, stamp_of(sn), lev);
        return node_bytes(sn);
      }
      case Tag::kLNode: {
        std::size_t bytes = 0;
        for (const LNodeT* l = node.as<const LNodeT>(); l != nullptr;
             l = l->next) {
          fn(l->key, l->value, l->stamp, lev);
          bytes += node_bytes(l);
        }
        return bytes;
      }
      case Tag::kNarrow:
      case Tag::kWide: {
        std::size_t bytes = node_bytes(node);
        for (std::uint32_t i = 0; i < node.length(); ++i) {
          bytes += for_each_node(
              node.slot_at(i).load(std::memory_order_acquire), lev + 4, fn);
        }
        return bytes;
      }
      case Tag::kENode: {
        auto* en = node.as<const ENode>();
        return node_bytes(en) + for_each_node(en->target, lev, fn);
      }
      default:  // empty, frozen or not
        return 0;
    }
  }

  /// The cacheable nodes debug_validate's walk reached: each SNode and
  /// ANode with its level, the hash that names its canonical cache index
  /// (an SNode's own hash, an ANode's path prefix), and the word its slot
  /// holds, which a cache word for it must equal.
  struct Placed {
    std::uint32_t level;
    std::uint64_t path_hash;
    Ref word;
  };
  using Reached = std::unordered_map<const void*, Placed>;

  /// Checks `node`, which sits at trie level `lev` on a path that pins the
  /// low `pinned` bits of `prefix` (a narrow parent pins only 2 of its 4).
  void validate_node(Ref node, std::uint64_t prefix, std::uint32_t pinned,
                     std::uint32_t lev, Reached& reached,
                     std::vector<std::string>& issues) const {
    if (node.null()) return;
    if (node.is_frozen()) {
      issues.push_back("frozen entry present in a quiescent trie at level " +
                       std::to_string(lev));
      return;
    }
    switch (node.tag()) {
      case Tag::kSNode: {
        auto* sn = node.as<const SNodeT>();
        const std::uint64_t h = hash_of(sn);
        reached[sn] = {lev, h, node};
        const std::uint64_t mask = pinned == 0 ? 0 : ((1ULL << pinned) - 1);
        if ((h & mask) != (prefix & mask)) {
          issues.push_back("SNode hash prefix mismatch at level " +
                           std::to_string(lev));
        }
        if (sn->txn.load(std::memory_order_acquire) != Ref::no_txn()) {
          issues.push_back("SNode with non-idle txn in a quiescent trie");
        }
        return;
      }
      case Tag::kLNode: {
        std::size_t pairs = 0;
        const std::uint64_t hash = node.as<const LNodeT>()->hash;
        for (const LNodeT* l = node.as<const LNodeT>(); l != nullptr;
             l = l->next) {
          ++pairs;
          if (l->hash != hash) {
            issues.push_back("LNode chain with mixed hashes");
          }
        }
        if (pairs < 2) {
          issues.push_back("LNode chain with fewer than 2 pairs");
        }
        const std::uint64_t mask = pinned == 0 ? 0 : ((1ULL << pinned) - 1);
        if ((hash & mask) != (prefix & mask)) {
          issues.push_back("LNode hash prefix mismatch at level " +
                           std::to_string(lev));
        }
        return;
      }
      case Tag::kNarrow:
      case Tag::kWide: {
        reached[node.node()] = {lev, prefix, node};
        const bool narrow = node.tag() == Tag::kNarrow;
        for (std::uint32_t i = 0; i < node.length(); ++i) {
          const Ref child = node.slot_at(i).load(std::memory_order_acquire);
          if (!child.null() && narrow && child.tag() != Tag::kSNode) {
            issues.push_back("narrow ANode holding a non-SNode child");
          }
          // Extend the known prefix with this slot's bits. For narrow nodes
          // only 2 bits are pinned by the slot index.
          const std::uint64_t bits = static_cast<std::uint64_t>(i) << lev;
          validate_node(child, prefix | bits, pinned + (narrow ? 2 : 4),
                        lev + 4, reached, issues);
        }
        return;
      }
      default:
        issues.push_back("special node present in a quiescent trie");
        return;
    }
  }

  /// The cache invariant at quiescence: every non-null word refers to a
  /// node the trie walk reached at the array's level, sits at that node's
  /// canonical index, and equals the word the trie holds for it (so it
  /// carries the node's tag and no frozen bit). Reports the first
  /// few offenders and their count. Reads a node only once the walk has
  /// vouched for it, so a dangling word is reported, not dereferenced.
  void validate_cache(const Reached& reached,
                      std::vector<std::string>& issues) const {
    constexpr std::size_t kShown = 3;
    std::size_t bad = 0;
    for (const CacheArray* c = cache_head_.load(std::memory_order_acquire);
         c != nullptr; c = c->parent) {
      for (std::size_t i = 0; i < c->entry_count(); ++i) {
        const Ref word = c->entry(i).load(std::memory_order_acquire);
        if (word.null()) continue;
        const auto it = reached.find(word.node());
        const char* why = nullptr;
        if (it == reached.end()) {
          why = "points to a node the trie walk did not reach";
        } else if (it->second.level != c->level) {
          why = "points to a node at another level";
        } else if (c->index_of(it->second.path_hash) != i) {
          why = "is not at its node's canonical index";
        } else if (word != it->second.word) {
          why = "carries a tag that does not match its node";
        }
        if (why == nullptr) continue;
        if (++bad <= kShown) {
          issues.push_back("cache level " + std::to_string(c->level) +
                           " entry " + std::to_string(i) + " " + why);
        }
      }
    }
    if (bad != 0) {
      issues.push_back(std::to_string(bad) + " cache entries in all break " +
                       "the cache invariant");
    }
  }

  Config config_;
  Hash hasher_{};
  Ref root_;  // a wide ANode, made once and never replaced
  mutable std::atomic<CacheArray*> cache_head_{nullptr};

  // --- bounded-memory mode state (DESIGN.md §3). All words are advisory:
  // every access is relaxed, and no protocol decision builds a
  // happens-before edge through them.
  bool bounded_ = false;
  /// Clock, horizons and idle window, shared in kind with evict::BoundedChm.
  evict::Policy policy_;
  /// Booked only by make, retire and discard; never negative.
  mutable std::atomic<std::int64_t> resident_bytes_{0};
  std::atomic<std::uint64_t> evict_cursor_{0};
};

}  // namespace cachetrie

