// ctrie.hpp — the Ctrie baseline: a lock-free concurrent hash trie with
// I-nodes (Prokopec, Bagwell, Odersky, "Lock-Free Resizeable Concurrent
// Tries", LCPC 2011; structure of Prokopec et al., PPoPP 2012, minus the
// snapshot/GCAS machinery, which the cache-trie paper's evaluation never
// exercises).
//
// This is the data structure the cache-trie improves upon: every inner node
// is reached through an indirection node (INode) whose single mutable field
// `main` is the unit of atomic replacement. The INode indirection is what
// doubles the pointer hops per level — the effect Figs. 10/13 of the
// cache-trie paper measure.
//
//   * 32-way branching (5 hash bits per level), bitmap-compressed CNode
//     arrays sized exactly to their population.
//   * Removal entombs single-SNode CNodes into TNodes and contracts paths
//     (clean / cleanParent), keeping the trie compact.
//   * Full-hash collisions go to immutable LNode chains.
//
// Memory reclamation mirrors the cache-trie: operations run under a
// Reclaimer guard and the winner of each replacing CAS retires exactly the
// nodes that became unreachable (the replaced container, never the shared
// branches). Every INode-main CAS goes through cas_main.
//
// Tombstone ownership: an entombed SNode has exactly one owner. Before the
// entombing CAS that is the live CNode slot; after it, the TNode, which
// wraps that same SNode rather than a copy. Resurrection (clean /
// clean_parent) puts the same SNode back into the parent's new CNode, so
// the winner of a resurrecting CAS retires only the TNode shell and its
// INode, and a loser frees only its own shell or container (discard_copy).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "mr/epoch.hpp"
#include "mr/node_pool.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "util/bits.hpp"
#include "util/hashing.hpp"

namespace cachetrie::ctrie {

namespace detail {

enum class Kind : std::uint8_t { kSNode, kINode, kCNode, kTNode, kLNode };

/// Every node type derives from Base, so `new`/`delete` of any of them goes
/// through the node pool (mr/node_pool.hpp), as the cache-trie's do.
struct Base : mr::PoolAllocated {
  Kind kind;

  Base() = default;
  constexpr Base(Kind k) noexcept : kind(k) {}
};

/// Leaf: immutable key-value pair.
template <typename K, typename V>
struct SNode : Base {
  std::uint64_t hash;
  K key;
  V value;

  static SNode* make(std::uint64_t hash, const K& key, const V& value) {
    return new SNode{{Kind::kSNode}, hash, key, value};
  }
};

/// Tombstone: a CNode that shrank to one SNode is replaced by a TNode so
/// that readers passing through know to contract the path. It owns `sn`,
/// the very SNode it entombed (see the ownership rule above).
template <typename K, typename V>
struct TNode : Base {
  SNode<K, V>* sn;

  static TNode* make(SNode<K, V>* sn) { return new TNode{{Kind::kTNode}, sn}; }
};

/// Collision chain for fully equal 64-bit hashes. Immutable; >= 2 pairs.
template <typename K, typename V>
struct LNode : Base {
  std::uint64_t hash;
  LNode* next;
  K key;
  V value;

  static LNode* make(std::uint64_t hash, const K& key, const V& value,
                     LNode* next) {
    return new LNode{{Kind::kLNode}, hash, next, key, value};
  }
};

/// Indirection node: the only mutable cell of the structure.
struct INode : Base {
  std::atomic<Base*> main;

  static INode* make(Base* main_init) {
    auto* in = new INode{{Kind::kINode}, {}};
    in->main.store(main_init, std::memory_order_relaxed);
    return in;
  }
};

/// Bitmap-compressed inner node: branch i (0..31) is present iff bit i of
/// bmp is set; present branches pack densely into the trailing array.
struct CNode : Base {
  std::uint32_t bmp;
  std::uint32_t len;

  static constexpr std::size_t header_size() noexcept {
    return (sizeof(CNode) + alignof(Base*) - 1) & ~(alignof(Base*) - 1);
  }

  Base** array() noexcept {
    return reinterpret_cast<Base**>(reinterpret_cast<char*>(this) +
                                    header_size());
  }
  Base* const* array() const noexcept {
    return reinterpret_cast<Base* const*>(
        reinterpret_cast<const char*>(this) + header_size());
  }

  static constexpr std::size_t alloc_size(std::uint32_t len) noexcept {
    return header_size() + len * sizeof(Base*);
  }

  static CNode* make(std::uint32_t bmp, std::uint32_t len) {
    void* raw = mr::NodePool::allocate(alloc_size(len));
    auto* cn = new (raw) CNode{};
    cn->kind = Kind::kCNode;
    cn->bmp = bmp;
    cn->len = len;
    return cn;
  }

  static void destroy(CNode* cn) noexcept {
    mr::NodePool::deallocate(cn, alloc_size(cn->len));
  }
  /// Type-erased deleter for reclaimer retirement.
  static void destroy_erased(void* cn) noexcept {
    destroy(static_cast<CNode*>(cn));
  }

  std::uint32_t pos_of(std::uint32_t flag) const noexcept {
    return static_cast<std::uint32_t>(util::popcount(bmp & (flag - 1)));
  }

  /// Copy with branch at `pos` replaced.
  CNode* updated(std::uint32_t pos, Base* branch) const {
    CNode* cn = make(bmp, len);
    for (std::uint32_t i = 0; i < len; ++i) cn->array()[i] = array()[i];
    cn->array()[pos] = branch;
    return cn;
  }

  /// Copy with a new branch inserted at the position of `flag`.
  CNode* inserted(std::uint32_t pos, std::uint32_t flag, Base* branch) const {
    CNode* cn = make(bmp | flag, len + 1);
    for (std::uint32_t i = 0; i < pos; ++i) cn->array()[i] = array()[i];
    cn->array()[pos] = branch;
    for (std::uint32_t i = pos; i < len; ++i) cn->array()[i + 1] = array()[i];
    return cn;
  }

  /// Copy with the branch at the position of `flag` removed.
  CNode* removed(std::uint32_t pos, std::uint32_t flag) const {
    CNode* cn = make(bmp & ~flag, len - 1);
    for (std::uint32_t i = 0; i < pos; ++i) cn->array()[i] = array()[i];
    for (std::uint32_t i = pos + 1; i < len; ++i) {
      cn->array()[i - 1] = array()[i];
    }
    return cn;
  }
};


}  // namespace detail

template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class Ctrie {
  using Base = detail::Base;
  using Kind = detail::Kind;
  using SNodeT = detail::SNode<K, V>;
  using TNodeT = detail::TNode<K, V>;
  using LNodeT = detail::LNode<K, V>;
  using INode = detail::INode;
  using CNode = detail::CNode;

  static constexpr std::uint32_t kW = 5;       // bits per level
  static constexpr std::uint32_t kBranch = 32; // 2^kW

 public:
  Ctrie() { root_ = INode::make(CNode::make(0, 0)); }

  Ctrie(const Ctrie&) = delete;
  Ctrie& operator=(const Ctrie&) = delete;

  ~Ctrie() { destroy_tree(root_); }

  /// Inserts or replaces. Returns true iff the key was new.
  bool insert(const K& key, const V& value) {
    return pinned(key, [&](std::uint64_t h) {
             return iinsert(root_, key, value, h, 0, nullptr,
                            /*only_if_absent=*/false);
           }) == Res::kNew;
  }

  /// Inserts only if absent; true iff it inserted (API parity with the
  /// other maps in this repo and with scala TrieMap's putIfAbsent).
  bool put_if_absent(const K& key, const V& value) {
    return pinned(key, [&](std::uint64_t h) {
             return iinsert(root_, key, value, h, 0, nullptr,
                            /*only_if_absent=*/true);
           }) == Res::kNew;
  }

  std::optional<V> lookup(const K& key) const {
    std::optional<V> out;
    pinned(key, [&](std::uint64_t h) {
      return ilookup(root_, key, h, 0, nullptr, &out);
    });
    return out;
  }

  bool contains(const K& key) const { return lookup(key).has_value(); }

  std::optional<V> remove(const K& key) {
    std::optional<V> out;
    pinned(key, [&](std::uint64_t h) {
      return iremove(root_, key, h, 0, nullptr, &out);
    });
    return out;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for_each([&](const K&, const V&) { ++n; });
    return n;
  }

  template <typename F>
  void for_each(F&& fn) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    walk(root_, fn);
  }

  /// Heap bytes: the map and each node at its pool class size
  /// (NodePool::class_bytes).
  std::size_t footprint_bytes() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    auto none = [](const K&, const V&) {};
    return sizeof(*this) + walk(root_, none);
  }

  /// Quiescent invariant check (see CacheTrie::debug_validate).
  std::vector<std::string> debug_validate() const {
    std::vector<std::string> issues;
    validate_branch(root_, 0, 0, issues, true);
    return issues;
  }

 private:
  enum class Res : std::uint8_t {
    kNew,
    kReplaced,
    kFound,
    kNotFound,
    kRestart,
  };

  static std::uint32_t flag_of(std::uint64_t h, std::uint32_t lev) noexcept {
    return std::uint32_t{1} << ((h >> lev) & (kBranch - 1));
  }

  /// The pin-and-restart loop of every public op: pins the guard, crosses
  /// ctrie.pinned once, then reruns `step` from the root until it stops
  /// asking for a restart. Always inlined: as the out-of-line clone GCC
  /// otherwise makes for lookup's step, which takes the step's captures
  /// through the stack and hands the result back through memory, it ran
  /// perf_smoke's 100k-key lookup pass at twice the time of the inlined
  /// loop (EXPERIMENTS.md, "The Ctrie lookup regression").
  template <typename Step>
  [[gnu::always_inline]] Res pinned(const K& key, Step step) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    // Fault site: a victim parked here holds the guard with nothing else
    // done — the worst case for epoch reclamation (see testkit/fault.hpp).
    testkit::chaos_point(testkit::Site::ctrie_pinned);
    const std::uint64_t h = hasher_(key);
    while (true) {
      const Res r = step(h);
      if (r != Res::kRestart) return r;
    }
  }

  /// The chain's pair for `key`, or nullptr.
  static LNodeT* chain_find(LNodeT* ln, std::uint64_t h, const K& key) {
    for (; ln != nullptr; ln = ln->next) {
      if (ln->hash == h && ln->key == key) return ln;
    }
    return nullptr;
  }

  /// A fresh copy of the chain without `key` (order reversed; chains are
  /// unordered).
  static LNodeT* chain_without(LNodeT* ln, const K& key) {
    LNodeT* fresh = nullptr;
    for (; ln != nullptr; ln = ln->next) {
      if (!(ln->key == key)) {
        fresh = LNodeT::make(ln->hash, ln->key, ln->value, fresh);
      }
    }
    return fresh;
  }

  // --- lookup ---------------------------------------------------------------

  Res ilookup(INode* i, const K& key, std::uint64_t h, std::uint32_t lev,
              INode* parent, std::optional<V>* out) const {
    // [acquires: CTRIE_GCAS]
    Base* main = i->main.load(std::memory_order_acquire);
    switch (main->kind) {
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(main);
        const std::uint32_t flag = flag_of(h, lev);
        if ((cn->bmp & flag) == 0) return Res::kNotFound;
        Base* branch = cn->array()[cn->pos_of(flag)];
        if (branch->kind == Kind::kINode) {
          return ilookup(static_cast<INode*>(branch), key, h, lev + kW, i,
                         out);
        }
        auto* sn = static_cast<SNodeT*>(branch);
        if (sn->hash == h && sn->key == key) {
          *out = sn->value;
          return Res::kFound;
        }
        return Res::kNotFound;
      }
      case Kind::kTNode:
        // A tombed path must be contracted before the search can proceed.
        clean(parent, lev - kW);
        return Res::kRestart;
      case Kind::kLNode:
        if (LNodeT* l = chain_find(static_cast<LNodeT*>(main), h, key)) {
          *out = l->value;
          return Res::kFound;
        }
        return Res::kNotFound;
      default:
        assert(false && "invalid main node");
        return Res::kRestart;
    }
  }

  // --- insert ---------------------------------------------------------------

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res iinsert(INode* i, const K& key, const V& value, std::uint64_t h,
              std::uint32_t lev, INode* parent, bool only_if_absent) {
    Base* main = i->main.load(std::memory_order_acquire);
    switch (main->kind) {
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(main);
        const std::uint32_t flag = flag_of(h, lev);
        const std::uint32_t pos = cn->pos_of(flag);
        const bool absent = (cn->bmp & flag) == 0;
        Base* branch = absent ? nullptr : cn->array()[pos];
        if (!absent && branch->kind == Kind::kINode) {
          return iinsert(static_cast<INode*>(branch), key, value, h,
                         lev + kW, i, only_if_absent);
        }
        auto* sn = static_cast<SNodeT*>(branch);
        if (absent || (sn->hash == h && sn->key == key)) {
          if (!absent && only_if_absent) return Res::kReplaced;  // untouched
          SNodeT* nsn = SNodeT::make(h, key, value);
          CNode* ncn =
              absent ? cn->inserted(pos, flag, nsn) : cn->updated(pos, nsn);
          if (cas_main(i, cn, ncn)) {
            if (absent) return Res::kNew;
            Reclaimer::template retire<SNodeT>(sn);
            return Res::kReplaced;
          }
          delete nsn;  // [delete: unpublished]
          discard_copy(ncn);
          return Res::kRestart;
        }
        // Distinct key: grow a deeper level under a fresh INode. Equal full
        // hashes make an LNode chain that *copies* sn's pair (chains have
        // no SNodes), so the original sn is superseded and must be
        // retired; with distinct hashes sn moves down as-is.
        INode* nin = INode::make(
            sn->hash == h
                ? LNodeT::make(h, key, value,
                               LNodeT::make(h, sn->key, sn->value, nullptr))
                : branch_apart(sn, sn->hash, SNodeT::make(h, key, value),
                               lev + kW));
        CNode* ncn = cn->updated(pos, nin);
        if (cas_main(i, cn, ncn)) {
          if (sn->hash == h) Reclaimer::template retire<SNodeT>(sn);
          return Res::kNew;
        }
        destroy_tree(nin, sn);
        discard_copy(ncn);
        return Res::kRestart;
      }
      case Kind::kTNode:
        clean(parent, lev - kW);
        return Res::kRestart;
      case Kind::kLNode: {
        auto* ln = static_cast<LNodeT*>(main);
        if (ln->hash != h) {
          // Shares only a prefix with the chain: push the chain one level
          // deeper next to the new key.
          Base* grown = branch_apart(INode::make(ln), ln->hash,
                                     SNodeT::make(h, key, value), lev);
          if (cas_main(i, ln, grown)) return Res::kNew;
          destroy_tree(grown, ln);
          return Res::kRestart;
        }
        const bool found = chain_find(ln, h, key) != nullptr;
        if (found && only_if_absent) return Res::kReplaced;
        LNodeT* fresh = LNodeT::make(h, key, value, chain_without(ln, key));
        if (cas_main(i, ln, fresh)) {
          retire_chain(ln);
          return found ? Res::kReplaced : Res::kNew;
        }
        destroy_tree(fresh);
        return Res::kRestart;
      }
      default:
        assert(false && "invalid main node");
        return Res::kRestart;
    }
  }

  // --- remove ---------------------------------------------------------------

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res iremove(INode* i, const K& key, std::uint64_t h, std::uint32_t lev,
              INode* parent, std::optional<V>* out) {
    Base* main = i->main.load(std::memory_order_acquire);
    switch (main->kind) {
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(main);
        const std::uint32_t flag = flag_of(h, lev);
        if ((cn->bmp & flag) == 0) return Res::kNotFound;
        const std::uint32_t pos = cn->pos_of(flag);
        Base* branch = cn->array()[pos];
        if (branch->kind == Kind::kINode) {
          const Res res = iremove(static_cast<INode*>(branch), key, h,
                                  lev + kW, i, out);
          // If the removal left a tombstone, contract it into the parent.
          if (res == Res::kFound && parent != nullptr &&
              i->main.load(std::memory_order_acquire)->kind == Kind::kTNode) {
            clean_parent(parent, i, h, lev - kW);
          }
          return res;
        }
        auto* sn = static_cast<SNodeT*>(branch);
        if (sn->hash != h || !(sn->key == key)) return Res::kNotFound;
        Base* contracted = to_contracted(cn->removed(pos, flag), lev);
        if (!cas_main(i, cn, contracted)) {
          discard_copy(contracted);
          return Res::kRestart;
        }
        *out = sn->value;
        Reclaimer::template retire<SNodeT>(sn);
        if (contracted->kind == Kind::kTNode && parent != nullptr) {
          clean_parent(parent, i, h, lev - kW);
        }
        return Res::kFound;
      }
      case Kind::kTNode:
        clean(parent, lev - kW);
        return Res::kRestart;
      case Kind::kLNode: {
        auto* ln = static_cast<LNodeT*>(main);
        LNodeT* found = chain_find(ln, h, key);
        if (found == nullptr) return Res::kNotFound;
        Base* replacement;
        if (ln->next->next == nullptr) {
          // A two-pair chain leaves one pair: it becomes a tombed SNode so
          // the path contracts.
          LNodeT* other = found == ln ? ln->next : ln;
          replacement = TNodeT::make(
              SNodeT::make(other->hash, other->key, other->value));
        } else {
          replacement = chain_without(ln, key);
        }
        if (!cas_main(i, ln, replacement)) {
          destroy_tree(replacement);
          return Res::kRestart;
        }
        *out = found->value;
        retire_chain(ln);
        if (replacement->kind == Kind::kTNode && parent != nullptr) {
          clean_parent(parent, i, h, lev - kW);
        }
        return Res::kFound;
      }
      default:
        assert(false && "invalid main node");
        return Res::kRestart;
    }
  }

  // --- the INode-main commit and contraction (clean / cleanParent) -----------

  /// The one INode-main commit (the GCAS stand-in): every structural
  /// replacement — an op's own update, clean's compression, clean_parent's
  /// contraction — crosses its chaos `site` and CASes here, under the one
  /// trace span. The winner retires a replaced CNode container (its
  /// branches are shared with `desired` by construction); a replaced LNode
  /// chain is retired by the caller, which knows whether it moved down.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static bool cas_main(INode* i, Base* expected, Base* desired,
                       testkit::Site site = testkit::Site::ctrie_gcas) {
    [[maybe_unused]] auto span =
        obs::sites::ctrie_gcas.span(reinterpret_cast<std::uintptr_t>(i));
    testkit::chaos_point(site);
    Base* e = expected;
    // [publishes: CTRIE_GCAS]
    if (i->main.compare_exchange_strong(e, desired,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      if (desired->kind == Kind::kTNode) {
        obs::sites::ctrie_entomb.record(reinterpret_cast<std::uintptr_t>(i));
      }
      if (expected->kind == Kind::kCNode) {
        Reclaimer::retire_raw_sized(
            expected, &CNode::destroy_erased,
            CNode::alloc_size(static_cast<CNode*>(expected)->len));
      }
      return true;
    }
    obs::sites::ctrie_gcas_retry.record(reinterpret_cast<std::uintptr_t>(i));
    return false;
  }

  /// A CNode with exactly one SNode branch (below the root) entombs: the
  /// TNode takes over that very SNode and the unpublished container goes.
  static Base* to_contracted(CNode* cn, std::uint32_t lev) {
    if (lev > 0 && cn->len == 1 && cn->array()[0]->kind == Kind::kSNode) {
      TNodeT* tn = TNodeT::make(static_cast<SNodeT*>(cn->array()[0]));
      CNode::destroy(cn);
      return tn;
    }
    return cn;
  }

  /// After a CAS that put a tombed INode's SNode back into its parent: the
  /// SNode lives on there, so only the TNode shell (final once published)
  /// and the INode are retired.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static void retire_resurrected(INode* in) {
    Reclaimer::template retire<TNodeT>(
        static_cast<TNodeT*>(in->main.load(std::memory_order_acquire)));
    Reclaimer::template retire<INode>(in);
  }

  /// Compresses i's CNode: tombed INode children give their SNode back to
  /// the new CNode, and the result is contracted. The resurrected INodes
  /// are recorded *at copy time* — re-reading branch states after the CAS
  /// would race with concurrent entombments (a branch that became tombed
  /// after the copy is still shared by the new CNode and must NOT be
  /// retired; a later clean_parent owns it).
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static void clean(INode* i, std::uint32_t lev) {
    if (i == nullptr) return;  // tomb directly under the root cannot occur
    Base* main = i->main.load(std::memory_order_acquire);
    if (main->kind != Kind::kCNode) return;
    auto* cn = static_cast<CNode*>(main);
    std::vector<INode*> resurrected;
    CNode* ncn = CNode::make(cn->bmp, cn->len);
    for (std::uint32_t b = 0; b < cn->len; ++b) {
      Base* branch = cn->array()[b];
      if (branch->kind == Kind::kINode) {
        auto* in = static_cast<INode*>(branch);
        Base* m = in->main.load(std::memory_order_acquire);
        if (m->kind == Kind::kTNode) {
          branch = static_cast<TNodeT*>(m)->sn;
          resurrected.push_back(in);
        }
      }
      ncn->array()[b] = branch;
    }
    Base* desired = to_contracted(ncn, lev);
    if (resurrected.empty() && desired == ncn) {
      CNode::destroy(ncn);  // nothing to compress or contract
      return;
    }
    if (!cas_main(i, cn, desired, testkit::Site::ctrie_clean_commit)) {
      discard_copy(desired);
      return;
    }
    for (INode* in : resurrected) retire_resurrected(in);
    obs::sites::ctrie_clean.record(reinterpret_cast<std::uintptr_t>(i),
                                   resurrected.size());
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static void clean_parent(INode* parent, INode* i, std::uint64_t h,
                           std::uint32_t lev) {
    while (true) {
      Base* main = parent->main.load(std::memory_order_acquire);
      if (main->kind != Kind::kCNode) return;
      auto* cn = static_cast<CNode*>(main);
      const std::uint32_t flag = flag_of(h, lev);
      if ((cn->bmp & flag) == 0) return;
      const std::uint32_t pos = cn->pos_of(flag);
      if (cn->array()[pos] != i) return;
      Base* imain = i->main.load(std::memory_order_acquire);
      if (imain->kind != Kind::kTNode) return;
      Base* contracted = to_contracted(
          cn->updated(pos, static_cast<TNodeT*>(imain)->sn), lev);
      if (cas_main(parent, cn, contracted,
                   testkit::Site::ctrie_clean_parent)) {
        retire_resurrected(i);
        obs::sites::ctrie_clean_parent.record(
            reinterpret_cast<std::uintptr_t>(parent), lev);
        return;
      }
      discard_copy(contracted);
    }
  }

  // --- construction helpers ---------------------------------------------------

  /// Hangs `a` (at hash `ah`) and the fresh SNode `b`, whose hashes
  /// differ, under a minimal chain of CNodes starting at level `lev`, one
  /// fresh INode per level below the first. `a` is the resident SNode or a
  /// fresh INode over a chain, linked as-is: Ctrie branches are shared,
  /// where the cache-trie hangs a copy.
  static Base* branch_apart(Base* a, std::uint64_t ah, SNodeT* b,
                            std::uint32_t lev) {
    const std::uint32_t fa = flag_of(ah, lev);
    const std::uint32_t fb = flag_of(b->hash, lev);
    if (fa == fb) {
      CNode* cn = CNode::make(fa, 1);
      cn->array()[0] = INode::make(branch_apart(a, ah, b, lev + kW));
      return cn;
    }
    CNode* cn = CNode::make(fa | fb, 2);
    cn->array()[fa < fb ? 0 : 1] = a;
    cn->array()[fa < fb ? 1 : 0] = b;
    return cn;
  }

  // --- teardown -------------------------------------------------------------

  /// Frees a subtree nothing else can reach — the whole trie in the
  /// destructor, or what a losing op built — except `keep`, the one node a
  /// growth loser shares with the live trie (the SNode or chain it pushed
  /// down), which is left alone wherever it appears.
  static void destroy_tree(Base* node, const Base* keep = nullptr) {
    if (node == keep) return;
    switch (node->kind) {
      case Kind::kSNode:
        delete static_cast<SNodeT*>(node);
        return;
      case Kind::kINode: {
        auto* in = static_cast<INode*>(node);
        destroy_tree(in->main.load(std::memory_order_relaxed), keep);
        delete in;
        return;
      }
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(node);
        for (std::uint32_t b = 0; b < cn->len; ++b) {
          destroy_tree(cn->array()[b], keep);
        }
        CNode::destroy(cn);
        return;
      }
      case Kind::kTNode: {
        auto* tn = static_cast<TNodeT*>(node);
        destroy_tree(tn->sn, keep);
        delete tn;
        return;
      }
      case Kind::kLNode:
        for (auto* l = static_cast<LNodeT*>(node); l != nullptr;) {
          LNodeT* next = l->next;
          delete l;
          l = next;
        }
        return;
      default:
        assert(false);
    }
  }

  /// Frees a copy that lost its CAS — a CNode container or a TNode shell —
  /// but not its children, which the live trie still shares.
  static void discard_copy(Base* copy) {
    if (copy->kind == Kind::kTNode) {
      delete static_cast<TNodeT*>(copy);  // [delete: unpublished]
    } else {
      CNode::destroy(static_cast<CNode*>(copy));
    }
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static void retire_chain(LNodeT* chain) {
    while (chain != nullptr) {
      LNodeT* next = chain->next;
      Reclaimer::template retire<LNodeT>(chain);
      chain = next;
    }
  }

  // --- traversal ---------------------------------------------------------------

  /// A node's bytes at its pool class size (NodePool::class_bytes).
  template <typename N>
  static constexpr std::size_t charged(
      std::size_t bytes = sizeof(N)) noexcept {
    return mr::NodePool::class_bytes(bytes, alignof(N));
  }

  /// The one walk behind size, for_each and footprint_bytes: calls
  /// fn(key, value) for every pair under `node` (a tombed SNode included)
  /// and returns the charged bytes of every node it passed.
  template <typename F>
  static std::size_t walk(const Base* node, F& fn) {
    switch (node->kind) {
      case Kind::kSNode: {
        auto* sn = static_cast<const SNodeT*>(node);
        fn(sn->key, sn->value);
        return charged<SNodeT>();
      }
      case Kind::kINode:
        return charged<INode>() +
               walk(static_cast<const INode*>(node)->main.load(
                        std::memory_order_acquire),
                    fn);
      case Kind::kCNode: {
        auto* cn = static_cast<const CNode*>(node);
        std::size_t bytes = charged<CNode>(CNode::alloc_size(cn->len));
        for (std::uint32_t i = 0; i < cn->len; ++i) {
          bytes += walk(cn->array()[i], fn);
        }
        return bytes;
      }
      case Kind::kTNode:
        return charged<TNodeT>() +
               walk(static_cast<const TNodeT*>(node)->sn, fn);
      case Kind::kLNode: {
        std::size_t bytes = 0;
        for (auto* l = static_cast<const LNodeT*>(node); l != nullptr;
             l = l->next) {
          fn(l->key, l->value);
          bytes += charged<LNodeT>();
        }
        return bytes;
      }
    }
    assert(false && "invalid node kind");
    return 0;
  }

  void validate_branch(const Base* branch, std::uint64_t prefix,
                       std::uint32_t lev, std::vector<std::string>& issues,
                       bool is_root) const {
    const std::uint64_t mask = lev == 0 ? 0 : ((std::uint64_t{1} << lev) - 1);
    switch (branch->kind) {
      case Kind::kSNode: {
        auto* sn = static_cast<const SNodeT*>(branch);
        if ((sn->hash & mask) != (prefix & mask)) {
          issues.push_back("ctrie SNode prefix mismatch at level " +
                           std::to_string(lev));
        }
        return;
      }
      case Kind::kINode: {
        const Base* main = static_cast<const INode*>(branch)->main.load(
            std::memory_order_acquire);
        if (main->kind == Kind::kCNode) {
          auto* cn = static_cast<const CNode*>(main);
          if (!is_root && cn->len == 0) {
            issues.push_back("empty non-root CNode (missed contraction)");
          }
          if (!is_root && cn->len == 1 &&
              cn->array()[0]->kind == Kind::kSNode) {
            issues.push_back("single-SNode CNode not entombed at level " +
                             std::to_string(lev));
          }
          if (static_cast<std::uint32_t>(util::popcount(cn->bmp)) != cn->len) {
            issues.push_back("CNode bitmap/population mismatch");
          }
          std::uint32_t pos = 0;
          for (std::uint32_t b = 0; b < kBranch; ++b) {
            if ((cn->bmp & (std::uint32_t{1} << b)) == 0) continue;
            validate_branch(cn->array()[pos],
                            prefix | (static_cast<std::uint64_t>(b) << lev),
                            lev + kW, issues, false);
            ++pos;
          }
        } else if (main->kind == Kind::kTNode) {
          issues.push_back("TNode present in quiescent ctrie");
        } else if (main->kind == Kind::kLNode) {
          std::size_t pairs = 0;
          for (auto* l = static_cast<const LNodeT*>(main); l != nullptr;
               l = l->next) {
            ++pairs;
            if ((l->hash & mask) != (prefix & mask)) {
              issues.push_back("ctrie LNode prefix mismatch");
            }
          }
          if (pairs < 2) issues.push_back("ctrie LNode chain below 2 pairs");
        }
        return;
      }
      default:
        issues.push_back("invalid branch kind");
    }
  }

  Hash hasher_{};
  INode* root_;
};

}  // namespace cachetrie::ctrie
