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
// branches).
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
#include "obs/inventory.hpp"
#include "obs/trace.hpp"
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
/// that readers passing through know to contract the path.
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

  ~Ctrie() {
    destroy_main(root_->main.load(std::memory_order_relaxed));
    delete root_;
  }

  /// Inserts or replaces. Returns true iff the key was new.
  bool insert(const K& key, const V& value) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    // Fault site: a victim parked here holds the guard with nothing else
    // done — the stall-tolerant reclaimer's worst case (see testkit/fault.hpp).
    testkit::chaos_point("ctrie.pinned");
    const std::uint64_t h = hasher_(key);
    while (true) {
      const Res r = iinsert(root_, key, value, h, 0, nullptr);
      if (r == Res::kNew) return true;
      if (r == Res::kReplaced) return false;
      assert(r == Res::kRestart);
    }
  }

  /// Inserts only if absent; true iff it inserted (API parity with the
  /// other maps in this repo and with scala TrieMap's putIfAbsent).
  bool put_if_absent(const K& key, const V& value) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("ctrie.pinned");
    const std::uint64_t h = hasher_(key);
    while (true) {
      const Res r =
          iinsert(root_, key, value, h, 0, nullptr, /*only_if_absent=*/true);
      if (r == Res::kNew) return true;
      if (r == Res::kReplaced) return false;  // key existed; untouched
      assert(r == Res::kRestart);
    }
  }

  std::optional<V> lookup(const K& key) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("ctrie.pinned");
    const std::uint64_t h = hasher_(key);
    while (true) {
      std::optional<V> out;
      const Res r = ilookup(root_, key, h, 0, nullptr, &out);
      if (r == Res::kFound) return out;
      if (r == Res::kNotFound) return std::nullopt;
      assert(r == Res::kRestart);
    }
  }

  bool contains(const K& key) const { return lookup(key).has_value(); }

  std::optional<V> remove(const K& key) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("ctrie.pinned");
    const std::uint64_t h = hasher_(key);
    while (true) {
      std::optional<V> out;
      const Res r = iremove(root_, key, h, 0, nullptr, &out);
      if (r == Res::kFound) return out;
      if (r == Res::kNotFound) return std::nullopt;
      assert(r == Res::kRestart);
    }
  }

  std::size_t size() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    std::size_t n = 0;
    auto count = [&](const K&, const V&) { ++n; };
    for_each_branch(root_, count);
    return n;
  }

  bool empty() const { return size() == 0; }

  template <typename F>
  void for_each(F&& fn) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    for_each_branch(root_, fn);
  }

  std::size_t footprint_bytes() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    return sizeof(*this) + branch_footprint(root_);
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
      case Kind::kLNode: {
        for (auto* l = static_cast<LNodeT*>(main); l != nullptr;
             l = l->next) {
          if (l->hash == h && l->key == key) {
            *out = l->value;
            return Res::kFound;
          }
        }
        return Res::kNotFound;
      }
      default:
        assert(false && "invalid main node");
        return Res::kRestart;
    }
  }

  // --- insert ---------------------------------------------------------------

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  Res iinsert(INode* i, const K& key, const V& value, std::uint64_t h,
              std::uint32_t lev, INode* parent,
              bool only_if_absent = false) {
    Base* main = i->main.load(std::memory_order_acquire);
    switch (main->kind) {
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(main);
        const std::uint32_t flag = flag_of(h, lev);
        const std::uint32_t pos = cn->pos_of(flag);
        if ((cn->bmp & flag) == 0) {
          CNode* ncn = cn->inserted(pos, flag, SNodeT::make(h, key, value));
          if (cas_main(i, cn, ncn)) return Res::kNew;
          destroy_cnode_and_fresh(ncn, cn);
          return Res::kRestart;
        }
        Base* branch = cn->array()[pos];
        if (branch->kind == Kind::kINode) {
          return iinsert(static_cast<INode*>(branch), key, value, h,
                         lev + kW, i, only_if_absent);
        }
        auto* sn = static_cast<SNodeT*>(branch);
        if (sn->hash == h && sn->key == key) {
          if (only_if_absent) return Res::kReplaced;  // present: no change
          SNodeT* nsn = SNodeT::make(h, key, value);
          CNode* ncn = cn->updated(pos, nsn);
          if (cas_main(i, cn, ncn)) {
            Reclaimer::template retire<SNodeT>(sn);
            return Res::kReplaced;
          }
          delete nsn;  // [delete: unpublished]
          CNode::destroy(ncn);
          return Res::kRestart;
        }
        // Distinct key: grow a deeper level under a fresh INode. With equal
        // full hashes branch_two builds an LNode chain that *copies* sn's
        // pair (chains have no SNodes), so the original sn is superseded
        // and must be retired; with distinct hashes sn is shared as-is.
        const bool sn_copied = sn->hash == h;
        Base* deeper = branch_two(sn, h, key, value, lev + kW);
        INode* nin = INode::make(deeper);
        CNode* ncn = cn->updated(pos, nin);
        if (cas_main(i, cn, ncn)) {
          if (sn_copied) Reclaimer::template retire<SNodeT>(sn);
          return Res::kNew;
        }
        destroy_branch_shallow(nin, sn);
        CNode::destroy(ncn);
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
          SNodeT* nsn = SNodeT::make(h, key, value);
          Base* grown = branch_lnode_apart(ln, nsn, lev);
          if (cas_main(i, ln, grown)) return Res::kNew;
          destroy_grown_sparing(grown, ln);
          delete nsn;  // [delete: unpublished]
          return Res::kRestart;
        }
        bool found = false;
        for (auto* l = ln; l != nullptr; l = l->next) {
          if (l->key == key) {
            found = true;
            break;
          }
        }
        if (found && only_if_absent) return Res::kReplaced;
        LNodeT* fresh = nullptr;
        for (auto* l = ln; l != nullptr; l = l->next) {
          if (l->key == key) continue;
          fresh = LNodeT::make(l->hash, l->key, l->value, fresh);
        }
        fresh = LNodeT::make(h, key, value, fresh);
        if (cas_main(i, ln, fresh)) {
          retire_chain(ln);
          return found ? Res::kReplaced : Res::kNew;
        }
        destroy_chain(fresh);
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
        Res res;
        if (branch->kind == Kind::kINode) {
          res = iremove(static_cast<INode*>(branch), key, h, lev + kW, i,
                        out);
        } else {
          auto* sn = static_cast<SNodeT*>(branch);
          if (sn->hash != h || !(sn->key == key)) return Res::kNotFound;
          CNode* ncn = cn->removed(pos, flag);
          // When contraction entombs, the surviving branch is *copied* into
          // the tombstone; remember the shared original so the winner can
          // retire it (it stays reachable only through the retired cn).
          SNodeT* survivor = nullptr;
          if (lev > 0 && ncn->len == 1 &&
              ncn->array()[0]->kind == Kind::kSNode) {
            survivor = static_cast<SNodeT*>(ncn->array()[0]);
          }
          Base* contracted = to_contracted(ncn, lev);
          if (cas_main(i, cn, contracted)) {
            *out = sn->value;
            Reclaimer::template retire<SNodeT>(sn);
            if (contracted != ncn && survivor != nullptr) {
              Reclaimer::template retire<SNodeT>(survivor);
            }
            res = Res::kFound;
          } else {
            // to_contracted consumes ncn when it entombs; destroy whichever
            // unpublished object we are left holding.
            if (contracted != ncn) {
              // [delete: unpublished]
              delete static_cast<TNodeT*>(contracted)->sn;
              delete static_cast<TNodeT*>(contracted);
            } else {
              CNode::destroy(ncn);
            }
            return Res::kRestart;
          }
        }
        if (res == Res::kFound && parent != nullptr) {
          // If the removal left a tombstone, contract it into the parent.
          if (i->main.load(std::memory_order_acquire)->kind == Kind::kTNode) {
            clean_parent(parent, i, h, lev - kW);
          }
        }
        return res;
      }
      case Kind::kTNode:
        clean(parent, lev - kW);
        return Res::kRestart;
      case Kind::kLNode: {
        auto* ln = static_cast<LNodeT*>(main);
        if (ln->hash != h) return Res::kNotFound;
        bool found = false;
        std::size_t remaining = 0;
        for (auto* l = ln; l != nullptr; l = l->next) {
          if (l->key == key) {
            found = true;
            *out = l->value;
          } else {
            ++remaining;
          }
        }
        if (!found) return Res::kNotFound;
        Base* replacement;
        if (remaining == 1) {
          // Chain of one pair becomes a tombed SNode so the path contracts.
          SNodeT* only = nullptr;
          for (auto* l = ln; l != nullptr; l = l->next) {
            if (!(l->key == key)) only = SNodeT::make(l->hash, l->key, l->value);
          }
          replacement = TNodeT::make(only);
        } else {
          LNodeT* fresh = nullptr;
          for (auto* l = ln; l != nullptr; l = l->next) {
            if (l->key == key) continue;
            fresh = LNodeT::make(l->hash, l->key, l->value, fresh);
          }
          replacement = fresh;
        }
        if (cas_main(i, ln, replacement)) {
          retire_chain(ln);
          if (replacement->kind == Kind::kTNode && parent != nullptr) {
            clean_parent(parent, i, h, lev - kW);
          }
          return Res::kFound;
        }
        if (replacement->kind == Kind::kTNode) {
          // [delete: unpublished]
          delete static_cast<TNodeT*>(replacement)->sn;
          delete static_cast<TNodeT*>(replacement);
        } else {
          destroy_chain(static_cast<LNodeT*>(replacement));
        }
        out->reset();
        return Res::kRestart;
      }
      default:
        assert(false && "invalid main node");
        return Res::kRestart;
    }
  }

  // --- contraction (clean / cleanParent) -------------------------------------

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  bool cas_main(INode* i, Base* expected, Base* desired) {
    // The GCAS stand-in: every structural replacement funnels through this
    // single INode.main CAS, so one chaos point (and one trace span,
    // covering the CAS plus retiring the loser) covers them all.
    [[maybe_unused]] obs::trace::Span span{
        obs::trace::EventId::kCtrieGcasBegin,
        obs::trace::EventId::kCtrieGcasEnd,
        reinterpret_cast<std::uintptr_t>(i)};
    testkit::chaos_point("ctrie.gcas");
    Base* e = expected;
    // [publishes: CTRIE_GCAS]
    if (i->main.compare_exchange_strong(e, desired,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      if (desired->kind == Kind::kTNode) {
        obs::trace::emit(obs::trace::EventId::kCtrieEntomb,
                         reinterpret_cast<std::uintptr_t>(i));
      }
      retire_main_container(expected);
      return true;
    }
    obs::sites::ctrie_gcas_retry.add();
    obs::trace::emit(obs::trace::EventId::kCtrieGcasRetry,
                     reinterpret_cast<std::uintptr_t>(i));
    return false;
  }

  /// Retires a replaced main node: the container only — branches are shared
  /// with the replacement by construction.
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire_main_container(Base* main) {
    if (main->kind == Kind::kCNode) {
      Reclaimer::retire_raw_sized(
          main, &CNode::destroy_erased,
          CNode::alloc_size(static_cast<CNode*>(main)->len));
    } else if (main->kind == Kind::kTNode) {
      // TNode and its tombed SNode are both superseded (resurrection copies
      // the pair into a fresh SNode).
      auto* tn = static_cast<TNodeT*>(main);
      Reclaimer::template retire<SNodeT>(tn->sn);
      Reclaimer::template retire<TNodeT>(tn);
    }
    // LNode chains are retired by their replacing operation (retire_chain).
  }

  /// A CNode with exactly one SNode branch (below the root) entombs.
  Base* to_contracted(CNode* cn, std::uint32_t lev) const {
    if (lev > 0 && cn->len == 1 && cn->array()[0]->kind == Kind::kSNode) {
      auto* sn = static_cast<SNodeT*>(cn->array()[0]);
      TNodeT* tn = TNodeT::make(SNodeT::make(sn->hash, sn->key, sn->value));
      CNode::destroy(cn);  // never published
      return tn;
    }
    return cn;
  }

  /// Compresses i's CNode: tombed INode children are resurrected to plain
  /// SNode copies and the result is contracted. The set of replaced
  /// branches is recorded *at copy time* — re-reading branch states after
  /// the CAS would race with concurrent entombments (a branch that became
  /// tombed after the copy is still shared by the new CNode and must NOT be
  /// retired; a later clean_parent owns it).
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void clean(INode* i, std::uint32_t lev) const {
    if (i == nullptr) return;  // tomb directly under the root cannot occur
    Base* main = i->main.load(std::memory_order_acquire);
    if (main->kind != Kind::kCNode) return;
    auto* cn = static_cast<CNode*>(main);

    struct Resurrection {
      INode* in;
      TNodeT* tn;
      SNodeT* copy;  // fresh SNode placed in the new CNode
    };
    std::vector<Resurrection> recs;
    CNode* ncn = CNode::make(cn->bmp, cn->len);
    for (std::uint32_t b = 0; b < cn->len; ++b) {
      Base* branch = cn->array()[b];
      if (branch->kind == Kind::kINode) {
        auto* in = static_cast<INode*>(branch);
        Base* m = in->main.load(std::memory_order_acquire);
        if (m->kind == Kind::kTNode) {
          auto* tn = static_cast<TNodeT*>(m);
          auto* copy = SNodeT::make(tn->sn->hash, tn->sn->key, tn->sn->value);
          ncn->array()[b] = copy;
          recs.push_back(Resurrection{in, tn, copy});
          continue;
        }
      }
      ncn->array()[b] = branch;
    }

    const bool tombs =
        lev > 0 && ncn->len == 1 && ncn->array()[0]->kind == Kind::kSNode;
    if (recs.empty() && !tombs) {
      CNode::destroy(ncn);  // nothing to compress or contract
      return;
    }

    Base* desired = ncn;
    SNodeT* survivor = nullptr;  // the SNode copied into a tombstone
    if (tombs) {
      survivor = static_cast<SNodeT*>(ncn->array()[0]);
      desired = TNodeT::make(
          SNodeT::make(survivor->hash, survivor->key, survivor->value));
      CNode::destroy(ncn);
      ncn = nullptr;
    }

    testkit::chaos_point("ctrie.clean_commit");
    Base* expected = cn;
    if (i->main.compare_exchange_strong(expected, desired,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      for (const auto& r : recs) {
        Reclaimer::template retire<SNodeT>(r.tn->sn);
        Reclaimer::template retire<TNodeT>(r.tn);
        Reclaimer::template retire<INode>(r.in);
      }
      if (survivor != nullptr) {
        // The tombstone holds a copy; dispose of the source: a fresh
        // resurrected copy was never published (delete), a shared original
        // was reachable through cn (retire).
        bool fresh = false;
        for (const auto& r : recs) fresh = fresh || r.copy == survivor;
        if (fresh) {
          delete survivor;  // [delete: unpublished]
        } else {
          Reclaimer::template retire<SNodeT>(survivor);
        }
      }
      Reclaimer::retire_raw_sized(cn, &CNode::destroy_erased,
                                  CNode::alloc_size(cn->len));
      obs::sites::ctrie_clean.add();
      obs::trace::emit(obs::trace::EventId::kCtrieClean,
                       reinterpret_cast<std::uintptr_t>(i), recs.size());
      if (tombs) {
        obs::trace::emit(obs::trace::EventId::kCtrieEntomb,
                         reinterpret_cast<std::uintptr_t>(i));
      }
      return;
    }
    // Lost the race: everything we built is unpublished.
    obs::sites::ctrie_gcas_retry.add();
    obs::trace::emit(obs::trace::EventId::kCtrieGcasRetry,
                     reinterpret_cast<std::uintptr_t>(i));
    // [delete: unpublished]
    for (const auto& r : recs) delete r.copy;
    if (tombs) {
      // [delete: unpublished]
      delete static_cast<TNodeT*>(desired)->sn;
      delete static_cast<TNodeT*>(desired);
      // A fresh `survivor` copy was already deleted via recs above; a
      // shared one stays alive in cn.
    } else {
      CNode::destroy(ncn);
    }
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void clean_parent(INode* parent, INode* i, std::uint64_t h,
                    std::uint32_t lev) {
    Base* main = parent->main.load(std::memory_order_acquire);
    if (main->kind != Kind::kCNode) return;
    auto* cn = static_cast<CNode*>(main);
    const std::uint32_t flag = flag_of(h, lev);
    if ((cn->bmp & flag) == 0) return;
    const std::uint32_t pos = cn->pos_of(flag);
    if (cn->array()[pos] != i) return;
    Base* imain = i->main.load(std::memory_order_acquire);
    if (imain->kind != Kind::kTNode) return;
    auto* tn = static_cast<TNodeT*>(imain);
    SNodeT* resurrected =
        SNodeT::make(tn->sn->hash, tn->sn->key, tn->sn->value);
    CNode* ncn = cn->updated(pos, resurrected);
    Base* contracted = to_contracted(ncn, lev);
    testkit::chaos_point("ctrie.clean_parent");
    Base* e = cn;
    if (parent->main.compare_exchange_strong(e, contracted,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      Reclaimer::retire_raw_sized(cn, &CNode::destroy_erased,
                                  CNode::alloc_size(cn->len));
      Reclaimer::template retire<SNodeT>(tn->sn);
      Reclaimer::template retire<TNodeT>(tn);
      Reclaimer::template retire<INode>(i);
      if (contracted != ncn) {
        // The tombstone holds yet another copy; the fresh `resurrected`
        // was consumed by to_contracted's container and never published.
        delete resurrected;  // [delete: unpublished]
      }
      obs::sites::ctrie_clean_parent.add();
      obs::trace::emit(obs::trace::EventId::kCtrieCleanParent,
                       reinterpret_cast<std::uintptr_t>(parent), lev);
      if (contracted != ncn) {
        obs::trace::emit(obs::trace::EventId::kCtrieEntomb,
                         reinterpret_cast<std::uintptr_t>(parent));
      }
    } else {
      obs::sites::ctrie_gcas_retry.add();
      obs::trace::emit(obs::trace::EventId::kCtrieGcasRetry,
                       reinterpret_cast<std::uintptr_t>(parent));
      if (contracted != ncn) {
        // [delete: unpublished]
        delete static_cast<TNodeT*>(contracted)->sn;
        delete static_cast<TNodeT*>(contracted);
      } else {
        CNode::destroy(ncn);
      }
      delete resurrected;  // [delete: unpublished]
      clean_parent(parent, i, h, lev);  // retry
    }
  }

  // --- construction helpers ---------------------------------------------------

  /// Two leaves with (possibly) different hashes, branching below lev.
  /// Links the existing sn (branches are shared, not copied).
  Base* branch_two(SNodeT* sn, std::uint64_t h, const K& key, const V& value,
                   std::uint32_t lev) {
    if (sn->hash == h) {
      LNodeT* chain = LNodeT::make(sn->hash, sn->key, sn->value, nullptr);
      return LNodeT::make(h, key, value, chain);
    }
    // NOTE: unlike the cache-trie, Ctrie CNodes link the *existing* SNode.
    const std::uint32_t f1 = flag_of(sn->hash, lev);
    const std::uint32_t f2 = flag_of(h, lev);
    if (f1 != f2) {
      CNode* cn = CNode::make(f1 | f2, 2);
      SNodeT* nsn = SNodeT::make(h, key, value);
      if (f1 < f2) {
        cn->array()[0] = sn;
        cn->array()[1] = nsn;
      } else {
        cn->array()[0] = nsn;
        cn->array()[1] = sn;
      }
      return cn;
    }
    CNode* cn = CNode::make(f1, 1);
    cn->array()[0] = INode::make(branch_two(sn, h, key, value, lev + kW));
    return cn;
  }

  /// A collision chain and a new key that share only a hash prefix.
  Base* branch_lnode_apart(LNodeT* ln, SNodeT* nsn, std::uint32_t lev) {
    const std::uint32_t f1 = flag_of(ln->hash, lev);
    const std::uint32_t f2 = flag_of(nsn->hash, lev);
    if (f1 != f2) {
      CNode* cn = CNode::make(f1 | f2, 2);
      INode* lin = INode::make(ln);
      if (f1 < f2) {
        cn->array()[0] = lin;
        cn->array()[1] = nsn;
      } else {
        cn->array()[0] = nsn;
        cn->array()[1] = lin;
      }
      return cn;
    }
    CNode* cn = CNode::make(f1, 1);
    cn->array()[0] = INode::make(branch_lnode_apart(ln, nsn, lev + kW));
    return cn;
  }

  // --- unpublished-structure teardown -----------------------------------------

  /// Failed insert of a fresh subtree: free everything except the shared sn.
  void destroy_branch_shallow(INode* nin, SNodeT* keep) {
    Base* main = nin->main.load(std::memory_order_relaxed);
    destroy_unpublished_main(main, keep);
    delete nin;
  }

  void destroy_unpublished_main(Base* main, SNodeT* keep) {
    switch (main->kind) {
      case Kind::kLNode:
        destroy_chain(static_cast<LNodeT*>(main));
        return;
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(main);
        for (std::uint32_t i = 0; i < cn->len; ++i) {
          Base* branch = cn->array()[i];
          if (branch == keep) continue;
          if (branch->kind == Kind::kSNode) {
            delete static_cast<SNodeT*>(branch);
          } else if (branch->kind == Kind::kINode) {
            destroy_branch_shallow(static_cast<INode*>(branch), keep);
          }
        }
        CNode::destroy(cn);
        return;
      }
      default:
        assert(false);
    }
  }

  /// Failed empty-slot insert: free the fresh CNode and its new SNode; all
  /// other branches are shared with the still-live original.
  void destroy_cnode_and_fresh(CNode* ncn, CNode* original) {
    for (std::uint32_t i = 0; i < ncn->len; ++i) {
      Base* branch = ncn->array()[i];
      bool shared = false;
      for (std::uint32_t j = 0; j < original->len; ++j) {
        if (original->array()[j] == branch) {
          shared = true;
          break;
        }
      }
      if (!shared && branch->kind == Kind::kSNode) {
        delete static_cast<SNodeT*>(branch);
      }
    }
    CNode::destroy(ncn);
  }

  /// Failed lnode split: free the grown structure but spare the chain.
  void destroy_grown_sparing(Base* grown, LNodeT* spare) {
    if (grown->kind == Kind::kCNode) {
      auto* cn = static_cast<CNode*>(grown);
      for (std::uint32_t i = 0; i < cn->len; ++i) {
        Base* branch = cn->array()[i];
        if (branch->kind == Kind::kINode) {
          auto* in = static_cast<INode*>(branch);
          Base* main = in->main.load(std::memory_order_relaxed);
          if (main != spare) destroy_grown_sparing(main, spare);
          delete in;
        }
        // SNode branches here are the caller's nsn, freed by the caller.
      }
      CNode::destroy(cn);
    }
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
      Reclaimer::template retire<LNodeT>(chain);
      chain = next;
    }
  }

  // --- traversal ---------------------------------------------------------------

  template <typename F>
  void for_each_branch(const Base* branch, F& fn) const {
    switch (branch->kind) {
      case Kind::kSNode: {
        auto* sn = static_cast<const SNodeT*>(branch);
        fn(sn->key, sn->value);
        return;
      }
      case Kind::kINode:
        for_each_main(
            static_cast<const INode*>(branch)->main.load(
                std::memory_order_acquire),
            fn);
        return;
      default:
        assert(false);
    }
  }

  template <typename F>
  void for_each_main(const Base* main, F& fn) const {
    switch (main->kind) {
      case Kind::kCNode: {
        auto* cn = static_cast<const CNode*>(main);
        for (std::uint32_t i = 0; i < cn->len; ++i) {
          for_each_branch(cn->array()[i], fn);
        }
        return;
      }
      case Kind::kTNode: {
        auto* sn = static_cast<const TNodeT*>(main)->sn;
        fn(sn->key, sn->value);
        return;
      }
      case Kind::kLNode:
        for (auto* l = static_cast<const LNodeT*>(main); l != nullptr;
             l = l->next) {
          fn(l->key, l->value);
        }
        return;
      default:
        assert(false);
    }
  }

  std::size_t branch_footprint(const Base* branch) const {
    switch (branch->kind) {
      case Kind::kSNode:
        return sizeof(SNodeT);
      case Kind::kINode:
        return sizeof(INode) +
               main_footprint(static_cast<const INode*>(branch)->main.load(
                   std::memory_order_acquire));
      default:
        return 0;
    }
  }

  std::size_t main_footprint(const Base* main) const {
    switch (main->kind) {
      case Kind::kCNode: {
        auto* cn = static_cast<const CNode*>(main);
        std::size_t bytes = CNode::alloc_size(cn->len);
        for (std::uint32_t i = 0; i < cn->len; ++i) {
          bytes += branch_footprint(cn->array()[i]);
        }
        return bytes;
      }
      case Kind::kTNode:
        return sizeof(TNodeT) + sizeof(SNodeT);
      case Kind::kLNode: {
        std::size_t bytes = 0;
        for (auto* l = static_cast<const LNodeT*>(main); l != nullptr;
             l = l->next) {
          bytes += sizeof(LNodeT);
        }
        return bytes;
      }
      default:
        return 0;
    }
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

  void destroy_main(Base* main) {
    switch (main->kind) {
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(main);
        for (std::uint32_t i = 0; i < cn->len; ++i) {
          Base* branch = cn->array()[i];
          if (branch->kind == Kind::kSNode) {
            delete static_cast<SNodeT*>(branch);
          } else {
            auto* in = static_cast<INode*>(branch);
            destroy_main(in->main.load(std::memory_order_relaxed));
            delete in;
          }
        }
        CNode::destroy(cn);
        return;
      }
      case Kind::kTNode: {
        auto* tn = static_cast<TNodeT*>(main);
        delete tn->sn;
        delete tn;
        return;
      }
      case Kind::kLNode:
        destroy_chain(static_cast<LNodeT*>(main));
        return;
      default:
        assert(false);
    }
  }

  Hash hasher_{};
  INode* root_;
};

}  // namespace cachetrie::ctrie
