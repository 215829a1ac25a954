// nodes.hpp — node types of the cache-trie (paper Fig. 1 and Table 1).
//
// | Name   | Description                                              |
// |--------|----------------------------------------------------------|
// | SNode  | leaf: one key-value pair + txn field                     |
// | ANode  | inner: array of 4 (narrow) or 16 (wide) atomic pointers  |
// | ENode  | announces that an ANode is being expanded (or, in this   |
// |        | implementation, compressed — see `compress` flag)        |
// | LNode  | immutable list node for full 64-bit hash collisions      |
// | FNode  | freeze wrapper: prevents replacing an ANode/LNode entry  |
// | FVNode | sentinel: prevents writing to an empty (null) entry      |
// | FSNode | sentinel stored in SNode.txn: the SNode is frozen        |
// | NoTxn  | sentinel stored in SNode.txn: no transaction in progress |
//
// The Scala original distinguishes node types with runtime class tests; here
// every node starts with a one-byte `Kind` tag. Only SNode and LNode carry
// the key/value types, so the structural nodes (ANode, ENode, FNode and all
// sentinels) are untemplated and shared across instantiations.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>

#include "mr/node_pool.hpp"

namespace cachetrie::detail {

enum class Kind : std::uint8_t {
  kSNode,
  kANode,
  kENode,
  kLNode,
  kFNode,
  kFVNode,   // sentinel: frozen null slot
  kFSNode,   // sentinel: frozen SNode (lives in txn)
  kNoTxn,    // sentinel: idle txn
  kPending,  // sentinel: ENode result not yet computed
};

/// Every node type derives from NodeBase, so `new`/`delete` of any of them
/// goes through the node pool (mr/node_pool.hpp).
struct NodeBase : mr::PoolAllocated {
  Kind kind;

  NodeBase() = default;
  constexpr NodeBase(Kind k) noexcept : kind(k) {}
};

/// Process-wide sentinel singletons. They are compared by address and never
/// dereferenced beyond the kind tag, so sharing them across tries is safe.
struct Sentinels {
  static NodeBase* fv() noexcept {
    static NodeBase n{Kind::kFVNode};
    return &n;
  }
  static NodeBase* fs() noexcept {
    static NodeBase n{Kind::kFSNode};
    return &n;
  }
  static NodeBase* no_txn() noexcept {
    static NodeBase n{Kind::kNoTxn};
    return &n;
  }
  static NodeBase* pending() noexcept {
    static NodeBase n{Kind::kPending};
    return &n;
  }
};

/// Inner node: a header directly followed by `length` atomic slots (4 for
/// narrow, 16 for wide). Allocated at exact size so the footprint benches
/// reflect the paper's narrow/wide distinction.
struct ANode : NodeBase {
  std::uint32_t length;

  std::atomic<NodeBase*>* slots() noexcept {
    return reinterpret_cast<std::atomic<NodeBase*>*>(this + 1);
  }
  const std::atomic<NodeBase*>* slots() const noexcept {
    return reinterpret_cast<const std::atomic<NodeBase*>*>(this + 1);
  }

  static constexpr std::size_t alloc_size(std::uint32_t len) noexcept {
    return sizeof(ANode) + len * sizeof(std::atomic<NodeBase*>);
  }

  static ANode* make(std::uint32_t len) {
    assert(len == 4 || len == 16);
    void* raw = mr::NodePool::allocate(alloc_size(len));
    auto* a = new (raw) ANode{};
    a->kind = Kind::kANode;
    a->length = len;
    for (std::uint32_t i = 0; i < len; ++i) {
      std::construct_at(a->slots() + i, nullptr);
    }
    return a;
  }

  static void destroy(ANode* a) noexcept {
    mr::NodePool::deallocate(a, alloc_size(a->length));
  }
  /// Type-erased deleter for reclaimer retirement.
  static void destroy_erased(void* a) noexcept {
    destroy(static_cast<ANode*>(a));
  }
};

static_assert(sizeof(ANode) % alignof(std::atomic<NodeBase*>) == 0,
              "slot array must start aligned right after the ANode header");

/// Freeze wrapper around an ANode or LNode entry (paper §3.3).
struct FNode : NodeBase {
  NodeBase* frozen;

  static FNode* make(NodeBase* wrapped) {
    assert(wrapped->kind == Kind::kANode || wrapped->kind == Kind::kLNode);
    return new FNode{{Kind::kFNode}, wrapped};
  }
};

/// Announcement that `target` (at `parent->slots()[parentpos]`) is being
/// replaced: expanded narrow->wide when `compress` is false, or compressed
/// (freeze + revive-copy, possibly to null) when true. `result` holds the
/// replacement once computed; Sentinels::pending() until then. A null result
/// (empty after compression) is a valid final value, which is why a pending
/// sentinel is needed where the paper could use null.
struct ENode : NodeBase {
  ANode* parent;
  std::uint32_t parentpos;
  ANode* target;
  std::uint64_t hash;
  std::uint32_t level;
  bool compress;
  std::atomic<NodeBase*> result;

  static ENode* make(ANode* parent, std::uint32_t parentpos, ANode* target,
                     std::uint64_t hash, std::uint32_t level, bool compress) {
    auto* e = new ENode{{Kind::kENode}, parent,   parentpos, target,
                        hash,           level,    compress,  {}};
    e->result.store(Sentinels::pending(), std::memory_order_relaxed);
    return e;
  }
};

/// Leaf node: one key-value pair plus the txn field that coordinates every
/// modification of the pair (paper Fig. 1). txn states:
///   NoTxn    — live, no operation in progress
///   FSNode   — frozen by an expansion/compression; never changes again
///   nullptr  — removal announced; helpers commit null into the parent slot
///   other    — replacement node announced (SNode, ANode or LNode); helpers
///              commit it into the parent slot
///
/// `stamp` is the bounded-memory mode's last-use tick (DESIGN.md §3): set at
/// creation, refreshed with a relaxed store on every hit, read with a relaxed
/// load by eviction horizons. It is advisory — no protocol decision creates a
/// happens-before edge through it, so all its accesses stay relaxed. Unbounded
/// tries leave it 0. Copies made by the freeze/expand protocol carry the
/// source stamp so the copy remains the same logical entry.
template <typename K, typename V>
struct SNode : NodeBase {
  std::uint64_t hash;
  K key;
  V value;
  std::atomic<NodeBase*> txn;
  std::atomic<std::uint64_t> stamp;

  static SNode* make(std::uint64_t hash, const K& key, const V& value,
                     std::uint64_t stamp = 0) {
    auto* s = new SNode{{Kind::kSNode}, hash, key, value, {}, {}};
    s->txn.store(Sentinels::no_txn(), std::memory_order_relaxed);
    s->stamp.store(stamp, std::memory_order_relaxed);
    return s;
  }
};

/// Collision list node for keys whose 64-bit hashes are fully equal
/// (paper §3.2, "list nodes"). Chains are immutable: every update builds a
/// fresh chain and swaps it in with one CAS on the parent slot, so LNodes
/// need no txn field. Chains always hold >= 2 pairs (a 1-pair chain is
/// collapsed back into an SNode).
/// `stamp` is the pair's creation (or last rebuild) tick for the bounded
/// mode's TTL horizon. Chains are immutable, so chain hits do not refresh it —
/// a documented approximation: full-hash collisions are vanishingly rare
/// under the universal hash, and a rebuild re-stamps the surviving pairs'
/// creation stamps unchanged.
template <typename K, typename V>
struct LNode : NodeBase {
  std::uint64_t hash;
  LNode* next;
  K key;
  V value;
  std::uint64_t stamp;

  static LNode* make(std::uint64_t hash, const K& key, const V& value,
                     LNode* next, std::uint64_t stamp = 0) {
    return new LNode{{Kind::kLNode}, hash, next, key, value, stamp};
  }
};

}  // namespace cachetrie::detail
