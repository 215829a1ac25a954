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
//
// Two node types have a variable size, fixed when the node is made and
// recorded in its header, so the trie's lifecycle code sizes, retires and
// frees every instance through one `alloc_size`/`destroy` pair:
//   * an ANode's slot array trails its header (`length`);
//   * an SNode's stamp word trails its pair (`stamped`), and only a bounded
//     trie allocates it.
// An SNode also stores its key's hash only when rehashing the key would cost
// more than the word (kLeafStoresHash), so an unbounded SNode<u64, u64> is
// `kind`, `key`, `value` and `txn`: 32 B, half a cache line, in a pool class
// whose blocks never straddle a line.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

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

/// True when an SNode stores its key's hash. A key that is trivially
/// copyable and fits a word is rehashed wherever a resident leaf's hash is
/// needed (the trie's `hash_of`), which costs less than carrying 8 B per
/// pair; lookups and writers compare such keys directly, since equal keys
/// have equal hashes. Costlier keys (`std::string`, wide structs) keep the
/// field as a cheap first filter and to avoid rehashing them.
template <typename K>
inline constexpr bool kLeafStoresHash =
    !(std::is_trivially_copyable_v<K> && sizeof(K) <= sizeof(std::uint64_t));

/// The SNode header: the kind tag, the leaf's shape, and the hash when
/// kLeafStoresHash says so. A hash-free leaf has no `hash` member at all, so
/// code that reads one does not compile. `stamped` sits in the padding after
/// `kind`, so it costs no space.
template <bool StoresHash>
struct LeafHead : NodeBase {
  bool stamped;  // a stamp word trails the node
};
template <>
struct LeafHead<true> : NodeBase {
  bool stamped;
  std::uint64_t hash;
};

/// Leaf node: one key-value pair plus the txn field that coordinates every
/// modification of the pair (paper Fig. 1). txn states:
///   NoTxn    — live, no operation in progress
///   FSNode   — frozen by an expansion/compression; never changes again
///   nullptr  — removal announced; helpers commit null into the parent slot
///   other    — replacement node announced (SNode, ANode or LNode); helpers
///              commit it into the parent slot
///
/// A bounded trie (DESIGN.md §3) makes every leaf `stamped`: one word after
/// the node holds the pair's last-use tick, set at creation, refreshed with a
/// relaxed store on every hit and read with a relaxed load by eviction
/// horizons. It is advisory — no protocol decision creates a happens-before
/// edge through it, so all its accesses stay relaxed. An unbounded trie
/// allocates no stamp word and never calls stamp(). Copies made by the
/// freeze/expand protocol carry the source stamp so the copy remains the
/// same logical entry.
template <typename K, typename V>
struct SNode : LeafHead<kLeafStoresHash<K>> {
  K key;
  V value;
  std::atomic<NodeBase*> txn;

  /// Bytes of a leaf with (`stamped`) or without its trailing stamp word.
  static constexpr std::size_t alloc_size(bool stamped) noexcept {
    return sizeof(SNode) + (stamped ? sizeof(std::atomic<std::uint64_t>) : 0);
  }

  /// The trailing stamp word; only a stamped leaf has one.
  std::atomic<std::uint64_t>& stamp() noexcept {
    assert(this->stamped);
    return *reinterpret_cast<std::atomic<std::uint64_t>*>(this + 1);
  }
  const std::atomic<std::uint64_t>& stamp() const noexcept {
    assert(this->stamped);
    return *reinterpret_cast<const std::atomic<std::uint64_t>*>(this + 1);
  }

  /// A live leaf (txn NoTxn). `hash` is dropped when the leaf stores none;
  /// `stamp` is written only into a stamped leaf.
  static SNode* make(bool stamped, std::uint64_t hash, const K& key,
                     const V& value, std::uint64_t stamp) {
    static_assert(alignof(SNode) >= alignof(std::atomic<std::uint64_t>),
                  "the stamp word must start aligned right after the SNode");
    void* raw = mr::NodePool::allocate(alloc_size(stamped), alignof(SNode));
    auto* s = new (raw) SNode(key, value);
    s->kind = Kind::kSNode;
    s->stamped = stamped;
    if constexpr (kLeafStoresHash<K>) s->hash = hash;
    if (stamped) {
      std::construct_at(reinterpret_cast<std::atomic<std::uint64_t>*>(s + 1),
                        stamp);
    }
    return s;
  }

  static void destroy(SNode* s) noexcept {
    const std::size_t bytes = alloc_size(s->stamped);
    s->~SNode();
    mr::NodePool::deallocate(s, bytes, alignof(SNode));
  }
  /// Type-erased deleter for reclaimer retirement.
  static void destroy_erased(void* s) noexcept {
    destroy(static_cast<SNode*>(s));
  }

 private:
  SNode(const K& k, const V& v)
      : key(k), value(v), txn(Sentinels::no_txn()) {}
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
