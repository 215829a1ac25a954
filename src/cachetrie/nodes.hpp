// nodes.hpp — node types of the cache-trie (paper Fig. 1 and Table 1), and
// the tagged words that refer to them.
//
// | Name   | Description                                              |
// |--------|----------------------------------------------------------|
// | SNode  | leaf: one key-value pair + txn field                     |
// | ANode  | inner: a bare array of 4 (narrow) or 16 (wide) slot words|
// | ENode  | announces that an ANode is being expanded (or, in this   |
// |        | implementation, compressed — see `compress` flag)        |
// | LNode  | immutable list node for full 64-bit hash collisions      |
//
// The Scala original distinguishes node types with runtime class tests and
// freezes an entry by wrapping it in an FNode. Here no node carries a kind:
// every reference to a node is a tagged word (`Ref`) that keeps the node's
// kind, an ANode's width, and a "frozen" bit in the four low bits of its
// address, which are free because every node is 16 B aligned. Slot words,
// an SNode's `txn`, an ENode's `target` and `result`, the trie's root and
// the cache's entries are all such words, and `Ref` / `AtomicRef` are the
// one codec that makes, reads, stores and CASes them.
//
// | bits 2..0 | word                   | address | frozen (bit 3)          |
// |-----------|------------------------|---------|-------------------------|
// | 000       | empty slot / null txn  | 0       | the paper's FVNode      |
// | 001       | ANode, narrow (4)      | node    | a frozen entry          |
// | 011       | ANode, wide (16)       | node    | a frozen entry          |
// | 010       | SNode                  | node    | never: its txn freezes  |
// | 100       | LNode chain            | node    | a frozen entry          |
// | 110       | ENode                  | node    | never                   |
// | 101       | NoTxn (an idle txn)    | 0       | the paper's FSNode      |
// | 111       | Pending ENode result   | 0       | never                   |
//
// Bit 3 is the frozen bit. Freezing an entry sets it with one CAS on the
// slot word, so a freeze allocates nothing; since a node keeps its address
// while reachable (EBR), a frozen word never equals a live one.
//
// An ANode is therefore headerless: a narrow node is 32 B and a wide one
// 128 B, and a walk addresses the slot it needs from the word it followed,
// without loading anything from the node first.
//
// One node type still has a variable size: an ANode, whose length lives in
// the words that point to it, so make, destroy and alloc_size take it from
// there. A leaf and a chain link carry a stamp word only in a bounded trie:
// SNode<K, V, Stamped> and LNode<K, V, Stamped> take the trie's `Bounded`.
// An SNode also stores its key's hash only when rehashing the key would cost
// more than the word (kLeafStoresHash), so an SNode<u64, u64> is `key`,
// `value` and `txn`: 24 B unbounded, 32 B bounded with its stamp. Both take
// the pool's 32 B class, half a cache line, whose blocks never straddle one.
// An LNode<u64, u64> is 32 B unbounded (the 32 B class) and 40 B bounded
// (the 48 B class).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "mr/node_pool.hpp"

namespace cachetrie::detail {

struct ANode;
struct ENode;
class AtomicRef;
template <typename K, typename V, bool Stamped>
struct SNode;
template <typename K, typename V, bool Stamped>
struct LNode;

/// The raw bits of a trie word. Only Ref and AtomicRef look inside one.
using Word = std::uintptr_t;

/// A word's kind: bits 2..0 (see the table above).
enum class Tag : Word {
  kEmpty = 0b000,
  kNarrow = 0b001,
  kSNode = 0b010,
  kWide = 0b011,
  kLNode = 0b100,
  kNoTxn = 0b101,
  kENode = 0b110,
  kPending = 0b111,
};

static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 16 &&
                  mr::NodePool::kGranule >= 16,
              "trie words keep a node's tag in its four low address bits");

// [codec] -- the one place that encodes and decodes a trie word.
/// A tagged reference to a node, or a sentinel. A plain value: it fits one
/// register, and two refs are equal exactly when their words are.
class Ref {
 public:
  /// The empty slot (and the null txn of an announced removal).
  constexpr Ref() noexcept = default;

  static Ref to(const ANode* a, std::uint32_t length) noexcept {
    assert(length == 4 || length == 16);
    return tagged(a, length == 16 ? Tag::kWide : Tag::kNarrow);
  }
  template <typename K, typename V, bool Stamped>
  static Ref to(const SNode<K, V, Stamped>* s) noexcept {
    return tagged(s, Tag::kSNode);
  }
  template <typename K, typename V, bool Stamped>
  static Ref to(const LNode<K, V, Stamped>* l) noexcept {
    return tagged(l, Tag::kLNode);
  }
  static Ref to(const ENode* e) noexcept { return tagged(e, Tag::kENode); }

  /// An SNode's txn when no operation is in progress on it.
  static constexpr Ref no_txn() noexcept {
    return Ref(static_cast<Word>(Tag::kNoTxn));
  }
  /// An SNode's txn once a freeze reached it (the paper's FSNode); never
  /// changes again.
  static constexpr Ref frozen_txn() noexcept { return no_txn().as_frozen(); }
  /// An ENode's result before its replacement is built.
  static constexpr Ref pending() noexcept {
    return Ref(static_cast<Word>(Tag::kPending));
  }

  /// The raw word, for traces and for tests that compare encodings.
  constexpr Word word() const noexcept { return w_; }
  constexpr Tag tag() const noexcept {
    return static_cast<Tag>(w_ & kKindMask);
  }
  /// True only for the unfrozen empty slot (or a null txn / result).
  constexpr bool null() const noexcept { return w_ == 0; }
  /// True for an empty slot, frozen or not.
  constexpr bool empty() const noexcept { return (w_ & ~kFrozenBit) == 0; }
  constexpr bool is_frozen() const noexcept { return (w_ & kFrozenBit) != 0; }
  /// This word with the frozen bit set / cleared.
  constexpr Ref as_frozen() const noexcept { return Ref(w_ | kFrozenBit); }
  constexpr Ref thawed() const noexcept { return Ref(w_ & ~kFrozenBit); }

  /// True for a narrow or a wide ANode, frozen or not.
  constexpr bool is_anode() const noexcept {
    return (w_ & 0b101) == static_cast<Word>(Tag::kNarrow);
  }
  /// An ANode word's slot count, from its tag: 4 << 0 or 4 << 2.
  constexpr std::uint32_t length() const noexcept {
    return std::uint32_t{4} << (w_ & 0b010);
  }

  /// The node the word points to, without its tag.
  void* node() const noexcept {
    return reinterpret_cast<void*>(w_ & ~kTagMask);
  }
  template <typename N>
  N* as() const noexcept {
    return static_cast<N*>(node());
  }
  ANode* anode() const noexcept { return as<ANode>(); }
  /// Slot `i` of an ANode word's node.
  AtomicRef& slot_at(std::uint32_t i) const noexcept;
  /// The slot of an ANode word's node (at trie level `lev`) that hash `h`
  /// selects, addressed from the tag alone.
  AtomicRef& slot(std::uint64_t h, std::uint32_t lev) const noexcept {
    return slot_at(static_cast<std::uint32_t>((h >> lev) & (length() - 1)));
  }

  friend constexpr bool operator==(Ref, Ref) noexcept = default;

 private:
  friend class AtomicRef;
  static constexpr Word kKindMask = 0b0111, kFrozenBit = 0b1000,
                        kTagMask = 0b1111;

  constexpr explicit Ref(Word w) noexcept : w_(w) {}
  static Ref tagged(const void* n, Tag t) noexcept {
    const auto w = reinterpret_cast<Word>(n);
    assert(n != nullptr && (w & kTagMask) == 0 && "nodes are 16 B aligned");
    return Ref(w | static_cast<Word>(t));
  }

  Word w_ = 0;
};

// [codec] -- the one atomic trie word: loads, stores and CASes whole words.
/// An atomic Ref: an ANode slot, an SNode's txn, an ENode's result, or a
/// cache entry. Every order is the caller's, spelled at the call site.
class AtomicRef {
 public:
  constexpr AtomicRef() noexcept = default;
  constexpr explicit AtomicRef(Ref r) noexcept : w_(r.w_) {}

  Ref load(std::memory_order order) const noexcept {
    return Ref(w_.load(order));
  }
  void store(Ref r, std::memory_order order) noexcept {
    w_.store(r.w_, order);
  }
  bool compare_exchange_strong(Ref& expected, Ref desired,
                               std::memory_order success,
                               std::memory_order failure) noexcept {
    return w_.compare_exchange_strong(expected.w_, desired.w_, success,
                                      failure);
  }

 private:
  std::atomic<Word> w_{0};
  static_assert(std::atomic<Word>::is_always_lock_free);
};

static_assert(sizeof(AtomicRef) == sizeof(Word));

/// Inner node: nothing but `length` slot words (4 for narrow, 16 for wide).
/// The length is not stored: it is in the tag of every word that points to
/// the node, so every function that needs it takes it from there.
struct ANode {
  AtomicRef* slots() noexcept { return reinterpret_cast<AtomicRef*>(this); }
  const AtomicRef* slots() const noexcept {
    return reinterpret_cast<const AtomicRef*>(this);
  }

  static constexpr std::size_t alloc_size(std::uint32_t length) noexcept {
    return length * sizeof(AtomicRef);
  }

  /// A fresh node with every slot empty, as the word that refers to it.
  static Ref make(std::uint32_t length) {
    assert(length == 4 || length == 16);
    void* raw = mr::NodePool::allocate(alloc_size(length));
    auto* slots = static_cast<AtomicRef*>(raw);
    for (std::uint32_t i = 0; i < length; ++i) std::construct_at(slots + i);
    return Ref::to(static_cast<ANode*>(raw), length);
  }

  static void destroy(Ref a) noexcept {
    mr::NodePool::deallocate(a.anode(), alloc_size(a.length()));
  }
  /// Type-erased deleter for reclaimer retirement of a node of `Length`.
  template <std::uint32_t Length>
  static void destroy_erased(void* a) noexcept {
    mr::NodePool::deallocate(a, alloc_size(Length));
  }
};

static_assert(ANode::alloc_size(4) == 32 && ANode::alloc_size(16) == 128,
              "a narrow node is half a line, a wide one two lines");

inline AtomicRef& Ref::slot_at(std::uint32_t i) const noexcept {
  assert(is_anode() && i < length());
  return anode()->slots()[i];
}

/// Announcement that `target` (at `parent->slots()[parentpos]`) is being
/// replaced: expanded narrow->wide when `compress` is false, or compressed
/// (freeze + revive-copy, possibly to null) when true. `result` holds the
/// replacement once computed; Ref::pending() until then. A null result
/// (empty after compression) is a valid final value, which is why a pending
/// sentinel is needed where the paper could use null.
struct ENode : mr::PoolAllocated {
  ANode* parent;
  Ref target;
  std::uint64_t hash;
  AtomicRef result;
  std::uint32_t parentpos;
  std::uint32_t level;
  bool compress;

  static ENode* make(ANode* parent, std::uint32_t parentpos, Ref target,
                     std::uint64_t hash, std::uint32_t level, bool compress) {
    return new ENode{{},       parent,    target, hash,
                     AtomicRef(Ref::pending()), parentpos, level,
                     compress};
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

/// The SNode header: the hash when kLeafStoresHash says so, else nothing. A
/// hash-free leaf has no `hash` member at all, so code that reads one does
/// not compile.
template <bool StoresHash>
struct LeafHead : mr::PoolAllocated {};
template <>
struct LeafHead<true> : mr::PoolAllocated {
  std::uint64_t hash;
};

/// The stamp an unbounded trie's leaves and links do not have: it drops the
/// tick it is given and reads as 0, and [[no_unique_address]] makes it take
/// no bytes.
struct NoStamp {
  constexpr NoStamp(std::uint64_t /*tick*/ = 0) noexcept {}
  constexpr operator std::uint64_t() const noexcept { return 0; }
};

/// Leaf node: one key-value pair plus the txn field that coordinates every
/// modification of the pair (paper Fig. 1). txn states:
///   no_txn()     — live, no operation in progress
///   frozen_txn() — frozen by an expansion/compression; never changes again
///   null         — removal announced; helpers commit null into the slot
///   other        — replacement announced (an SNode, ANode or LNode word);
///                  helpers commit that word into the parent slot
///
/// `Stamped` (a bounded trie's leaves, DESIGN.md §3): one more word after
/// the txn holds the pair's last-use tick, set at creation, refreshed with a
/// relaxed store on every hit and read with a relaxed load by eviction
/// horizons. It is advisory — no protocol decision creates a happens-before
/// edge through it, so all its accesses stay relaxed. Copies made by the
/// freeze/expand protocol carry the source stamp so the copy remains the
/// same logical entry.
template <typename K, typename V, bool Stamped = false>
struct SNode : LeafHead<kLeafStoresHash<K>> {
  K key;
  V value;
  AtomicRef txn;
  [[no_unique_address]] std::conditional_t<Stamped, std::atomic<std::uint64_t>,
                                           NoStamp> stamp;

  /// A live leaf (txn NoTxn). `hash` is dropped when the leaf stores none,
  /// `stamp` unless the leaf is stamped.
  static SNode* make(std::uint64_t hash, const K& key, const V& value,
                     std::uint64_t stamp = 0) {
    auto* s = new SNode(key, value, stamp);
    if constexpr (kLeafStoresHash<K>) s->hash = hash;
    return s;
  }
  /// Type-erased deleter for reclaimer retirement, which books a leaf at
  /// its pool class, as the trie's ledger does.
  static void destroy_erased(void* s) noexcept {
    static_cast<SNode*>(s)->~SNode();
    mr::NodePool::deallocate(s, sizeof(SNode));
  }

 private:
  SNode(const K& k, const V& v, std::uint64_t st)
      : key(k), value(v), txn(Ref::no_txn()), stamp(st) {}
};

/// Collision list node for keys whose 64-bit hashes are fully equal
/// (paper §3.2, "list nodes"). Chains are immutable: every update builds a
/// fresh chain and swaps it in with one CAS on the parent slot, so LNodes
/// need no txn field. Chains always hold >= 2 pairs (a 1-pair chain is
/// collapsed back into an SNode).
/// `Stamped` (a bounded trie's links): `stamp` is the pair's creation (or
/// last rebuild) tick for the bounded mode's TTL horizon. Chains are
/// immutable, so chain hits do not refresh it — a documented approximation:
/// full-hash collisions are vanishingly rare under the universal hash, and a
/// rebuild re-stamps the surviving pairs' creation stamps unchanged.
template <typename K, typename V, bool Stamped = false>
struct LNode : mr::PoolAllocated {
  std::uint64_t hash;
  LNode* next;
  K key;
  V value;
  [[no_unique_address]] std::conditional_t<Stamped, std::uint64_t, NoStamp>
      stamp;

  /// `stamp` is dropped unless the link is stamped.
  static LNode* make(std::uint64_t hash, const K& key, const V& value,
                     LNode* next, std::uint64_t stamp = 0) {
    return new LNode{{}, hash, next, key, value, stamp};
  }
};

}  // namespace cachetrie::detail
