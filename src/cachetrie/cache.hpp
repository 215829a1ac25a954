// cache.hpp — the quiescently consistent cache (paper §3.4-3.6).
//
// The cache is a singly-linked list of per-level arrays, deepest level
// first. An array covering trie level L has 2^L entries, indexed by the low
// L bits of a key's hash; each entry is null or points to a node at level L
// (an ANode, or an SNode whose parent ANode sits at level L-4).
//
// The paper stores a CacheNode header in entry 0 and offsets data entries by
// one; here the header fields live in the struct itself and the entry array
// follows, which keeps indexing branch-free without changing semantics.
//
// Shape tags: an entry is a word, not a bare pointer. Every node comes from
// the node pool (or, under ASan, from malloc) 16 B-aligned, so the
// two low bits of a node's address are free; the word keeps the node's
// shape there: 00 for anything but an ANode, 01 for a narrow ANode (4
// slots), 11 for a wide one (16 slots). A lookup that loads an ANode word
// addresses the slot it needs from the word alone, without loading the
// node's header. An ANode's length never changes once it is made, and the
// tag travels in the same store as the pointer, so the tag cannot disagree
// with the node it points to. Only encode() makes a word and only decode()
// reads one; the entry array itself is private.
//
// Consistency model: entries are written with plain atomic stores (no CAS —
// §3.5: "A CAS is not necessary, since the cache need not be entirely
// consistent"). Correctness never depends on a cache entry being current;
// the fast paths re-validate liveness through the txn/freeze protocol before
// trusting anything they read.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>

#include "cachetrie/config.hpp"
#include "cachetrie/nodes.hpp"
#include "mr/node_pool.hpp"
#include "util/padded.hpp"

namespace cachetrie::detail {

struct CacheArray {
  /// One cache entry: a node pointer with the node's shape in its low bits.
  using Word = std::uintptr_t;

  /// A decoded entry. `anode_length` is the slot count (4 or 16) when the
  /// word points to an ANode, read from the tag; 0 otherwise, and the
  /// caller reads the node's kind when it needs it.
  struct Cachee {
    NodeBase* node;
    std::uint32_t anode_length;
  };

  std::uint32_t level;  // trie level covered (bits of hash consumed)
  CacheArray* parent;   // next shallower cache level (may be null)

  std::size_t entry_count() const noexcept { return std::size_t{1} << level; }

  util::PaddedCounter* misses() noexcept {
    return reinterpret_cast<util::PaddedCounter*>(
        reinterpret_cast<char*>(this) + misses_offset());
  }

  std::atomic<Word>& entry(std::size_t i) noexcept { return entries()[i]; }
  const std::atomic<Word>& entry(std::size_t i) const noexcept {
    return entries()[i];
  }

  /// The word for `n` (null for nullptr). Reads an ANode's length, which
  /// never changes once the node is made.
  static Word encode(const NodeBase* n) noexcept {
    const auto w = reinterpret_cast<Word>(n);
    assert((w & kShapeMask) == 0 && "nodes are at least 4 B-aligned");
    if (n == nullptr || n->kind != Kind::kANode) return w;
    return w | (static_cast<const ANode*>(n)->length == 16 ? kWide : kNarrow);
  }

  // [read-path]
  static Cachee decode(Word w) noexcept {
    const Word shape = w & kShapeMask;
    // 01 -> 1 << 2 == 4 slots, 11 -> 1 << 4 == 16 slots, 00 -> 0.
    return {reinterpret_cast<NodeBase*>(w & ~kShapeMask),
            static_cast<std::uint32_t>((shape & 1) << (2 + (shape & 2)))};
  }

  std::size_t index_of(std::uint64_t hash) const noexcept {
    return hash & (entry_count() - 1);
  }

  static constexpr std::size_t misses_offset() noexcept {
    // Counters are cache-line padded; start them on a line boundary.
    return (sizeof(CacheArray) + util::kCacheLineSize - 1) &
           ~(util::kCacheLineSize - 1);
  }
  static constexpr std::size_t entries_offset() noexcept {
    return misses_offset() + kMissSlots * sizeof(util::PaddedCounter);
  }
  static std::size_t alloc_size(std::uint32_t level) noexcept {
    return entries_offset() +
           (std::size_t{1} << level) * sizeof(std::atomic<Word>);
  }

  static CacheArray* make(std::uint32_t level, CacheArray* parent) {
    assert(level >= 4 && level <= 30 && level % 4 == 0);
    // Arrays of 2 MiB or more land on their own huge-page mapping.
    void* raw = mr::NodePool::allocate_array(alloc_size(level),
                                             util::kCacheLineSize);
    auto* c = new (raw) CacheArray{level, parent};
    for (std::uint32_t i = 0; i < kMissSlots; ++i) {
      std::construct_at(c->misses() + i);
    }
    const std::size_t n = c->entry_count();
    for (std::size_t i = 0; i < n; ++i) {
      std::construct_at(c->entries() + i, encode(nullptr));
    }
    return c;
  }

  static void destroy(CacheArray* c) noexcept {
    mr::NodePool::deallocate_array(c, c->footprint_bytes(),
                                   util::kCacheLineSize);
  }

  /// Type-erased deleter for reclaimer retirement.
  static void destroy_erased(void* c) {
    destroy(static_cast<CacheArray*>(c));
  }

  std::size_t footprint_bytes() const noexcept {
    return alloc_size(level);
  }

 private:
  static constexpr Word kShapeMask = 0b11, kNarrow = 0b01, kWide = 0b11;

  std::atomic<Word>* entries() noexcept {
    return reinterpret_cast<std::atomic<Word>*>(
        reinterpret_cast<char*>(this) + entries_offset());
  }
  const std::atomic<Word>* entries() const noexcept {
    return reinterpret_cast<const std::atomic<Word>*>(
        reinterpret_cast<const char*>(this) + entries_offset());
  }
};

static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 4 &&
                  mr::NodePool::kGranule >= 4,
              "cache words keep a node's shape in its two low address bits");

}  // namespace cachetrie::detail
