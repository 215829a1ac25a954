// cache.hpp — the quiescently consistent cache (paper §3.4-3.6).
//
// The cache is a singly-linked list of per-level arrays, deepest level
// first. An array covering trie level L has 2^L entries, indexed by the low
// L bits of a key's hash; each entry is empty or refers to a node at level L
// (an ANode, or an SNode whose parent ANode sits at level L-4).
//
// The paper stores a CacheNode header in entry 0 and offsets data entries by
// one; here the header fields live in the struct itself and the entry array
// follows, which keeps indexing branch-free without changing semantics.
//
// Entries are the trie's own tagged words (detail::Ref, nodes.hpp): the word
// carries the node's kind and, for an ANode, its width, so a lookup that
// loads an ANode word addresses the slot it needs from the word alone. The
// tag travels in the same store as the pointer, so it cannot disagree with
// the node it points to. A cache word is never frozen: only live nodes are
// stored, and the fast paths re-check liveness in the trie itself.
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
  std::uint32_t level;  // trie level covered (bits of hash consumed)
  CacheArray* parent;   // next shallower cache level (may be null)

  std::size_t entry_count() const noexcept { return std::size_t{1} << level; }

  util::PaddedCounter* misses() noexcept {
    return reinterpret_cast<util::PaddedCounter*>(
        reinterpret_cast<char*>(this) + misses_offset());
  }

  AtomicRef& entry(std::size_t i) noexcept { return entries()[i]; }
  const AtomicRef& entry(std::size_t i) const noexcept {
    return entries()[i];
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
           (std::size_t{1} << level) * sizeof(AtomicRef);
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
      std::construct_at(c->entries() + i);
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
  AtomicRef* entries() noexcept {
    return reinterpret_cast<AtomicRef*>(reinterpret_cast<char*>(this) +
                                        entries_offset());
  }
  const AtomicRef* entries() const noexcept {
    return reinterpret_cast<const AtomicRef*>(
        reinterpret_cast<const char*>(this) + entries_offset());
  }
};

}  // namespace cachetrie::detail
