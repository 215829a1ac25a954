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

#include "cachetrie/nodes.hpp"
#include "mr/node_pool.hpp"
#include "util/padded.hpp"

namespace cachetrie::detail {

struct CacheArray {
  std::uint32_t level;       // trie level covered (bits of hash consumed)
  std::uint32_t miss_slots;  // padded per-thread miss counters
  CacheArray* parent;        // next shallower cache level (may be null)

  std::size_t entry_count() const noexcept { return std::size_t{1} << level; }

  util::PaddedCounter* misses() noexcept {
    return reinterpret_cast<util::PaddedCounter*>(
        reinterpret_cast<char*>(this) + misses_offset());
  }

  std::atomic<NodeBase*>* entries() noexcept {
    return reinterpret_cast<std::atomic<NodeBase*>*>(
        reinterpret_cast<char*>(this) + entries_offset(miss_slots));
  }
  const std::atomic<NodeBase*>* entries() const noexcept {
    return reinterpret_cast<const std::atomic<NodeBase*>*>(
        reinterpret_cast<const char*>(this) + entries_offset(miss_slots));
  }

  std::size_t index_of(std::uint64_t hash) const noexcept {
    return hash & (entry_count() - 1);
  }

  static std::size_t misses_offset() noexcept {
    // Counters are cache-line padded; start them on a line boundary.
    return (sizeof(CacheArray) + util::kCacheLineSize - 1) &
           ~(util::kCacheLineSize - 1);
  }
  static std::size_t entries_offset(std::uint32_t miss_slots) noexcept {
    return misses_offset() + miss_slots * sizeof(util::PaddedCounter);
  }
  static std::size_t alloc_size(std::uint32_t level,
                                std::uint32_t miss_slots) noexcept {
    return entries_offset(miss_slots) +
           (std::size_t{1} << level) * sizeof(std::atomic<NodeBase*>);
  }

  static CacheArray* make(std::uint32_t level, std::uint32_t miss_slots,
                          CacheArray* parent) {
    assert(level >= 4 && level <= 30 && level % 4 == 0);
    // Arrays of 2 MiB or more land on their own huge-page mapping.
    void* raw = mr::NodePool::allocate_array(alloc_size(level, miss_slots),
                                             util::kCacheLineSize);
    auto* c = new (raw) CacheArray{level, miss_slots, parent};
    for (std::uint32_t i = 0; i < miss_slots; ++i) {
      std::construct_at(c->misses() + i);
    }
    const std::size_t n = c->entry_count();
    for (std::size_t i = 0; i < n; ++i) {
      std::construct_at(c->entries() + i, nullptr);
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
    return alloc_size(level, miss_slots);
  }
};

}  // namespace cachetrie::detail
