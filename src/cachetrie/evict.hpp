// evict.hpp — the bounded-memory mode's map (DESIGN.md §3): the bounded
// trie.
//
// A bounded trie is CacheTrie<K, V, Hash, Reclaimer, /*Bounded=*/true>,
// named BoundedCacheTrie below: every pair carries a last-use stamp, a pair
// older than the TTL horizon is semantically absent and lazily evicted, and
// under ceiling pressure every writer runs a short backpressure scan against
// an adaptive LRU window. evict_policy.hpp holds the BoundedConfig it is
// built from, and decides when a pair may be evicted. The trie's byte ledger
// charges a node its pool class (NodePool::class_bytes), the block the pool
// hands out for it: a 32 B bounded leaf books 32 B. fig14 measures its miss
// rate against exact LRU and static top-C at the capacity it held.
#pragma once

#include "cachetrie/cache_trie.hpp"
#include "cachetrie/evict_policy.hpp"
#include "util/hashing.hpp"

namespace cachetrie::evict {

/// The bounded trie. `underlying()` survives because benchmark/ (a frozen
/// contract) reads the trie through it.
template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class BoundedCacheTrie
    : public CacheTrie<K, V, Hash, Reclaimer, /*Bounded=*/true> {
 public:
  using Trie = CacheTrie<K, V, Hash, Reclaimer, /*Bounded=*/true>;
  using Trie::Trie;

  Trie& underlying() { return *this; }
  const Trie& underlying() const { return *this; }
};

}  // namespace cachetrie::evict
