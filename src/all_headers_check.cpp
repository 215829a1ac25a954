// Strict-warning compile check: pull every public header into one TU so
// the src/-only warning set (-Wshadow -Wextra-semi -Wnon-virtual-dtor,
// plus -Wthread-safety under clang) sweeps header-only code that the
// compiled mr/ library never instantiates. Test and bench targets keep
// the project-wide -Wall -Wextra only, so gtest/benchmark macros do not
// have to satisfy the stricter set.
#include "cachetrie/cache.hpp"
#include "cachetrie/cache_trie.hpp"
#include "cachetrie/config.hpp"
#include "cachetrie/evict.hpp"
#include "cachetrie/evict_policy.hpp"
#include "cachetrie/nodes.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/thread_team.hpp"
#include "harness/workload.hpp"
#include "mr/epoch.hpp"
#include "mr/leak.hpp"
#include "mr/node_pool.hpp"
#include "mr/reclaimer.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "obs/tsc.hpp"
#include "skiplist/skiplist.hpp"
#include "testkit/chaos.hpp"
#include "testkit/driver.hpp"
#include "testkit/fault.hpp"
#include "testkit/history.hpp"
#include "testkit/lin_check.hpp"
#include "testkit/watchdog.hpp"
#include "util/bits.hpp"
#include "util/hashing.hpp"
#include "util/kv_map.hpp"
#include "util/ordering_contracts.hpp"
#include "util/padded.hpp"
#include "util/record_list.hpp"
#include "util/rng.hpp"
#include "util/spinwait.hpp"
#include "util/thread_id.hpp"

#include <string>
#include <type_traits>
#include <utility>

namespace {

// The capability matrix the lin-check mix and the server dispatch rely on:
// a renamed method would otherwise silently drop an op from the mix.
namespace util = cachetrie::util;
using U64 = std::uint64_t;
using CacheTrieU64 = cachetrie::CacheTrie<U64, U64>;
using ChmU64 = cachetrie::chm::ConcurrentHashMap<U64, U64>;
using BoundedChmU64 = cachetrie::evict::BoundedChm<U64, U64>;
using CtrieU64 = cachetrie::ctrie::Ctrie<U64, U64>;
using SkipListU64 = cachetrie::csl::ConcurrentSkipList<U64, U64>;

constexpr unsigned kPutIfAbsent = 1;
constexpr unsigned kReplace = 2;
constexpr unsigned kReplaceIfEquals = 4;
constexpr unsigned kRemoveIfEquals = 8;

template <class M>
constexpr unsigned caps() {
  return (util::HasPutIfAbsent<M> ? kPutIfAbsent : 0u) |
         (util::HasReplace<M> ? kReplace : 0u) |
         (util::HasReplaceIfEquals<M> ? kReplaceIfEquals : 0u) |
         (util::HasRemoveIfEquals<M> ? kRemoveIfEquals : 0u);
}

constexpr unsigned kAllCaps =
    kPutIfAbsent | kReplace | kReplaceIfEquals | kRemoveIfEquals;

static_assert(util::KvMap<CacheTrieU64> && util::KvMap<ChmU64> &&
              util::KvMap<BoundedChmU64> && util::KvMap<CtrieU64> &&
              util::KvMap<SkipListU64>);
static_assert(caps<CacheTrieU64>() == kAllCaps);
static_assert(caps<ChmU64>() == (kPutIfAbsent | kRemoveIfEquals));
static_assert(caps<BoundedChmU64>() == (kPutIfAbsent | kRemoveIfEquals));
static_assert(caps<CtrieU64>() == kPutIfAbsent);
static_assert(caps<SkipListU64>() == kPutIfAbsent);

// benchmark/ is a frozen contract that names the bounded trie
// evict::BoundedCacheTrie and reads map->underlying(); this row breaks the
// build before the benchmark's own build would.
using BoundedTrieU64 = cachetrie::evict::BoundedCacheTrie<U64, U64>;
static_assert(
    caps<BoundedTrieU64>() == kAllCaps &&
    std::is_same_v<decltype(std::declval<BoundedTrieU64&>().underlying()),
                   cachetrie::CacheTrie<U64, U64, util::DefaultHash<U64>,
                                        cachetrie::mr::EpochReclaimer,
                                        /*Bounded=*/true>&>);

// Boundedness is the trie's type: the unbounded trie has no bounded-mode
// surface, carries no eviction state and refuses a BoundedConfig rather
// than drop its fields, and the serving layer reads the ceiling as a
// capability.
template <class M>
concept HasBoundedSurface = requires(const M& m) { m.resident_bytes(); } ||
                            requires(M& m, U64 k) { m.evict(k); } ||
                            util::HasCeiling<M>;
static_assert(!HasBoundedSurface<CacheTrieU64>);
static_assert(util::HasCeiling<BoundedTrieU64> &&
              !util::HasCeiling<CacheTrieU64>);
static_assert(sizeof(CacheTrieU64) < sizeof(BoundedTrieU64) &&
              !std::is_constructible_v<CacheTrieU64,
                                       cachetrie::evict::BoundedConfig>);

// Every node the instantiated maps allocate fits a pool size class, so none
// silently falls back to ::operator new. The ctrie's CNodes with 31 or 32
// branches (272 B) are the one exception by design: see DESIGN.md "Node
// memory".
template <class T>
constexpr bool fits_pool_class() {
  return sizeof(T) <= cachetrie::mr::NodePool::kMaxBytes &&
         alignof(T) <= cachetrie::mr::NodePool::kGranule;
}
namespace ct = cachetrie::detail;
namespace ctr = cachetrie::ctrie::detail;
static_assert(fits_pool_class<ct::SNode<U64, U64>>() &&
              fits_pool_class<ct::SNode<U64, U64, /*Stamped=*/true>>() &&
              fits_pool_class<ct::LNode<U64, U64>>() &&
              fits_pool_class<ct::LNode<U64, U64, /*Stamped=*/true>>() &&
              fits_pool_class<ct::ENode>());
static_assert(ct::ANode::alloc_size(16) <= cachetrie::mr::NodePool::kMaxBytes);

// A bounded trie's leaf is exactly the pool's 32 B class (key, value, txn
// and the stamp word) and an unbounded one is those without the stamp, so
// a word added to the leaf fails this build in every configuration. The
// ledger books NodePool::class_bytes of each, which must be the block
// allocate() serves it: a block of class_of(bytes), (class_of(bytes) + 1)
// granules.
using LeafU64 = ct::SNode<U64, U64>;
using StampedLeafU64 = ct::SNode<U64, U64, /*Stamped=*/true>;
using cachetrie::mr::NodePool;
constexpr std::size_t served_block(std::size_t bytes) {
  return (NodePool::class_of(bytes) + 1) * NodePool::kGranule;
}
constexpr std::size_t kBoundedLeaf = sizeof(StampedLeafU64);
constexpr std::size_t kUnboundedLeaf = sizeof(LeafU64);
static_assert(kBoundedLeaf == 32 && kUnboundedLeaf == 24);
static_assert(NodePool::class_bytes(kBoundedLeaf, alignof(StampedLeafU64)) ==
                  served_block(kBoundedLeaf) &&
              NodePool::class_bytes(kUnboundedLeaf, alignof(LeafU64)) ==
                  served_block(kUnboundedLeaf) &&
              served_block(kBoundedLeaf) == 32 &&
              served_block(kUnboundedLeaf) == 32);
static_assert(fits_pool_class<ctr::SNode<U64, U64>>() &&
              fits_pool_class<ctr::LNode<U64, U64>>() &&
              fits_pool_class<ctr::TNode<U64, U64>>() &&
              fits_pool_class<ctr::INode>() && fits_pool_class<ctr::CNode>());
static_assert(ctr::CNode::alloc_size(30) <= cachetrie::mr::NodePool::kMaxBytes);
static_assert(ChmU64::kNodeBytes <= cachetrie::mr::NodePool::kMaxBytes);
// The hash map's node is the JDK's hash, key, value and next; only the
// bounded wrapper's map adds the stamp word.
static_assert(ChmU64::kNodeBytes == 32 && BoundedChmU64::Map::kNodeBytes == 40);
static_assert(SkipListU64::kMaxNodeBytes <=
              cachetrie::mr::NodePool::kMaxBytes);

// Instantiate the main templates so their member functions are actually
// compiled under the strict flags, not just parsed.
template <class Map>
int touch() {
  Map m;
  m.insert(1, 2);
  int out = 0;
  if (auto v = m.lookup(1)) out += *v;
  m.remove(1);
  return out;
}

}  // namespace

// Compile every member of the serving-layer templates under the strict
// flags (nothing is constructed — no sockets open in this check).
template class cachetrie::net::Shard<
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t>>;
template class cachetrie::net::Server<
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t>>;

int cachetrie_all_headers_check() {
  int out = 0;
  out += touch<cachetrie::CacheTrie<int, int>>();
  out += touch<cachetrie::evict::BoundedCacheTrie<int, int>>();
  out += touch<cachetrie::ctrie::Ctrie<int, int>>();
  out += touch<cachetrie::chm::ConcurrentHashMap<int, int>>();
  out += touch<cachetrie::csl::ConcurrentSkipList<int, int>>();
  (void)cachetrie::util::kOrderingEdgeCount;
  return out;
}
