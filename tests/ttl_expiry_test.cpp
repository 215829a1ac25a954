// ttl_expiry_test.cpp — deterministic TTL semantics via the injectable
// clock. Single-threaded on purpose: every assertion here is exact, so the
// lazy-eviction bookkeeping (who counts an expiry, when a corpse is
// physically dropped, what size()/for_each() report) is pinned with no
// tolerance for scheduling. The concurrent side lives in eviction_lin_test
// and eviction_fault_test.
//
// The invariants under test (DESIGN.md §3):
//   * a TTL-expired pair is unobservable (lookup/contains/size/for_each)
//     the instant the clock passes its horizon — before any eviction runs;
//   * an unexpired pair is never evicted by TTL machinery;
//   * a lookup hit refreshes the stamp (LRU/TTL clock restarts);
//   * mutating ops over a corpse behave as if the key were absent, evict
//     the corpse, and count exactly one expiry per corpse;
//   * single-threaded, evictions + expiries + user removes == pairs that
//     vanished, and the exact resident-byte accounting matches a footprint
//     walk at quiescence.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>

#include "cachetrie/evict.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "util/hashing.hpp"

namespace {

namespace sites = cachetrie::obs::sites;

using BoundedTrie =
    cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t>;
using BoundedChm =
    cachetrie::evict::BoundedChm<std::uint64_t, std::uint64_t>;

std::atomic<std::uint64_t> g_clock{0};
std::uint64_t test_clock() { return g_clock.load(std::memory_order_relaxed); }

constexpr std::uint64_t kTtl = 100;

// Eviction counts are deltas of the registry's cachetrie.evict.* site
// counters, which both bounded maps record. With metrics compiled out every
// counter reads 0, so those checks run only when kCounted.
constexpr bool kCounted = cachetrie::obs::kMetricsCompiled;

struct EvictionDelta {
  std::uint64_t lru0 = sites::cachetrie_evict_lru.total();
  std::uint64_t ttl0 = sites::cachetrie_evict_ttl.total();
  std::uint64_t scans0 = sites::cachetrie_evict_backpressure.total();

  std::uint64_t lru() const {
    return sites::cachetrie_evict_lru.total() - lru0;
  }
  std::uint64_t ttl() const {
    return sites::cachetrie_evict_ttl.total() - ttl0;
  }
  std::uint64_t scans() const {
    return sites::cachetrie_evict_backpressure.total() - scans0;
  }
};

cachetrie::evict::BoundedConfig ttl_config() {
  cachetrie::evict::BoundedConfig cfg;
  cfg.ttl_ticks = kTtl;
  cfg.ceiling_bytes = 0;  // TTL only: no pressure machinery in these tests
  cfg.tick_fn = &test_clock;
  return cfg;
}

TEST(TtlExpiry, ExpiredKeysUnobservable) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedTrie t(ttl_config());
  const EvictionDelta evicted;
  for (std::uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(t.insert(k, k * 7));

  // Just inside the horizon: everything still visible.
  g_clock.store(1 + kTtl, std::memory_order_relaxed);
  EXPECT_EQ(t.size(), 10u);

  // One tick past: every pair is a corpse — absent from every observer,
  // even though nothing has physically evicted them yet.
  g_clock.store(2 + kTtl, std::memory_order_relaxed);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(t.lookup(k), std::nullopt) << "corpse observable, key " << k;
    EXPECT_FALSE(t.contains(k));
  }
  std::size_t seen = 0;
  t.for_each([&](std::uint64_t, std::uint64_t) { ++seen; });
  EXPECT_EQ(seen, 0u);
  // Lookups are wait-free and must not have evicted anything.
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 0u);
  }
}

TEST(TtlExpiry, UnexpiredNeverEvicted) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedTrie t(ttl_config());
  const EvictionDelta evicted;
  for (std::uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(t.insert(k, k));

  // Heavy traffic with the clock inside the horizon: no pair may vanish.
  g_clock.store(kTtl / 2, std::memory_order_relaxed);
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      EXPECT_TRUE(t.lookup(k).has_value()) << "key " << k;
      EXPECT_FALSE(t.insert(k, k + round));  // upsert over a live pair
    }
  }
  EXPECT_EQ(t.size(), 64u);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 0u);
    EXPECT_EQ(evicted.lru(), 0u);
    EXPECT_EQ(evicted.scans(), 0u);
  }
}

TEST(TtlExpiry, StampRefreshOnHit) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedTrie t(ttl_config());
  ASSERT_TRUE(t.insert(1, 11));  // will be touched at tick 90
  ASSERT_TRUE(t.insert(2, 22));  // will not be touched again

  g_clock.store(90, std::memory_order_relaxed);
  EXPECT_EQ(t.lookup(1), std::optional<std::uint64_t>(11));  // refresh

  // tick 150: horizon = 50. Key 1's stamp is 90 (refreshed) — alive; key
  // 2's stamp is 1 — a corpse. Without the refresh both would be gone.
  g_clock.store(150, std::memory_order_relaxed);
  EXPECT_EQ(t.lookup(1), std::optional<std::uint64_t>(11));
  EXPECT_EQ(t.lookup(2), std::nullopt);
  EXPECT_EQ(t.size(), 1u);

  // The refresh keeps restarting the clock indefinitely.
  for (std::uint64_t now = 150; now < 1000; now += kTtl - 1) {
    g_clock.store(now, std::memory_order_relaxed);
    EXPECT_TRUE(t.lookup(1).has_value()) << "at tick " << now;
  }
}

TEST(TtlExpiry, MutationsOverCorpsesActAsAbsent) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedTrie t(ttl_config());
  const EvictionDelta evicted;
  for (std::uint64_t k = 0; k < 5; ++k) ASSERT_TRUE(t.insert(k, 100 + k));
  g_clock.store(2 + kTtl, std::memory_order_relaxed);  // all corpses

  // remove: nothing to remove, but the corpse is physically evicted.
  EXPECT_EQ(t.remove(0), std::nullopt);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 1u);
  }

  // remove_if_equals against the (dead) old value: absent.
  EXPECT_FALSE(t.remove_if_equals(1, 101));
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 2u);
  }

  // replace: key absent, so no replacement happens.
  EXPECT_FALSE(t.replace(2, 999));
  EXPECT_EQ(t.lookup(2), std::nullopt);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 3u);
  }

  // put_if_absent: the slot is free again — insertion succeeds.
  EXPECT_TRUE(t.put_if_absent(3, 333));
  EXPECT_EQ(t.lookup(3), std::optional<std::uint64_t>(333));
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 4u);
  }

  // upsert: reports a fresh insert, not a replacement.
  EXPECT_TRUE(t.insert(4, 444));
  EXPECT_EQ(t.lookup(4), std::optional<std::uint64_t>(444));
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 5u);
  }
}

TEST(TtlExpiry, MetricsEquationSingleThreaded) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedTrie t(ttl_config());
  const EvictionDelta evicted;
  constexpr std::uint64_t kN = 200;
  for (std::uint64_t k = 0; k < kN; ++k) ASSERT_TRUE(t.insert(k, k));

  // Expire everything, then re-insert: each upsert evicts one corpse.
  g_clock.store(2 + kTtl, std::memory_order_relaxed);
  for (std::uint64_t k = 0; k < kN; ++k) EXPECT_TRUE(t.insert(k, k * 2));
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), kN);
  }
  EXPECT_EQ(t.size(), kN);

  // User removes and forced evictions are counted in their own ledgers.
  std::uint64_t user_removed = 0;
  for (std::uint64_t k = 0; k < kN; k += 4) {
    EXPECT_TRUE(t.remove(k).has_value());
    ++user_removed;
  }
  std::uint64_t forced = 0;
  for (std::uint64_t k = 2; k < kN; k += 4) {
    EXPECT_TRUE(t.evict(k).has_value());
    ++forced;
  }
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), kN);
    EXPECT_EQ(evicted.lru(), forced);
  }
  // Every vanished pair is accounted for exactly once:
  //   inserted distinct - user removes - forced evictions == live size
  // (the kN expiries correspond to the first generation, each of which was
  // replaced by a live re-insert, so they cancel out of the live count).
  EXPECT_EQ(t.size(), kN - user_removed - forced);
}

TEST(TtlExpiry, ResidentBytesMatchFootprintAtQuiescence) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedTrie t(ttl_config());
  // Churn across generations: insert, expire, overwrite, remove — the
  // SNode accounting choke points (publish, retire, subtree build,
  // compression) fire at least once. DefaultHash forms no chains; the
  // chain rebuild's ledger is pinned by ResidentBytesMatchAfterChainChurn.
  for (std::uint64_t gen = 0; gen < 4; ++gen) {
    const std::uint64_t base = g_clock.load(std::memory_order_relaxed);
    for (std::uint64_t k = 0; k < 300; ++k) t.insert(k + gen * 17, k);
    g_clock.store(base + kTtl / 2, std::memory_order_relaxed);
    for (std::uint64_t k = 0; k < 300; k += 3) t.remove(k + gen * 17);
    g_clock.store(base + 2 * kTtl, std::memory_order_relaxed);  // expire rest
    for (std::uint64_t k = 0; k < 300; k += 2) t.insert(k + gen * 17, k);
  }
  // Exact double-entry accounting: published minus retired equals what a
  // footprint walk of the live structure finds (minus the object header,
  // which the walk includes but the ledger does not track).
  EXPECT_EQ(t.resident_bytes(),
            t.footprint_bytes() - sizeof(BoundedTrie));
  EXPECT_TRUE(t.debug_validate().empty());
}

// --- hash-free leaves: u64 keys store no hash, bounded leaves a stamp ----

TEST(TtlExpiry, HashFreeLeafBooksItsStampWord) {
  // An unbounded leaf is the 24 B pair and txn; a bounded one adds its
  // 8 B stamp word. Both take the pool's 32 B class: the bounded
  // trie's ledger and the unbounded trie's footprint both book that block.
  using Leaf = cachetrie::detail::SNode<std::uint64_t, std::uint64_t>;
  using StampedLeaf =
      cachetrie::detail::SNode<std::uint64_t, std::uint64_t, /*Stamped=*/true>;
  static_assert(!cachetrie::detail::kLeafStoresHash<std::uint64_t>);
  g_clock.store(1, std::memory_order_relaxed);
  BoundedTrie bounded(ttl_config());
  const std::size_t before = bounded.resident_bytes();
  ASSERT_TRUE(bounded.insert(5, 50));
  EXPECT_EQ(bounded.resident_bytes() - before, sizeof(StampedLeaf));
  EXPECT_EQ(sizeof(StampedLeaf), 32u);
  cachetrie::CacheTrie<std::uint64_t, std::uint64_t> unbounded;
  const std::size_t empty = unbounded.footprint_bytes();
  ASSERT_TRUE(unbounded.insert(5, 50));
  EXPECT_EQ(sizeof(Leaf), 24u);
  EXPECT_EQ(unbounded.footprint_bytes() - empty, 32u);
  // An unbounded trie keeps no ledger at all: src/all_headers_check.cpp
  // asserts that it has no resident_bytes().
}

TEST(TtlExpiry, CopiedHashFreeLeavesKeepTheirStamps) {
  // IdentityHash: keys i << 12 share a path down to level 12, where a
  // narrow node holds the first four and expands on the fifth, then wide
  // nodes grow subtrees. The odd keys go in at tick 1 and the even keys at
  // tick 60, so the expansions and subtree builds that the even inserts
  // trigger copy odd leaves, placed by their recomputed hashes. A copy
  // keeps its source's stamp, so at 2 + kTtl exactly the odd keys expire.
  using IdentityTrie =
      cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t,
                                         cachetrie::util::IdentityHash>;
  g_clock.store(1, std::memory_order_relaxed);
  IdentityTrie t(ttl_config());
  const EvictionDelta evicted;
  for (std::uint64_t i = 1; i <= 31; i += 2) ASSERT_TRUE(t.insert(i << 12, i));
  g_clock.store(60, std::memory_order_relaxed);
  for (std::uint64_t i = 2; i <= 32; i += 2) ASSERT_TRUE(t.insert(i << 12, i));
  EXPECT_EQ(t.size(), 32u);
  EXPECT_TRUE(t.debug_validate().empty());
  g_clock.store(2 + kTtl, std::memory_order_relaxed);
  EXPECT_EQ(t.size(), 16u);
  for (std::uint64_t i = 1; i <= 32; ++i) {
    EXPECT_EQ(t.lookup(i << 12).has_value(), i % 2 == 0) << "key " << i;
  }
  // Writers treat the corpses as absent: a remove finds nothing (and
  // evicts the corpse), an insert is new.
  for (std::uint64_t i = 1; i <= 15; i += 2) {
    EXPECT_EQ(t.remove(i << 12), std::nullopt) << "key " << i;
  }
  for (std::uint64_t i = 17; i <= 31; i += 2) {
    EXPECT_TRUE(t.insert(i << 12, i)) << "key " << i;
  }
  EXPECT_EQ(t.size(), 24u);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 16u);
  }
  EXPECT_EQ(t.resident_bytes(), t.footprint_bytes() - sizeof(IdentityTrie));
  EXPECT_TRUE(t.debug_validate().empty());
}

// --- LNode chains: every key shares one hash ------------------------------

using ChainTrie =
    cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t,
                                       cachetrie::util::DegradedHash<0>>;

// One chain in the root: `old_keys` stamped at tick 1, `young_keys` at tick
// 60, then the clock moves to 2 + kTtl, where the old pairs are corpses and
// the young ones live. Each key's value is 10 * key.
void fill_chain(ChainTrie& t, std::initializer_list<std::uint64_t> old_keys,
                std::initializer_list<std::uint64_t> young_keys) {
  g_clock.store(1, std::memory_order_relaxed);
  for (std::uint64_t k : old_keys) ASSERT_TRUE(t.insert(k, 10 * k));
  g_clock.store(60, std::memory_order_relaxed);
  for (std::uint64_t k : young_keys) ASSERT_TRUE(t.insert(k, 10 * k));
  g_clock.store(2 + kTtl, std::memory_order_relaxed);
  const auto hist = t.level_histogram();
  ASSERT_EQ(hist.total, old_keys.size() + young_keys.size());
  ASSERT_EQ(hist.counts[1], hist.total) << "not one chain in the root";
}

TEST(TtlExpiryChain, RemovingLastLivePairEmptiesTheSlot) {
  ChainTrie t(ttl_config());
  fill_chain(t, {1, 2}, {3});
  const EvictionDelta evicted;
  EXPECT_EQ(t.remove(3), std::optional<std::uint64_t>(30));
  // The rebuild drops both corpses with the removed pair: nothing is left
  // to hold, so the slot empties instead of keeping a one-pair chain.
  EXPECT_EQ(t.level_histogram().total, 0u);
  EXPECT_EQ(t.size(), 0u);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 2u);
    EXPECT_EQ(evicted.lru(), 0u);
  }
  EXPECT_EQ(t.resident_bytes(), t.footprint_bytes() - sizeof(ChainTrie));
  EXPECT_TRUE(t.debug_validate().empty());
}

TEST(TtlExpiryChain, UpsertOverKeyCorpseIsNew) {
  ChainTrie t(ttl_config());
  fill_chain(t, {1}, {2, 3});
  const EvictionDelta evicted;
  EXPECT_TRUE(t.insert(1, 111));  // the replaced pair was already absent
  EXPECT_EQ(t.lookup(1), std::optional<std::uint64_t>(111));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.level_histogram().total, 3u);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 1u);
  }
  EXPECT_EQ(t.resident_bytes(), t.footprint_bytes() - sizeof(ChainTrie));
  EXPECT_TRUE(t.debug_validate().empty());
}

TEST(TtlExpiryChain, ConditionalOpsOverKeyCorpseActAsAbsent) {
  ChainTrie t(ttl_config());
  fill_chain(t, {1}, {2, 3});
  const EvictionDelta evicted;
  EXPECT_FALSE(t.replace(1, 7));
  EXPECT_FALSE(t.replace_if_equals(1, 10, 7));
  EXPECT_FALSE(t.remove_if_equals(1, 10));
  EXPECT_EQ(t.remove(1), std::nullopt);
  EXPECT_EQ(t.lookup(1), std::nullopt);
  EXPECT_EQ(t.size(), 2u);
  // None of the above rebuilt the chain; the corpse is still held.
  EXPECT_EQ(t.level_histogram().total, 3u);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 0u);
  }
  // put_if_absent finds the key absent and inserts; its rebuild drops the
  // corpse and counts it.
  EXPECT_TRUE(t.put_if_absent(1, 111));
  EXPECT_EQ(t.lookup(1), std::optional<std::uint64_t>(111));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.level_histogram().total, 3u);
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 1u);
  }
  EXPECT_TRUE(t.debug_validate().empty());
}

// Generational churn over `keys` keys: insert, remove a third, expire the
// rest, re-insert half. Every chain operation books bytes: rebuilds that
// add, replace, drop corpses, collapse to an SNode or empty the slot, and
// (with a few-bit hash) chains pushed below a fresh inner node and revived
// by compression.
template <typename Trie>
void chain_churn(Trie& t, std::uint64_t keys) {
  g_clock.store(1, std::memory_order_relaxed);
  for (std::uint64_t gen = 0; gen < 4; ++gen) {
    const std::uint64_t base = g_clock.load(std::memory_order_relaxed);
    for (std::uint64_t k = 0; k < keys; ++k) t.insert(k + gen * 5, k);
    g_clock.store(base + kTtl / 2, std::memory_order_relaxed);
    for (std::uint64_t k = 0; k < keys; k += 3) t.remove(k + gen * 5);
    g_clock.store(base + 2 * kTtl, std::memory_order_relaxed);
    for (std::uint64_t k = 0; k < keys; k += 2) t.insert(k + gen * 5, k);
  }
}

TEST(TtlExpiryChain, ResidentBytesMatchAfterChainChurn) {
  {
    ChainTrie t(ttl_config());
    chain_churn(t, 40);
    EXPECT_EQ(t.resident_bytes(), t.footprint_bytes() - sizeof(ChainTrie));
    EXPECT_TRUE(t.debug_validate().empty());
  }
  {
    using FewBitTrie =
        cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t,
                                           cachetrie::util::DegradedHash<6>>;
    FewBitTrie t(ttl_config());
    chain_churn(t, 300);
    EXPECT_EQ(t.resident_bytes(), t.footprint_bytes() - sizeof(FewBitTrie));
    EXPECT_TRUE(t.debug_validate().empty());
  }
}

// A 12 B value: a bounded leaf of it is key, value (+4 B padding), txn and
// stamp, 40 B.
struct Rgb {
  std::uint32_t r, g, b;
  bool operator==(const Rgb&) const = default;
};

TEST(TtlExpiry, LedgerBooksThePoolClassOfOddSizedNodes) {
  // Two nodes whose exact size is not a multiple of the pool's 16 B
  // granule: that bounded leaf, and a chain link (hash, next, key, value,
  // stamp), both 40 B. The pool serves each from its 48 B class, and the
  // ledger books that block, also in builds where allocate() bypasses the
  // pool (NodePool::kEnabled false), so every build books the same bytes.
  using Leaf = cachetrie::detail::SNode<std::uint64_t, Rgb, /*Stamped=*/true>;
  using Link =
      cachetrie::detail::LNode<std::uint64_t, std::uint64_t, /*Stamped=*/true>;
  static_assert(sizeof(Leaf) == 40 && sizeof(Link) == 40);
  g_clock.store(1, std::memory_order_relaxed);

  using RgbTrie = cachetrie::evict::BoundedCacheTrie<std::uint64_t, Rgb>;
  RgbTrie leaves(ttl_config());
  const std::size_t empty = leaves.resident_bytes();
  ASSERT_TRUE(leaves.insert(5, Rgb{1, 2, 3}));
  EXPECT_EQ(leaves.resident_bytes() - empty, 48u);
  EXPECT_EQ(leaves.resident_bytes(),
            leaves.footprint_bytes() - sizeof(RgbTrie));

  ChainTrie chain(ttl_config());
  const std::size_t root = chain.resident_bytes();
  ASSERT_TRUE(chain.insert(1, 10));
  EXPECT_EQ(chain.resident_bytes() - root, 32u);  // one bounded u64 leaf
  ASSERT_TRUE(chain.insert(2, 20));  // the leaf becomes a two-link chain
  EXPECT_EQ(chain.level_histogram().counts[1], 2u);
  EXPECT_EQ(chain.resident_bytes() - root, 2 * 48u);
  EXPECT_EQ(chain.resident_bytes(),
            chain.footprint_bytes() - sizeof(ChainTrie));
  EXPECT_TRUE(chain.debug_validate().empty());
}

// --- the chm baseline wrapper: same semantics where the surface overlaps ---

TEST(TtlExpiryChm, ExpiredKeysUnobservableAndEvictedLazily) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedChm m(ttl_config());
  const EvictionDelta evicted;
  for (std::uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(m.insert(k, k * 7));

  g_clock.store(2 + kTtl, std::memory_order_relaxed);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(m.lookup(k), std::nullopt);
  }
  // The wrapper expires only the operation's own key; each remove() of a
  // corpse reports "absent" and counts one expiry.
  EXPECT_EQ(m.remove(0), std::nullopt);
  EXPECT_FALSE(m.remove_if_equals(1, 7));
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 2u);
  }

  // Insert over a corpse: the corpse is dropped first, so this is a fresh
  // insert, and put_if_absent succeeds.
  EXPECT_TRUE(m.insert(2, 999));
  EXPECT_TRUE(m.put_if_absent(3, 888));
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 4u);
  }
  EXPECT_EQ(m.lookup(2), std::optional<std::uint64_t>(999));
  EXPECT_EQ(m.lookup(3), std::optional<std::uint64_t>(888));
}

TEST(TtlExpiryChm, StampRefreshOnHit) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedChm m(ttl_config());
  ASSERT_TRUE(m.insert(1, 11));
  ASSERT_TRUE(m.insert(2, 22));

  g_clock.store(90, std::memory_order_relaxed);
  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(11));

  g_clock.store(150, std::memory_order_relaxed);
  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(11));
  EXPECT_EQ(m.lookup(2), std::nullopt);
}

TEST(TtlExpiryChm, UnexpiredNeverEvicted) {
  g_clock.store(1, std::memory_order_relaxed);
  BoundedChm m(ttl_config());
  const EvictionDelta evicted;
  for (std::uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(m.insert(k, k));
  g_clock.store(kTtl / 2, std::memory_order_relaxed);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_TRUE(m.lookup(k).has_value()) << "key " << k;
  }
  if (kCounted) {
    EXPECT_EQ(evicted.ttl(), 0u);
    EXPECT_EQ(evicted.lru(), 0u);
  }
}

}  // namespace
