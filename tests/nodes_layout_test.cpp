// nodes_layout_test.cpp — whitebox tests of the node and cache-array
// memory layouts: exact allocation sizes and the pool classes the ledger
// books (the footprint benches depend on them), the half-line hash-free
// leaf with or without its stamp word, the headerless ANode, the tagged
// words that refer to nodes, and construction/destruction of the
// variable-size nodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cachetrie/cache.hpp"
#include "cachetrie/nodes.hpp"
#include "mr/node_pool.hpp"
#include "util/padded.hpp"

namespace {

using namespace cachetrie::detail;

TEST(NodeLayout, SentinelTagsAreDistinct) {
  // The paper's FVNode, FSNode, NoTxn and Pending are word values, not
  // objects: none points anywhere, and no two are equal.
  const Ref words[] = {Ref{}, Ref{}.as_frozen(), Ref::no_txn(),
                       Ref::frozen_txn(), Ref::pending()};
  for (std::size_t i = 0; i < std::size(words); ++i) {
    EXPECT_EQ(words[i].node(), nullptr);
    EXPECT_FALSE(words[i].is_anode());
    for (std::size_t j = i + 1; j < std::size(words); ++j) {
      EXPECT_NE(words[i], words[j]) << i << " vs " << j;
    }
  }
  EXPECT_TRUE(Ref{}.null());
  EXPECT_TRUE(Ref{}.as_frozen().empty());
  EXPECT_FALSE(Ref{}.as_frozen().null());
  EXPECT_TRUE(Ref::frozen_txn().is_frozen());
  EXPECT_EQ(Ref::frozen_txn().thawed(), Ref::no_txn());
}

TEST(NodeLayout, ANodeExactSizes) {
  // A bare slot array: narrow is half a line, wide two lines.
  static_assert(ANode::alloc_size(4) == 32);
  static_assert(ANode::alloc_size(16) == 128);
  EXPECT_EQ(ANode::alloc_size(4), 4 * sizeof(void*));
  EXPECT_EQ(ANode::alloc_size(16), 16 * sizeof(void*));
}

TEST(NodeLayout, ANodeSlotsZeroInitializedAndAligned) {
  const Ref a = ANode::make(16);
  EXPECT_EQ(a.tag(), Tag::kWide);
  EXPECT_EQ(a.length(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(a.slot_at(i).load(std::memory_order_relaxed).null());
  }
  // The slots are the node: the first one sits at its address.
  const auto addr = reinterpret_cast<std::uintptr_t>(&a.slot_at(0));
  EXPECT_EQ(addr, reinterpret_cast<std::uintptr_t>(a.node()));
  EXPECT_EQ(addr % 16, 0u);
  ANode::destroy(a);
}

TEST(NodeLayout, WordsCarryKindWidthAndFrozenBit) {
  const Ref narrow = ANode::make(4);
  const Ref wide = ANode::make(16);
  auto* leaf = SNode<int, int>::make(0x1ull, 1, 10);
  auto* chain = LNode<int, int>::make(0x2ull, 2, 20, nullptr);
  EXPECT_EQ(narrow.tag(), Tag::kNarrow);
  EXPECT_EQ(narrow.length(), 4u);
  EXPECT_TRUE(narrow.is_anode());
  EXPECT_EQ(wide.tag(), Tag::kWide);
  EXPECT_TRUE(wide.is_anode());
  const Ref leaf_word = Ref::to(leaf);
  EXPECT_EQ(leaf_word.tag(), Tag::kSNode);
  EXPECT_FALSE(leaf_word.is_anode());
  EXPECT_EQ((leaf_word.as<SNode<int, int>>()), leaf);
  EXPECT_EQ(Ref::to(chain).tag(), Tag::kLNode);
  // Freezing keeps the node, the kind and the width.
  for (const Ref w : {narrow, wide, Ref::to(chain)}) {
    const Ref frozen = w.as_frozen();
    EXPECT_TRUE(frozen.is_frozen());
    EXPECT_NE(frozen, w);
    EXPECT_EQ(frozen.node(), w.node());
    EXPECT_EQ(frozen.tag(), w.tag());
    EXPECT_EQ(frozen.is_anode(), w.is_anode());
    EXPECT_EQ(frozen.thawed(), w);
  }
  EXPECT_EQ(wide.as_frozen().length(), 16u);
  delete chain;
  delete leaf;
  ANode::destroy(wide);
  ANode::destroy(narrow);
}

TEST(NodeLayout, SNodeCarriesPairAndIdleTxn) {
  auto* s = SNode<int, int>::make(0xABCDull, 7, 70);
  EXPECT_EQ(s->key, 7);
  EXPECT_EQ(s->value, 70);
  EXPECT_EQ(s->txn.load(std::memory_order_relaxed), Ref::no_txn());
  // An unbounded trie's leaf has no stamp word at all, and a hash-free leaf
  // has no header: the node is the pair and its txn.
  using Leaf = SNode<int, int>;
  EXPECT_EQ(sizeof(Leaf), 2 * sizeof(int) + sizeof(AtomicRef));
  delete s;
}

TEST(NodeLayout, StampWordCarriedByBothLeafKinds) {
  // The bounded mode (DESIGN.md §3) stores the last-use tick with the leaf:
  // one trailing word per SNode, atomic (hits refresh it concurrently), and
  // a plain field on LNodes (chains are immutable — a rebuild copies the
  // stamp forward instead).
  using Leaf = SNode<int, int, /*Stamped=*/true>;
  auto* s = Leaf::make(0x1ull, 1, 10, /*stamp=*/42);
  EXPECT_EQ(s->stamp.load(), 42u);
  // The word trails the unstamped leaf's fields.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&s->stamp),
            reinterpret_cast<std::uintptr_t>(s) + sizeof(SNode<int, int>));
  EXPECT_EQ(sizeof(Leaf), sizeof(SNode<int, int>) + sizeof(std::uint64_t));
  auto* l = LNode<int, int, /*Stamped=*/true>::make(0x2ull, 2, 20, nullptr,
                                                    /*stamp=*/43);
  EXPECT_EQ(l->stamp, 43u);
  delete l;
  delete s;
}

// A word-sized key is rehashed instead of stored: the leaf has no `hash`
// member for code to read.
template <typename Leaf>
concept HasHashField = requires(Leaf& l) { l.hash; };

// Whether a leaf has a stamp word is its type's (the trie's `Bounded`): the
// leaf keeps no flag for it.
template <typename Leaf>
concept HasShapeField = requires(Leaf& l) { l.stamped; };

TEST(NodeLayout, HashFreeLeafIsHalfALine) {
  using cachetrie::mr::NodePool;
  using Leaf = SNode<std::uint64_t, std::uint64_t>;
  static_assert(!kLeafStoresHash<std::uint64_t>);
  static_assert(!HasHashField<Leaf>);
  using StampedLeaf = SNode<std::uint64_t, std::uint64_t, /*Stamped=*/true>;
  static_assert(!HasShapeField<Leaf> && !HasShapeField<StampedLeaf> &&
                !HasShapeField<SNode<int, int>>);
  // key, value, txn: 24 B.
  EXPECT_EQ(sizeof(Leaf), 24u);
  // A bounded leaf adds its 8 B stamp word: 32 B, half a line.
  EXPECT_EQ(sizeof(StampedLeaf), 32u);
  // Both are served from, and booked at, the pool's 32 B class.
  EXPECT_EQ(NodePool::class_bytes(sizeof(Leaf), alignof(Leaf)), 32u);
  EXPECT_EQ(NodePool::class_bytes(sizeof(StampedLeaf), alignof(StampedLeaf)),
            32u);
}

TEST(NodeLayout, CostlyKeysKeepTheirHash) {
  using Leaf = SNode<std::string, int>;
  using StampedLeaf = SNode<std::string, int, /*Stamped=*/true>;
  static_assert(kLeafStoresHash<std::string>);
  static_assert(HasHashField<Leaf> && HasHashField<StampedLeaf>);
  auto* s = Leaf::make(0x5555ull, std::string(40, 'k'), 1);
  EXPECT_EQ(s->hash, 0x5555ull);
  EXPECT_EQ(s->key, std::string(40, 'k'));
  delete s;
  auto* b = StampedLeaf::make(0x6666ull, "b", 2, /*stamp=*/9);
  EXPECT_EQ(b->hash, 0x6666ull);
  EXPECT_EQ(b->stamp.load(), 9u);
  delete b;
}

TEST(NodeLayout, PooledHalfLineLeavesNeverStraddleALine) {
  // Leaves carved next to blocks of odd granule counts (a chain link or
  // an ENode is 3 granules) would land 16 B or 48 B into a line if the pool
  // carved every class from the same end of its span. The class allocator
  // is called directly, so this also runs under ASan, where allocate()
  // bypasses it.
  using cachetrie::mr::NodePool;
  const std::size_t leaf = NodePool::class_bytes(
      sizeof(SNode<std::uint64_t, std::uint64_t, /*Stamped=*/true>));
  std::thread([leaf] {
    std::vector<std::pair<void*, std::size_t>> blocks;
    for (int i = 0; i < 4000; ++i) {
      for (const std::size_t bytes :
           {leaf, ANode::alloc_size(16), leaf, std::size_t{48}, leaf,
            ANode::alloc_size(4), leaf, std::size_t{16}, leaf}) {
        void* p = NodePool::allocate_class(NodePool::class_of(bytes));
        blocks.emplace_back(p, bytes);
        if (bytes == leaf) {
          const auto at = reinterpret_cast<std::uintptr_t>(p);
          ASSERT_LE(at % cachetrie::util::kCacheLineSize + leaf,
                    cachetrie::util::kCacheLineSize)
              << "a 32 B leaf crosses a cache line at offset "
              << at % cachetrie::util::kCacheLineSize;
        }
      }
    }
    for (const auto& [p, bytes] : blocks) {
      NodePool::deallocate_class(p, NodePool::class_of(bytes));
    }
  }).join();
}

TEST(NodeLayout, BoundedLeavesFromThePoolNeverStraddleALine) {
  // 1,000 bounded SNode<u64, u64> blocks, as make() gets them from the
  // pool. Where allocate() bypasses the pool (ASan), the same class is
  // taken from the class allocator directly.
  using cachetrie::mr::NodePool;
  using Leaf = SNode<std::uint64_t, std::uint64_t, /*Stamped=*/true>;
  static_assert(sizeof(Leaf) == 32);
  std::thread([] {
    const std::size_t kLine = cachetrie::util::kCacheLineSize;
    std::vector<void*> blocks;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      void* p = NodePool::kEnabled
                    ? static_cast<void*>(
                          Leaf::make(i, i, i, /*stamp=*/i))
                    : NodePool::allocate_class(NodePool::class_of(32));
      const auto at = reinterpret_cast<std::uintptr_t>(p);
      ASSERT_LE(at % kLine + 32, kLine)
          << "bounded leaf " << i << " crosses a cache line at offset "
          << at % kLine;
      blocks.push_back(p);
    }
    for (void* p : blocks) {
      if (NodePool::kEnabled) {
        delete static_cast<Leaf*>(p);
      } else {
        NodePool::deallocate_class(p, NodePool::class_of(32));
      }
    }
  }).join();
}

TEST(NodeLayout, ENodeStartsPending) {
  const Ref parent = ANode::make(16);
  const Ref target = ANode::make(4);
  ENode* e = ENode::make(parent.anode(), 3, target, 0x123ull, 8, false);
  EXPECT_EQ(Ref::to(e).tag(), Tag::kENode);
  EXPECT_EQ(e->parent, parent.anode());
  EXPECT_EQ(e->parentpos, 3u);
  EXPECT_EQ(e->target, target);
  EXPECT_EQ(e->level, 8u);
  EXPECT_FALSE(e->compress);
  EXPECT_EQ(e->result.load(std::memory_order_relaxed), Ref::pending());
  delete e;
  ANode::destroy(target);
  ANode::destroy(parent);
}

TEST(NodeLayout, LNodeChainLinks) {
  auto* l1 = LNode<int, int>::make(5, 1, 10, nullptr);
  auto* l2 = LNode<int, int>::make(5, 2, 20, l1);
  EXPECT_EQ(l2->next, l1);
  EXPECT_EQ(l2->hash, l1->hash);
  EXPECT_EQ(std::uint64_t{l1->stamp}, 0u);  // unbounded tries never stamp
  delete l2;
  delete l1;
}

TEST(NodeLayout, ChainLinkStampsOnlyWhenBounded) {
  // A u64 chain link is hash, next, key and value: 32 B, the pool's 32 B
  // class. A bounded trie's link adds its stamp field: 40 B, which the pool
  // serves (and the ledger books) from its 48 B class.
  using cachetrie::mr::NodePool;
  using Link = LNode<std::uint64_t, std::uint64_t>;
  using StampedLink = LNode<std::uint64_t, std::uint64_t, /*Stamped=*/true>;
  static_assert(sizeof(Link) == 32 && sizeof(StampedLink) == 40);
  EXPECT_EQ(NodePool::class_bytes(sizeof(Link), alignof(Link)), 32u);
  EXPECT_EQ(NodePool::class_bytes(sizeof(StampedLink), alignof(StampedLink)),
            48u);
  auto* l = Link::make(7, 1, 10, nullptr, /*stamp=*/99);  // stamp dropped
  EXPECT_EQ(std::uint64_t{l->stamp}, 0u);
  delete l;
}

TEST(CacheLayout, EntryCountAndIndexing) {
  CacheArray* c = CacheArray::make(8, nullptr);
  EXPECT_EQ(c->level, 8u);
  EXPECT_EQ(c->entry_count(), 256u);
  EXPECT_EQ(c->index_of(0xABCDEFull), 0xEFull);  // low 8 bits
  EXPECT_EQ(c->index_of(0x100ull), 0x00ull);
  CacheArray::destroy(c);
}

TEST(CacheLayout, MissCountersOnDistinctCacheLines) {
  CacheArray* c = CacheArray::make(8, nullptr);
  const auto a0 = reinterpret_cast<std::uintptr_t>(&c->misses()[0]);
  const auto a1 = reinterpret_cast<std::uintptr_t>(&c->misses()[1]);
  EXPECT_GE(a1 - a0, cachetrie::util::kCacheLineSize);
  EXPECT_EQ(a0 % cachetrie::util::kCacheLineSize, 0u);
  // The entries start after the last of the kMissSlots counters.
  const auto last = reinterpret_cast<std::uintptr_t>(
      &c->misses()[cachetrie::kMissSlots - 1]);
  EXPECT_GE(reinterpret_cast<std::uintptr_t>(&c->entry(0)) - last,
            cachetrie::util::kCacheLineSize);
  CacheArray::destroy(c);
}

TEST(CacheLayout, EntriesZeroInitialized) {
  CacheArray* c = CacheArray::make(12, nullptr);
  for (std::size_t i = 0; i < c->entry_count(); i += 97) {
    EXPECT_TRUE(c->entry(i).load(std::memory_order_relaxed).null());
  }
  CacheArray::destroy(c);
}

TEST(CacheLayout, WordsRoundTripEachShape) {
  // An entry stores and returns the whole word: the node, and for an ANode
  // the slot count its tag gives.
  CacheArray* c = CacheArray::make(8, nullptr);
  const Ref narrow = ANode::make(4);
  const Ref wide = ANode::make(16);
  auto* leaf = SNode<int, int>::make(0x1ull, 1, 10);
  for (const Ref w : {narrow, wide, Ref::to(leaf)}) {
    c->entry(1).store(w, std::memory_order_relaxed);
    const Ref back = c->entry(1).load(std::memory_order_relaxed);
    EXPECT_EQ(back, w);
    EXPECT_EQ(back.node(), w.node());
  }
  using Leaf = SNode<int, int>;
  EXPECT_EQ(c->entry(1).load(std::memory_order_relaxed).as<Leaf>(), leaf);
  c->entry(2).store(wide, std::memory_order_relaxed);
  EXPECT_EQ(c->entry(2).load(std::memory_order_relaxed).length(), 16u);
  c->entry(3).store(narrow, std::memory_order_relaxed);
  EXPECT_EQ(c->entry(3).load(std::memory_order_relaxed).length(), 4u);
  delete leaf;
  ANode::destroy(wide);
  ANode::destroy(narrow);
  CacheArray::destroy(c);
}

TEST(CacheLayout, ParentChainAndFootprint) {
  CacheArray* p = CacheArray::make(8, nullptr);
  CacheArray* c = CacheArray::make(12, p);
  EXPECT_EQ(c->parent, p);
  EXPECT_GT(c->footprint_bytes(), p->footprint_bytes());
  EXPECT_GE(c->footprint_bytes(),
            (std::size_t{1} << 12) * sizeof(void*));
  CacheArray::destroy(c);
  CacheArray::destroy(p);
}

}  // namespace
