// node_pool_test.cpp — the size-class node pool (mr/node_pool.hpp): class
// round trips, cross-thread balance through the depot, donation at thread
// exit, the ::operator new fallback, and chunk alignment.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cachetrie/nodes.hpp"
#include "mr/epoch.hpp"
#include "mr/node_pool.hpp"
#include "obs/metrics.hpp"

namespace {

using cachetrie::mr::NodePool;

// An unbounded trie's leaf: no trailing stamp word.
constexpr std::size_t kSNodeBytes =
    cachetrie::detail::SNode<std::uint64_t, std::uint64_t>::alloc_size(
        /*stamped=*/false);

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

// The class allocator, called directly: under ASan and TSan allocate()
// forwards to ::operator new, and these tests still run the pool itself.
void* take(std::size_t bytes) {
  return NodePool::allocate_class(NodePool::class_of(bytes));
}
void give(void* p, std::size_t bytes) {
  NodePool::deallocate_class(p, NodePool::class_of(bytes));
}

// (a) Every class round-trips, and a block freed by a thread is the next one
// that thread gets back for the same class.
TEST(NodePool, RoundTripPerClassAndReuse) {
  std::thread([] {
    for (std::size_t bytes = NodePool::kGranule; bytes <= NodePool::kMaxBytes;
         bytes += NodePool::kGranule) {
      EXPECT_EQ(NodePool::pooled(bytes), NodePool::kEnabled);
      void* p = take(bytes);
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(aligned_to(p, NodePool::kGranule)) << bytes;
      std::memset(p, 0xab, bytes);
      give(p, bytes);
      // One byte less still rounds up to the same class.
      void* q = take(bytes - 1);
      EXPECT_EQ(q, p) << "class of " << bytes << " B did not reuse its block";
      give(q, bytes - 1);
    }
  }).join();
}

// (a') A block of whole cache lines starts on a line, so a 128 B wide
// ANode spans exactly two lines, and a 32 B block (a leaf or a narrow ANode)
// never straddles one, however the classes interleave in a span. Carved
// from a fresh thread, so the span's bottom starts wherever the
// interleaving leaves it.
TEST(NodePool, WholeLineBlocksStartOnALine) {
  std::thread([] {
    constexpr std::size_t kLine = 64;
    std::vector<std::pair<void*, std::size_t>> blocks;
    for (int i = 0; i < 3000; ++i) {
      for (const std::size_t bytes : {32, 128, 48, 32, 64, 32, 128, 96, 192,
                                      32, 256, 16, 128}) {
        void* p = take(bytes);
        blocks.emplace_back(p, bytes);
        const auto at = reinterpret_cast<std::uintptr_t>(p);
        if (bytes % kLine == 0) {
          ASSERT_EQ(at % kLine, 0u) << bytes << " B block off a line";
        }
        if (bytes == 32) {
          ASSERT_LE(at % kLine + bytes, kLine) << "32 B block straddles";
        }
      }
    }
    for (const auto& [p, bytes] : blocks) give(p, bytes);
  }).join();
}

// (b) One thread only allocates, another only frees. The depot must carry
// the freed blocks back to the allocator, or it keeps mapping new chunks.
TEST(NodePool, ProducerConsumerStaysBounded) {
  constexpr int kRounds = 50;
  constexpr std::size_t kBlocks = 20000;  // ~1 MB of SNode-sized blocks

  std::mutex mu;
  std::condition_variable cv;
  std::vector<void*> handoff;
  int produced = 0;  // rounds handed to the consumer
  int consumed = 0;  // rounds the consumer finished freeing
  std::size_t after_first = 0;

  std::thread producer([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<void*> blocks(kBlocks);
      for (auto& p : blocks) p = take(kSNodeBytes);
      std::unique_lock<std::mutex> lock(mu);
      handoff = std::move(blocks);
      ++produced;
      cv.notify_all();
      cv.wait(lock, [&] { return consumed == produced; });
      if (round == 0) after_first = NodePool::mapped_bytes();
    }
  });
  std::thread consumer([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<void*> blocks;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return produced > round; });
        blocks = std::move(handoff);
      }
      for (void* p : blocks) give(p, kSNodeBytes);
      std::lock_guard<std::mutex> lock(mu);
      ++consumed;
      cv.notify_all();
    }
  });
  producer.join();
  consumer.join();

  // Slack: one chunk for the consumer's short lists and a partly carved span.
  EXPECT_LE(NodePool::mapped_bytes(), after_first + NodePool::kChunkBytes)
      << "after round 1: " << after_first;
}

// The same one-way traffic with both threads running at once, so the
// consumer's depot hand-offs overlap the producer's refills (the test above
// steps its threads in turn). Each block carries a stamp its consumer
// checks before freeing it: a block handed out twice shows up as an
// overwritten stamp, and under TSan a missing depot lock shows up as a race.
TEST(NodePool, OverlappedProducerConsumerNeverSharesABlock) {
  constexpr std::uint64_t kBlocks = 200000;
  constexpr std::size_t kGroup = 256;
  constexpr std::size_t kMaxQueued = 8;
  constexpr std::size_t kWords = kSNodeBytes / sizeof(std::uint64_t);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::vector<void*>> queue;
  bool done = false;

  std::thread producer([&] {
    std::vector<void*> group;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      auto* words = static_cast<std::uint64_t*>(take(kSNodeBytes));
      for (std::size_t w = 0; w < kWords; ++w) words[w] = i;
      group.push_back(words);
      if (group.size() == kGroup || i + 1 == kBlocks) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return queue.size() < kMaxQueued; });
        queue.push_back(std::move(group));
        group.clear();
        cv.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::uint64_t freed = 0;
  std::uint64_t wrong = 0;
  std::thread consumer([&] {
    for (;;) {
      std::vector<void*> group;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        group = std::move(queue.front());
        queue.pop_front();
        cv.notify_all();
      }
      // Blocks arrive in allocation order, so block number `freed` must
      // still hold its own index in every word.
      for (void* p : group) {
        const auto* words = static_cast<const std::uint64_t*>(p);
        for (std::size_t w = 0; w < kWords; ++w) {
          if (words[w] != freed) ++wrong;
        }
        give(p, kSNodeBytes);
        ++freed;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(freed, kBlocks);
  EXPECT_EQ(wrong, 0u) << "a block was handed out while still in use";
}

// (c) A thread that allocates, frees and exits donates its lists and the
// rest of its span; the next thread's allocations map no new chunk.
TEST(NodePool, ExitedThreadDonatesToNextThread) {
  constexpr std::size_t kBlocks = 5000;
  std::thread([] {
    std::vector<void*> blocks(kBlocks);
    for (auto& p : blocks) p = take(kSNodeBytes);
    for (void* p : blocks) give(p, kSNodeBytes);
  }).join();

  const std::size_t before = NodePool::mapped_bytes();
  std::thread([] {
    std::vector<void*> same(kBlocks);
    for (auto& p : same) p = take(kSNodeBytes);
    // Another class comes out of the donated span.
    std::vector<void*> other(1000);
    for (auto& p : other) p = take(NodePool::kMaxBytes);
    for (void* p : same) give(p, kSNodeBytes);
    for (void* p : other) give(p, NodePool::kMaxBytes);
  }).join();
  EXPECT_EQ(NodePool::mapped_bytes(), before);
}

// (d) Requests above the largest class and over-aligned requests bypass the
// pool and come back with the alignment they asked for.
TEST(NodePool, LargeAndOverAlignedFallBack) {
  struct alignas(64) Wide : cachetrie::mr::PoolAllocated {
    char bytes[64];
  };
  struct Big : cachetrie::mr::PoolAllocated {
    char bytes[NodePool::kMaxBytes + 8];
  };
  static_assert(!NodePool::pooled(sizeof(Big), alignof(Big)));
  static_assert(!NodePool::pooled(sizeof(Wide), alignof(Wide)));

  const std::size_t before = NodePool::mapped_bytes();
  void* large = NodePool::allocate(NodePool::kMaxBytes + 1);
  ASSERT_NE(large, nullptr);
  EXPECT_TRUE(aligned_to(large, alignof(std::max_align_t)));
  std::memset(large, 0xcd, NodePool::kMaxBytes + 1);
  NodePool::deallocate(large, NodePool::kMaxBytes + 1);

  void* wide = NodePool::allocate(64, 64);
  EXPECT_TRUE(aligned_to(wide, 64));
  NodePool::deallocate(wide, 64, 64);

  auto* w = new Wide{};
  EXPECT_TRUE(aligned_to(w, 64));
  delete w;
  auto* b = new Big{};
  std::memset(b->bytes, 0xef, sizeof(b->bytes));
  delete b;
  EXPECT_EQ(NodePool::mapped_bytes(), before);
}

// (e) Node chunks and large arrays start on 2 MiB boundaries.
TEST(NodePool, ChunksAre2MiBAligned) {
  std::thread([] {
    // Carve until a fresh chunk is mapped: its first block is its base.
    std::vector<void*> blocks;
    void* first_of_chunk = nullptr;
    const std::size_t limit = 4 * NodePool::kChunkBytes / NodePool::kMaxBytes;
    while (first_of_chunk == nullptr && blocks.size() < limit) {
      const std::size_t before = NodePool::mapped_bytes();
      blocks.push_back(take(NodePool::kMaxBytes));
      if (NodePool::mapped_bytes() != before) first_of_chunk = blocks.back();
    }
    ASSERT_NE(first_of_chunk, nullptr);
    EXPECT_TRUE(aligned_to(first_of_chunk, NodePool::kChunkBytes));
    for (void* p : blocks) give(p, NodePool::kMaxBytes);
  }).join();

  // Under ASan arrays come from ::operator new, aligned as asked.
  const std::size_t array_align = NodePool::kEnabled ? NodePool::kChunkBytes : 64;
  for (std::size_t bytes :
       {NodePool::kChunkBytes, 3 * NodePool::kChunkBytes + 1}) {
    void* a = NodePool::allocate_array(bytes, 64);
    EXPECT_TRUE(aligned_to(a, array_align)) << bytes;
    std::memset(a, 0x11, bytes);
    NodePool::deallocate_array(a, bytes, 64);
  }
}

// The pool's mapped bytes ride along in every metrics snapshot.
TEST(NodePool, MappedBytesGauge) {
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "metrics compiled out (CACHETRIE_METRICS=0)";
  }
  cachetrie::mr::EpochDomain::instance();  // registers the mr.* gauges
  void* p = NodePool::allocate(kSNodeBytes);
  const auto snap = cachetrie::obs::registry().snapshot();
  const auto* g = snap.find_gauge("mr.pool.mapped_bytes");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(g->value), NodePool::mapped_bytes());
  if (NodePool::kEnabled) {
    EXPECT_GE(g->value, static_cast<std::int64_t>(NodePool::kChunkBytes));
  }
  NodePool::deallocate(p, kSNodeBytes);
}

}  // namespace
