// epoch_test.cpp — unit and stress tests for epoch-based reclamation.
//
// Note: EpochDomain is a process-wide singleton, so tests share it; each
// test only asserts deltas of the retired/freed counters it caused, or
// properties that hold regardless of other tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "mr/epoch.hpp"
#include "mr/leak.hpp"

namespace {

using cachetrie::mr::EpochDomain;
using cachetrie::mr::EpochReclaimer;

struct Tracked {
  static inline std::atomic<int> live{0};
  Tracked() { live.fetch_add(1, std::memory_order_relaxed); }
  ~Tracked() { live.fetch_sub(1, std::memory_order_relaxed); }
};

TEST(Epoch, GuardPinAndUnpin) {
  auto& dom = EpochDomain::instance();
  {
    auto g = dom.pin();
    // Nested pins are allowed and counted.
    auto g2 = dom.pin();
  }
  SUCCEED();
}

TEST(Epoch, RetireEventuallyFrees) {
  auto& dom = EpochDomain::instance();
  Tracked::live.store(0);
  {
    auto g = dom.pin();
    for (int i = 0; i < 1000; ++i) dom.retire(new Tracked());
  }
  EXPECT_EQ(Tracked::live.load(), 1000);  // nothing freed while possibly held
  // Force advances from a quiescent state; everything must drain.
  for (int i = 0; i < 10 && Tracked::live.load() != 0; ++i) {
    auto g = dom.pin();
    dom.try_advance();
  }
  dom.drain_for_testing();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, PinnedReaderBlocksAdvance) {
  auto& dom = EpochDomain::instance();
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    auto g = dom.pin();
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  const std::uint64_t e0 = dom.epoch();
  {
    auto g = dom.pin();
    // The reader pinned epoch e0; after one possible advance the reader's
    // epoch goes stale and further advances must fail.
    dom.try_advance();
    const std::uint64_t e1 = dom.epoch();
    EXPECT_LE(e1, e0 + 1);
    EXPECT_FALSE(dom.try_advance());
    EXPECT_EQ(dom.epoch(), e1);
  }
  release.store(true);
  reader.join();
  {
    auto g = dom.pin();
    EXPECT_TRUE(dom.try_advance());
  }
}

TEST(Epoch, GracePeriodProtectsReaders) {
  // A reader that pinned before retirement must never observe a freed node.
  // We model this with a shared atomic pointer that the writer swaps and
  // retires while readers dereference under guards.
  auto& dom = EpochDomain::instance();
  // Poisoned on destruction, so a read after a premature free trips the
  // canary (best effort; ASan builds catch it outright).
  struct Box {
    std::atomic<std::uint64_t> canary{0xDEADBEEFCAFEBABEULL};
    ~Box() { canary.store(0, std::memory_order_relaxed); }
  };
  std::atomic<Box*> shared{new Box()};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto g = dom.pin();
        Box* b = shared.load(std::memory_order_acquire);
        if (b->canary.load(std::memory_order_relaxed) !=
            0xDEADBEEFCAFEBABEULL) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      auto g = dom.pin();
      Box* fresh = new Box();
      Box* old = shared.exchange(fresh, std::memory_order_acq_rel);
      dom.retire(old);
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  {
    auto g = dom.pin();
    delete shared.load();
  }
  dom.drain_for_testing();
}

TEST(Epoch, ManyThreadsRetireConcurrently) {
  auto& dom = EpochDomain::instance();
  Tracked::live.store(0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto g = dom.pin();
        dom.retire(new Tracked());
      }
    });
  }
  for (auto& t : threads) t.join();
  dom.drain_for_testing();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, RetiredAndFreedCountersAdvance) {
  auto& dom = EpochDomain::instance();
  const auto retired0 = dom.retired_count();
  {
    auto g = dom.pin();
    for (int i = 0; i < 100; ++i) dom.retire(new Tracked());
  }
  EXPECT_EQ(dom.retired_count(), retired0 + 100);
  dom.drain_for_testing();
  EXPECT_GE(dom.freed_count() + 0, 100u);
}

TEST(Epoch, ThreadRecordsAreRecycled) {
  // Spawning many short-lived threads must not grow the registry without
  // bound (records are reused after thread exit). Indirectly verified:
  // retirements from dead threads still drain.
  auto& dom = EpochDomain::instance();
  Tracked::live.store(0);
  for (int round = 0; round < 50; ++round) {
    std::thread t([&] {
      auto g = dom.pin();
      dom.retire(new Tracked());
    });
    t.join();
  }
  dom.drain_for_testing();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, ExitedThreadLimboFreedBySurvivors) {
  // A thread that exits with a non-empty limbo leaves it on its released
  // record; surviving threads must free it through ordinary advances — no
  // drain_for_testing, which a real deployment never calls.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();  // start from an empty limbo
  Tracked::live.store(0);
  std::thread t([&] {
    auto g = dom.pin();
    for (int i = 0; i < 100; ++i) dom.retire(new Tracked());
  });
  t.join();  // the record is released with its limbo on thread exit
  for (int i = 0; i < 10 && Tracked::live.load() != 0; ++i) {
    auto g = dom.pin();
    dom.try_advance();  // successful advances sweep released records
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, ExitedThreadLimboWaitsForPinnedReader) {
  // The sweep that frees an exited thread's limbo obeys the same epoch + 2
  // rule as its owner would have: while a reader that pinned before the
  // retirements stays pinned, nothing is freed and the byte and object
  // counts stand still; once it unpins, ordinary advances free it all.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();
  Tracked::live.store(0);
  constexpr int kCount = 100;
  constexpr std::size_t kBytes = 48;
  const std::size_t bytes0 = dom.retired_bytes();
  const std::uint64_t pending0 = dom.retired_count() - dom.freed_count();

  // Main's lagging pin holds the epoch at e + 1 while the reader pins and
  // the retirer retires, so all 100 are retired in e + 1 and the advance
  // main makes after the exit, to e + 2, runs a sweep over unsafe limbo.
  std::optional<EpochDomain::Guard> lagging(dom.pin());
  const std::uint64_t e = dom.epoch();
  ASSERT_TRUE(dom.try_advance());

  std::atomic<bool> pinned{false};
  std::atomic<bool> unpin{false};
  std::thread reader([&] {
    auto g = dom.pin();
    pinned.store(true);
    while (!unpin.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  std::atomic<bool> retired{false};
  std::atomic<bool> leave{false};
  std::thread retirer([&] {
    {
      auto g = dom.pin();
      for (int i = 0; i < kCount; ++i) {
        dom.retire(static_cast<void*>(new Tracked()),
                   &cachetrie::mr::delete_as<Tracked>, kBytes);
      }
    }
    retired.store(true);
    while (!leave.load()) std::this_thread::yield();
  });
  while (!retired.load()) std::this_thread::yield();
  const std::size_t bytes_before_exit = dom.retired_bytes();
  const std::uint64_t pending_before_exit =
      dom.retired_count() - dom.freed_count();
  EXPECT_EQ(bytes_before_exit, bytes0 + kCount * kBytes);
  EXPECT_EQ(pending_before_exit, pending0 + kCount);
  leave.store(true);
  retirer.join();
  lagging.reset();

  for (int i = 0; i < 10; ++i) {
    auto g = dom.pin();
    dom.try_advance();
  }
  EXPECT_EQ(dom.epoch(), e + 2);  // one sweep ran; the reader blocks more
  EXPECT_EQ(Tracked::live.load(), kCount);
  EXPECT_EQ(dom.retired_bytes(), bytes_before_exit);
  EXPECT_EQ(dom.retired_count() - dom.freed_count(), pending_before_exit);

  unpin.store(true);
  reader.join();
  for (int i = 0; i < 10 && Tracked::live.load() != 0; ++i) {
    auto g = dom.pin();
    dom.try_advance();
  }
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(dom.retired_bytes(), bytes0);
  EXPECT_EQ(dom.retired_count() - dom.freed_count(), pending0);
}

TEST(Epoch, SequentialThreadsAdoptRecordsWithLimbo) {
  // Main holds a guard, so no limbo can be freed. Each thread in turn
  // claims the record its predecessor released, limbo and all, retires
  // more onto it and releases it again. Adoption must neither free nor
  // lose anything: the live objects always equal the unfreed retirements.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();
  Tracked::live.store(0);
  constexpr int kThreads = 64;
  constexpr int kEach = 50;
  const std::uint64_t pending0 = dom.retired_count() - dom.freed_count();
  {
    auto g = dom.pin();
    for (int t = 0; t < kThreads; ++t) {
      std::thread th([&] {
        auto tg = dom.pin();
        for (int i = 0; i < kEach; ++i) dom.retire(new Tracked());
      });
      th.join();
      ASSERT_EQ(static_cast<std::uint64_t>(Tracked::live.load()),
                dom.retired_count() - dom.freed_count() - pending0)
          << "after thread " << t;
    }
    EXPECT_EQ(Tracked::live.load(), kThreads * kEach);
  }
  for (int i = 0; i < 10 && Tracked::live.load() != 0; ++i) {
    auto g = dom.pin();
    dom.try_advance();
  }
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(dom.retired_count() - dom.freed_count(), pending0);
}

TEST(Epoch, ByteAccountingTracksLimbo) {
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();
  const std::size_t bytes0 = dom.retired_bytes();
  const std::size_t hwm0 = dom.retired_bytes_high_water();
  constexpr std::size_t kEach = 512;
  constexpr int kCount = 32;
  {
    auto g = dom.pin();
    for (int i = 0; i < kCount; ++i) {
      dom.retire(static_cast<void*>(new Tracked()),
                 &cachetrie::mr::delete_as<Tracked>, kEach);
    }
    EXPECT_GE(dom.retired_bytes(), bytes0 + kEach * kCount);
  }
  EXPECT_GE(dom.retired_bytes_high_water(), hwm0);
  EXPECT_GE(dom.retired_bytes_high_water(), kEach * kCount);
  dom.drain_for_testing();
  // Every byte accounted in must be accounted back out when freed.
  EXPECT_LE(dom.retired_bytes(), bytes0);
}

TEST(Epoch, ConcurrentAccountingSumsThreadRecords) {
  // Retire and free counts and limbo bytes live in each thread's record;
  // the domain's accessors must add them up exactly once the threads are
  // joined and limbo is drained.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();
  Tracked::live.store(0);
  constexpr int kThreads = 3;
  constexpr int kEach = 1000;
  constexpr std::size_t kBytes = 96;
  const std::uint64_t retired0 = dom.retired_count();
  const std::size_t bytes0 = dom.retired_bytes();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto g = dom.pin();
      for (int i = 0; i < kEach; ++i) {
        dom.retire(static_cast<void*>(new Tracked()),
                   &cachetrie::mr::delete_as<Tracked>, kBytes);
      }
    });
  }
  for (auto& t : threads) t.join();
  dom.drain_for_testing();
  EXPECT_EQ(dom.retired_count() - retired0,
            std::uint64_t{kThreads} * kEach);
  EXPECT_EQ(dom.freed_count(), dom.retired_count());
  EXPECT_EQ(dom.retired_bytes(), bytes0);
  EXPECT_GE(dom.retired_bytes_high_water(), kEach * kBytes);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, HighWaterSurvivesFreeingOwnLimbo) {
  // More retirements than kAdvanceInterval in one guard: the advance they
  // trigger must not lose the peak, and the thread freeing its own limbo
  // afterwards must fold the peak into the stored mark first.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();
  Tracked::live.store(0);
  constexpr int kCount = 200;
  constexpr std::size_t kBytes = 80;
  const std::size_t bytes0 = dom.retired_bytes();
  {
    auto g = dom.pin();
    for (int i = 0; i < kCount; ++i) {
      dom.retire(static_cast<void*>(new Tracked()),
                 &cachetrie::mr::delete_as<Tracked>, kBytes);
    }
  }
  EXPECT_GE(dom.retired_bytes_high_water(), kCount * kBytes);
  // Ordinary guards: each advance lets the guard's exit collect limbo.
  for (int i = 0; i < 10 && Tracked::live.load() != 0; ++i) {
    auto g = dom.pin();
    dom.try_advance();
  }
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_LE(dom.retired_bytes(), bytes0);
  EXPECT_GE(dom.retired_bytes_high_water(), kCount * kBytes);
  dom.drain_for_testing();
}

TEST(LeakReclaimer, CountsButNeverFrees) {
  using cachetrie::mr::LeakReclaimer;
  Tracked::live.store(0);
  const auto leaked0 = LeakReclaimer::leaked_count();
  auto* t1 = new Tracked();
  auto* t2 = new Tracked();
  {
    [[maybe_unused]] auto g = LeakReclaimer::pin();
    LeakReclaimer::retire(t1);
    LeakReclaimer::retire(t2);
  }
  EXPECT_EQ(LeakReclaimer::leaked_count(), leaked0 + 2);
  EXPECT_EQ(Tracked::live.load(), 2);  // still alive: never freed
  delete t1;                            // manual cleanup for the test
  delete t2;
}

}  // namespace
