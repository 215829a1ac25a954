// epoch_test.cpp — unit and stress tests for epoch-based reclamation.
//
// Note: EpochDomain is a process-wide singleton, so tests share it; each
// test only asserts deltas of the retired/freed counters it caused, or
// properties that hold regardless of other tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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

TEST(Epoch, OrphanedLimboFreedBySurvivors) {
  // A thread that exits with a non-empty limbo orphans its items; surviving
  // threads must free them through ordinary advances — no drain_for_testing,
  // which a real deployment never calls.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();  // start from an empty limbo
  Tracked::live.store(0);
  std::thread t([&] {
    auto g = dom.pin();
    for (int i = 0; i < 100; ++i) dom.retire(new Tracked());
  });
  t.join();  // records orphaned on thread exit
  for (int i = 0; i < 10 && Tracked::live.load() != 0; ++i) {
    auto g = dom.pin();
    dom.try_advance();  // successful advances collect orphans
  }
  EXPECT_EQ(Tracked::live.load(), 0);
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

TEST(Epoch, StalledReaderFallbackKeepsGarbageBounded) {
  // One reader parks forever inside a guard — classic EBR would pin the
  // epoch and let limbo grow for as long as the churn lasts. With a byte
  // cap and the stall fallback, the reader must get declared stalled, the
  // epoch must move past it, and limbo bytes must stay near the cap.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();
  Tracked::live.store(0);

  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread victim([&] {
    auto g = dom.pin();
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // Benign model violation: the "stalled" reader wakes and exits its
    // guard without touching shared memory. Counted, not crashed.
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr std::size_t kCap = 64 * 1024;
  constexpr std::size_t kEach = 64;
  dom.set_limbo_cap_bytes(kCap);
  dom.set_stall_lag_epochs(4);
  const std::uint64_t scans0 = dom.fallback_scans();
  const std::uint64_t stalled0 = dom.stalled_records();
  const std::uint64_t exits0 = dom.stalled_guard_exits();
  const std::uint64_t epoch0 = dom.epoch();

  std::size_t max_seen = 0;
  for (int i = 0; i < 5000; ++i) {
    auto g = dom.pin();
    dom.retire(static_cast<void*>(new Tracked()),
               &cachetrie::mr::delete_as<Tracked>, kEach);
    max_seen = std::max(max_seen, dom.retired_bytes());
  }

  // The fallback ran, declared the victim, and the epoch moved past it.
  EXPECT_GT(dom.fallback_scans(), scans0);
  EXPECT_EQ(dom.stalled_records(), stalled0 + 1);
  EXPECT_GE(dom.epoch(), epoch0 + 2);
  // Bounded garbage: the brief overshoot is the handful of retirements it
  // takes the fallback to declare the victim, not the whole churn.
  EXPECT_LT(max_seen, kCap + 8 * 1024);

  release.store(true, std::memory_order_release);
  victim.join();
  // The benign resume above is the one permitted declared-reader exit.
  EXPECT_EQ(dom.stalled_guard_exits(), exits0 + 1);
  EXPECT_EQ(dom.stalled_records(), stalled0);

  dom.set_limbo_cap_bytes(EpochDomain::kNoLimboCap);
  dom.set_stall_lag_epochs(EpochDomain::kDefaultStallLagEpochs);
  dom.drain_for_testing();
  EXPECT_EQ(Tracked::live.load(), 0);
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
