// stalled_reclaimer_test.cpp — plain EBR under a stalled reader: one thread
// parks forever while it holds an EBR guard inside a CacheTrie operation,
// and another churns inserts and removes. Nothing retired after the
// victim's pin can be freed, so limbo grows with the churn; once the
// victim is released and leaves its guard, the same churn drains it.
// Survivor progress under forever-stalls is LockFreedom.* in
// watchdog_progress_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "cachetrie/cache_trie.hpp"
#include "mr/epoch.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using tk::Site;
using cachetrie::mr::EpochDomain;
using namespace std::chrono_literals;

using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;

TEST(StalledReclaimer, StalledReaderHoldsLimboUntilItExits) {
  // Count-based churn so the garbage volume is deterministic regardless of
  // machine speed.
  auto& dom = EpochDomain::instance();
  dom.drain_for_testing();

  tk::chaos::set_global_seed(8);
  tk::chaos::enable(true);
  fault::install(fault::Plan(8).stall(Site::cachetrie_pinned, fault::kForever,
                                      /*thread=*/0));

  Trie trie;
  std::atomic<bool> victim_done{false};
  std::thread victim([&] {
    tk::chaos::bind_thread(0);
    try {
      trie.insert(0xdead0002, 1);
    } catch (const fault::ThreadKilled&) {
      ADD_FAILURE() << "a stalled victim was killed on resume";
    }
    victim_done.store(true, std::memory_order_release);
  });
  const auto park_deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::parked_now() == 0 &&
         std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::parked_now(), 1u);

  // ~50k removals x ~tens of bytes per retired node: well over 1 MiB of
  // garbage, none of it collectable while the victim pins the epoch.
  tk::chaos::bind_thread(9);
  std::size_t max_bytes = 0;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const std::uint64_t k = i % 8192;
    trie.insert(k, i);
    trie.remove(k);
    max_bytes = std::max(max_bytes, dom.retired_bytes());
  }
  EXPECT_GT(max_bytes, 1u << 20)
      << "EBR should have accumulated limbo behind the stall";

  fault::clear();
  victim.join();
  EXPECT_TRUE(victim_done.load(std::memory_order_acquire));
  tk::chaos::enable(false);

  // Recovery: with the reader gone, the epoch advances again and the
  // stalled backlog is freed within a few grace periods of ordinary churn.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    trie.insert(i, i);
    trie.remove(i);
  }
  std::printf("  limbo: %zu B behind the stall, %zu B after recovery\n",
              max_bytes, dom.retired_bytes());
  EXPECT_LT(dom.retired_bytes(), max_bytes / 100)
      << "limbo stayed high after the stalled reader left its guard";
}

}  // namespace
