// evict_policy_test.cpp — the bounded mode's one eviction policy
// (evict_policy.hpp), driven directly with an injectable clock and a fake
// scan, so every boundary is exact: the TTL floor, the LRU floor, and the
// adaptive idle window's halving and relaxing. CacheTrie and BoundedChm
// both decide eviction through this type.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "cachetrie/evict_policy.hpp"

namespace {

using cachetrie::evict::BoundedConfig;
using cachetrie::kLruIdleTicks;
using cachetrie::evict::Horizon;
using cachetrie::evict::Policy;

std::atomic<std::uint64_t> g_clock{0};
std::uint64_t test_clock() { return g_clock.load(std::memory_order_relaxed); }

constexpr std::size_t kCeiling = 4000;

BoundedConfig policy_config(std::size_t ceiling, std::uint64_t ttl) {
  BoundedConfig cfg;
  cfg.ceiling_bytes = ceiling;
  cfg.ttl_ticks = ttl;
  cfg.tick_fn = &test_clock;
  return cfg;
}

/// Runs one writer's enforcement with `resident` bytes and a scan that
/// evicts `evicts` pairs; returns the horizon the scan saw (all zero when
/// no scan ran).
Horizon enforce(Policy& p, std::size_t resident, std::size_t evicts,
                bool* scanned = nullptr) {
  Horizon hz = p.horizon();
  Horizon seen{};
  bool ran = false;
  p.backpressure(
      hz, [&] { return resident; },
      [&](const Horizon& h) {
        ran = true;
        seen = h;
        return evicts;
      });
  if (scanned != nullptr) *scanned = ran;
  return seen;
}

TEST(EvictPolicy, TtlFloorBoundaries) {
  Policy p(policy_config(0, 10));
  g_clock.store(10, std::memory_order_relaxed);
  Horizon hz = p.horizon();
  // now == ttl: no floor yet, nothing has lived long enough to expire.
  EXPECT_EQ(hz.now, 10u);
  EXPECT_EQ(hz.ttl_floor, 0u);
  EXPECT_FALSE(hz.expired(0));
  EXPECT_FALSE(hz.evictable(0));

  g_clock.store(100, std::memory_order_relaxed);
  hz = p.horizon();
  EXPECT_EQ(hz.ttl_floor, 90u);
  // A stamp exactly at the floor is live; one tick older is a corpse.
  EXPECT_TRUE(hz.expired(89));
  EXPECT_FALSE(hz.expired(90));
  EXPECT_TRUE(hz.evictable(89));
  EXPECT_FALSE(hz.evictable(90));

  // Under pressure the LRU floor widens evictable, never expired.
  hz.lru_floor = 95;
  EXPECT_TRUE(hz.evictable(94));
  EXPECT_FALSE(hz.evictable(95));
  EXPECT_FALSE(hz.expired(94));
}

TEST(EvictPolicy, LogicalClockTicksOncePerHorizon) {
  BoundedConfig cfg;
  cfg.ttl_ticks = 5;
  Policy p(cfg);
  for (std::uint64_t t = 1; t <= 8; ++t) {
    const Horizon hz = p.horizon();
    EXPECT_EQ(hz.now, t);
    EXPECT_EQ(hz.ttl_floor, t > 5 ? t - 5 : 0);
  }
}

TEST(EvictPolicy, NoScanAtOrUnderTheCeiling) {
  Policy p(policy_config(kCeiling, 0));
  g_clock.store(5000, std::memory_order_relaxed);
  bool scanned = true;
  enforce(p, kCeiling, 0, &scanned);
  EXPECT_FALSE(scanned);
  enforce(p, kCeiling + 1, 1, &scanned);
  EXPECT_TRUE(scanned);

  // No ceiling: never scans, never even reads the resident count.
  Policy unbounded(policy_config(0, 10));
  Horizon hz = unbounded.horizon();
  bool read = false;
  unbounded.backpressure(
      hz,
      [&] {
        read = true;
        return std::numeric_limits<std::size_t>::max();
      },
      [&](const Horizon&) {
        ADD_FAILURE() << "scan without a ceiling";
        return std::size_t{0};
      });
  EXPECT_FALSE(read);
  EXPECT_EQ(hz.lru_floor, 0u);
}

TEST(EvictPolicy, WindowHalvesOnFruitlessScansDownToOne) {
  Policy p(policy_config(kCeiling, 0));
  g_clock.store(5000, std::memory_order_relaxed);
  EXPECT_EQ(p.idle_window(), kLruIdleTicks);

  // The scan sees the floor of the window it ran with.
  Horizon seen = enforce(p, kCeiling + 1, 0);
  EXPECT_EQ(seen.lru_floor, 5000 - kLruIdleTicks);
  EXPECT_EQ(p.idle_window(), kLruIdleTicks / 2);

  // A scan that frees something keeps the window.
  enforce(p, kCeiling + 1, 3);
  EXPECT_EQ(p.idle_window(), kLruIdleTicks / 2);

  std::uint64_t expect = kLruIdleTicks / 2;
  while (expect > 1) {
    enforce(p, kCeiling + 1, 0);
    expect /= 2;
    EXPECT_EQ(p.idle_window(), expect);
  }
  for (int i = 0; i < 5; ++i) enforce(p, kCeiling + 1, 0);
  EXPECT_EQ(p.idle_window(), 1u);
  seen = enforce(p, kCeiling + 1, 0);
  EXPECT_EQ(seen.lru_floor, 4999u);

  // A window wider than the clock's age floors at now: everything older
  // than this tick is evictable.
  g_clock.store(1, std::memory_order_relaxed);
  Policy young(policy_config(kCeiling, 0));
  seen = enforce(young, kCeiling + 1, 1);
  EXPECT_EQ(seen.lru_floor, 1u);
}

TEST(EvictPolicy, WindowRelaxesOnlyAtThreeQuartersOfTheCeiling) {
  Policy p(policy_config(kCeiling, 0));
  g_clock.store(5000, std::memory_order_relaxed);
  while (p.idle_window() > 1) enforce(p, kCeiling + 1, 0);

  // Under the ceiling but above 3/4 of it: the window stays tight.
  enforce(p, kCeiling, 0);
  enforce(p, kCeiling * 3 / 4 + 1, 0);
  EXPECT_EQ(p.idle_window(), 1u);

  // At 3/4: doubles once per writer, up to kLruIdleTicks and no further.
  std::uint64_t expect = 1;
  while (expect < kLruIdleTicks) {
    bool scanned = true;
    enforce(p, kCeiling * 3 / 4, 0, &scanned);
    EXPECT_FALSE(scanned);
    expect *= 2;
    EXPECT_EQ(p.idle_window(), expect);
  }
  enforce(p, 0, 0);
  EXPECT_EQ(p.idle_window(), kLruIdleTicks);
}

TEST(EvictPolicy, NearCeilingAndHeadroom) {
  Policy p(policy_config(kCeiling, 0));
  EXPECT_FALSE(p.near_ceiling(3599, 0.9));
  EXPECT_TRUE(p.near_ceiling(3600, 0.9));
  EXPECT_EQ(p.headroom_bytes(1000), kCeiling - 1000);
  EXPECT_EQ(p.headroom_bytes(kCeiling + 1), 0u);

  Policy unbounded(policy_config(0, 10));
  EXPECT_FALSE(unbounded.near_ceiling(std::numeric_limits<std::size_t>::max(),
                                      0.0));
  EXPECT_EQ(unbounded.headroom_bytes(123),
            std::numeric_limits<std::size_t>::max());
}

}  // namespace
