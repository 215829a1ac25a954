// Unit tests for the linearizability testkit itself: the Wing–Gong checker
// on hand-crafted histories, the history recorder, the chaos layer's
// determinism, and the mutation smoke test (a deliberately broken map must
// be rejected — a checker that never fails is testing nothing).
//
// This target compiles with CACHETRIE_TESTKIT=1 (see tests/CMakeLists.txt),
// so the chaos hooks are live here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "testkit/chaos.hpp"
#include "testkit/driver.hpp"
#include "testkit/history.hpp"
#include "testkit/lin_check.hpp"

namespace tk = cachetrie::testkit;

static_assert(tk::kChaosCompiled,
              "testkit_test must build with CACHETRIE_TESTKIT=1");

namespace {

// --- hand-crafted history helpers -----------------------------------------

tk::Event ev(std::uint32_t thread, std::uint64_t invoke, std::uint64_t response,
             tk::Op op, std::uint64_t key) {
  tk::Event e;
  e.thread = thread;
  e.invoke = invoke;
  e.response = response;
  e.op = op;
  e.key = key;
  return e;
}

tk::Event insert_ev(std::uint32_t t, std::uint64_t i, std::uint64_t r,
                    std::uint64_t k, std::uint64_t v, bool was_new) {
  tk::Event e = ev(t, i, r, tk::Op::kInsert, k);
  e.arg = v;
  e.ok = was_new;
  return e;
}

tk::Event lookup_ev(std::uint32_t t, std::uint64_t i, std::uint64_t r,
                    std::uint64_t k, std::optional<std::uint64_t> found) {
  tk::Event e = ev(t, i, r, tk::Op::kLookup, k);
  e.has_result = found.has_value();
  if (found) e.result = *found;
  return e;
}

tk::Event remove_ev(std::uint32_t t, std::uint64_t i, std::uint64_t r,
                    std::uint64_t k, std::optional<std::uint64_t> victim) {
  tk::Event e = ev(t, i, r, tk::Op::kRemove, k);
  e.has_result = victim.has_value();
  if (victim) e.result = *victim;
  return e;
}

tk::Event pia_ev(std::uint32_t t, std::uint64_t i, std::uint64_t r,
                 std::uint64_t k, std::uint64_t v, bool inserted) {
  tk::Event e = ev(t, i, r, tk::Op::kPutIfAbsent, k);
  e.arg = v;
  e.ok = inserted;
  return e;
}

// --- checker: legal histories ---------------------------------------------

TEST(LinCheck, EmptyAndSequentialHistoriesPass) {
  EXPECT_FALSE(tk::check_history({}).has_value());
  std::vector<tk::Event> h{
      insert_ev(0, 0, 1, 7, 42, true),
      lookup_ev(0, 2, 3, 7, 42),
      remove_ev(0, 4, 5, 7, 42),
      lookup_ev(0, 6, 7, 7, std::nullopt),
  };
  EXPECT_FALSE(tk::check_history(h).has_value());
}

TEST(LinCheck, ConcurrentHistoryNeedingReorderPasses) {
  // The lookup starts before the insert responds but observes its value —
  // legal only if the insert linearizes first, which their overlapping
  // intervals permit. A naive invoke-order replay would reject this.
  std::vector<tk::Event> h{
      lookup_ev(0, 0, 5, 3, 42),
      insert_ev(1, 1, 4, 3, 42, true),
  };
  EXPECT_FALSE(tk::check_history(h).has_value());
}

TEST(LinCheck, IndependentKeysCheckedIndependently) {
  // Keys 1 and 2 interleave arbitrarily; each key's subhistory is legal.
  std::vector<tk::Event> h{
      insert_ev(0, 0, 3, 1, 10, true),
      insert_ev(1, 1, 4, 2, 20, true),
      lookup_ev(0, 5, 6, 2, 20),
      lookup_ev(1, 7, 8, 1, 10),
  };
  EXPECT_FALSE(tk::check_history(h).has_value());
}

// --- checker: illegal histories -------------------------------------------

TEST(LinCheck, StaleReadRejected) {
  // insert completes strictly before the lookup begins, yet the lookup
  // misses it: no linearization order can explain that.
  std::vector<tk::Event> h{
      insert_ev(0, 0, 1, 7, 42, true),
      lookup_ev(1, 2, 3, 7, std::nullopt),
  };
  auto v = tk::check_history(h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->key, 7u);
  EXPECT_EQ(v->subhistory.size(), 2u);
}

TEST(LinCheck, DoublePutIfAbsentRejectedEvenWhenConcurrent) {
  // Two overlapping put_if_absent on one key both claiming "inserted":
  // whichever linearizes second must have seen the key present.
  std::vector<tk::Event> h{
      pia_ev(0, 0, 3, 5, 1, true),
      pia_ev(1, 1, 4, 5, 2, true),
  };
  EXPECT_TRUE(tk::check_history(h).has_value());
}

TEST(LinCheck, DoubleRemoveOfOneInsertRejected) {
  std::vector<tk::Event> h{
      insert_ev(0, 0, 1, 9, 5, true),
      remove_ev(0, 2, 5, 9, 5),
      remove_ev(1, 3, 6, 9, 5),
  };
  EXPECT_TRUE(tk::check_history(h).has_value());
}

TEST(LinCheck, WrongValueReadRejected) {
  std::vector<tk::Event> h{
      insert_ev(0, 0, 1, 4, 10, true),
      lookup_ev(1, 2, 3, 4, 99),
  };
  EXPECT_TRUE(tk::check_history(h).has_value());
}

TEST(LinCheck, TraceCarriesSeedHistoryAndEvents) {
  std::vector<tk::Event> h{
      insert_ev(0, 0, 1, 7, 42, true),
      lookup_ev(1, 2, 3, 7, std::nullopt),
  };
  auto v = tk::check_history(h);
  ASSERT_TRUE(v.has_value());
  const std::string trace = tk::format_trace(*v, 1234, 56);
  EXPECT_NE(trace.find("chaos seed: 1234"), std::string::npos);
  EXPECT_NE(trace.find("history #56"), std::string::npos);
  EXPECT_NE(trace.find("key: 7"), std::string::npos);
  EXPECT_NE(trace.find("insert(k=7, v=42) -> new"), std::string::npos);
  EXPECT_NE(trace.find("lookup(k=7) -> absent"), std::string::npos);
}

// --- history recorder ------------------------------------------------------

TEST(HistoryRecorder, TicketsAreUniqueAndMergedIsSorted) {
  tk::HistoryRecorder rec(2, 8);
  tk::Event a = insert_ev(0, rec.ticket(), rec.ticket(), 1, 1, true);
  tk::Event b = insert_ev(1, rec.ticket(), rec.ticket(), 2, 2, true);
  rec.append(1, b);
  rec.append(0, a);
  auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_LT(merged[0].invoke, merged[1].invoke);
  EXPECT_EQ(merged[0].key, 1u);
  rec.reset();
  EXPECT_TRUE(rec.merged().empty());
  EXPECT_EQ(rec.ticket(), 0u);  // clock rewound
}

// --- chaos layer -----------------------------------------------------------

TEST(Chaos, DisabledPointsHaveNoEffect) {
  tk::chaos::enable(false);
  tk::chaos::reset_counters();
  for (int i = 0; i < 100; ++i) tk::chaos_point("test.site");
  EXPECT_EQ(tk::chaos::totals().points, 0u);
}

TEST(Chaos, DecisionStreamIsAPureFunctionOfSeedAndThread) {
  auto run = [](std::uint64_t seed) {
    tk::chaos::set_global_seed(seed);
    tk::chaos::enable(true);
    tk::chaos::reset_counters();
    tk::chaos::bind_thread(0);
    for (int i = 0; i < 4096; ++i) tk::chaos_point("test.stream");
    tk::chaos::enable(false);
    return tk::chaos::totals();
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.yields, b.yields);
  EXPECT_EQ(a.spins, b.spins);
  // Different seeds explore different streams (equal yield AND spin counts
  // over 4096 draws for two random seeds would be astronomically unlucky).
  const auto c = run(43);
  EXPECT_TRUE(a.yields != c.yields || a.spins != c.spins);
}

TEST(Chaos, SiteHitsAttributeToTheRightSite) {
  tk::chaos::set_global_seed(7);
  tk::chaos::enable(true);
  tk::chaos::reset_counters();
  tk::chaos::bind_thread(0);
  for (int i = 0; i < 10; ++i) tk::chaos_point("test.site_a");
  tk::chaos_point("test.site_b");
  tk::chaos::enable(false);
  EXPECT_GE(tk::chaos::site_hits("test.site_a"), 10u);
  EXPECT_GE(tk::chaos::site_hits("test.site_b"), 1u);
}

TEST(Chaos, SiteHashIsCompileTimeAndStable) {
  static_assert(tk::site_hash("cachetrie.txn_commit") !=
                tk::site_hash("cachetrie.txn_announce"));
  constexpr std::uint64_t h = tk::site_hash("x");
  EXPECT_EQ(h, tk::site_hash("x"));
}

// --- mutation smoke: the checker must have teeth ---------------------------

/// Deliberately non-linearizable map — the mutation smoke test that proves
/// the checker has teeth. Every mutation is a non-atomic read-modify-write
/// with a forced reschedule inside the window, so two concurrent
/// put_if_absent calls on a key can both report "inserted" and two
/// concurrent removes can both claim the victim. All cells are atomics, so
/// the breakage is purely protocol-level (no UB, no torn reads) — exactly
/// the class of bug a botched CAS protocol would introduce and end-state
/// assertions cannot see.
class BrokenMap {
 public:
  explicit BrokenMap(std::size_t key_space = 1024)
      : size_(key_space), slots_(new Slot[key_space]) {}

  bool insert(std::uint64_t k, std::uint64_t v) {
    Slot& s = at(k);
    const bool was = s.present.load(std::memory_order_relaxed);
    std::this_thread::yield();  // the "lost CAS" stand-in
    s.value.store(v, std::memory_order_relaxed);
    s.present.store(true, std::memory_order_relaxed);
    return !was;
  }

  bool put_if_absent(std::uint64_t k, std::uint64_t v) {
    Slot& s = at(k);
    if (s.present.load(std::memory_order_relaxed)) return false;
    std::this_thread::yield();
    s.value.store(v, std::memory_order_relaxed);
    s.present.store(true, std::memory_order_relaxed);
    return true;
  }

  std::optional<std::uint64_t> lookup(std::uint64_t k) const {
    const Slot& s = at(k);
    if (!s.present.load(std::memory_order_relaxed)) return std::nullopt;
    return s.value.load(std::memory_order_relaxed);
  }

  std::optional<std::uint64_t> remove(std::uint64_t k) {
    Slot& s = at(k);
    if (!s.present.load(std::memory_order_relaxed)) return std::nullopt;
    std::this_thread::yield();
    const std::uint64_t v = s.value.load(std::memory_order_relaxed);
    s.present.store(false, std::memory_order_relaxed);
    return v;
  }

 private:
  struct Slot {
    std::atomic<bool> present{false};
    std::atomic<std::uint64_t> value{0};
  };

  Slot& at(std::uint64_t k) { return slots_[k % size_]; }
  const Slot& at(std::uint64_t k) const { return slots_[k % size_]; }

  std::size_t size_;
  std::unique_ptr<Slot[]> slots_;
};

TEST(MutationSmoke, BrokenMapIsRejected) {
  // BrokenMap's mutations are non-atomic read-modify-writes with a forced
  // reschedule in the window; under 4 contending threads the checker must
  // catch it quickly. If this test ever passes 2000 histories clean, the
  // checker (or the recorder) has lost its teeth.
  tk::DriverConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 12;
  cfg.key_range = 2;  // maximize same-key collisions
  cfg.histories = 2000;
  cfg.seed = 1;
  auto result = tk::run_histories(
      [] { return std::make_unique<BrokenMap>(); }, cfg);
  ASSERT_TRUE(result.violation.has_value())
      << "non-linearizable BrokenMap survived " << result.histories_checked
      << " histories undetected";
  EXPECT_FALSE(result.trace.empty());
  EXPECT_NE(result.trace.find("chaos seed: 1"), std::string::npos);
}

TEST(MutationSmoke, ViolationReproducesFromPrintedSeed) {
  tk::DriverConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 12;
  cfg.key_range = 2;
  cfg.histories = 2000;
  cfg.seed = 99;
  auto make = [] { return std::make_unique<BrokenMap>(); };
  auto first = tk::run_histories(make, cfg);
  ASSERT_TRUE(first.violation.has_value());
  // Re-running the identical (seed, config) replays the identical workload
  // and chaos streams; the bug must resurface, and the trace must again
  // carry the seed that provokes it.
  auto second = tk::run_histories(make, cfg);
  ASSERT_TRUE(second.violation.has_value());
  EXPECT_NE(second.trace.find("chaos seed: 99"), std::string::npos);
}

}  // namespace
