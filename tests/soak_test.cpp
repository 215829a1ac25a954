// soak_test.cpp — randomized soak/fuzz runs: long mixed workloads with
// randomized thread counts, key distributions and configuration, checked
// against per-thread bookkeeping and the structural validators. Iteration
// counts scale with CACHETRIE_SOAK (default keeps CI fast; set it higher
// for an overnight soak).
#include <gtest/gtest.h>

#include <barrier>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "util/rng.hpp"

namespace {

using cachetrie::CacheTrie;
using cachetrie::Config;

int soak_factor() {
  const char* env = std::getenv("CACHETRIE_SOAK");
  const int f = env != nullptr ? std::atoi(env) : 1;
  return f > 0 ? f : 1;
}

/// One soak round: every thread owns a key stripe (ownership makes results
/// exactly checkable even under full concurrency) but all threads also
/// hammer a shared read-only region to keep the cache hot and contended.
void soak_round(std::uint64_t seed, int threads, std::uint64_t per_thread,
                const Config& cfg) {
  CacheTrie<std::uint64_t, std::uint64_t> trie(cfg);
  constexpr std::uint64_t kSharedKeys = 512;
  for (std::uint64_t s = 0; s < kSharedKeys; ++s) {
    trie.insert(~s, s);  // high keys: the shared always-present region
  }
  std::vector<std::vector<std::uint8_t>> present(
      threads, std::vector<std::uint8_t>(per_thread, 0));
  std::atomic<std::uint64_t> shared_misses{0};
  std::barrier start{threads};
  std::vector<std::thread> team;
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      start.arrive_and_wait();
      cachetrie::util::XorShift64Star rng{seed * 977 +
                                          static_cast<std::uint64_t>(t)};
      auto& mine = present[t];
      const std::uint64_t base = static_cast<std::uint64_t>(t) * per_thread;
      const std::uint64_t ops = per_thread * 12;
      for (std::uint64_t op = 0; op < ops; ++op) {
        const std::uint64_t idx = rng.next_below(per_thread);
        const std::uint64_t key = base + idx;
        switch (rng.next_below(8)) {
          case 0:
          case 1:
          case 2: {
            const bool was_new = trie.insert(key, op);
            if (was_new == (mine[idx] != 0)) shared_misses.fetch_add(1 << 16);
            mine[idx] = 1;
            break;
          }
          case 3: {
            const bool removed = trie.remove(key).has_value();
            if (removed != (mine[idx] != 0)) shared_misses.fetch_add(1 << 16);
            mine[idx] = 0;
            break;
          }
          case 4: {
            const bool got = trie.lookup(key).has_value();
            if (got != (mine[idx] != 0)) shared_misses.fetch_add(1 << 16);
            break;
          }
          default: {
            // Shared region reads must always hit.
            const std::uint64_t s = rng.next_below(kSharedKeys);
            if (!trie.contains(~s)) shared_misses.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : team) th.join();
  ASSERT_EQ(shared_misses.load(), 0u)
      << "low 16 bits: shared-region misses; high bits: ownership errors";
  for (int t = 0; t < threads; ++t) {
    const std::uint64_t base = static_cast<std::uint64_t>(t) * per_thread;
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      ASSERT_EQ(trie.contains(base + i), present[t][i] != 0);
    }
  }
  const auto issues = trie.debug_validate();
  ASSERT_TRUE(issues.empty()) << issues.front();
}

TEST(Soak, RandomizedRounds) {
  const int rounds = 4 * soak_factor();
  cachetrie::util::XorShift64Star meta{20260707};
  for (int r = 0; r < rounds; ++r) {
    const int threads = 2 + static_cast<int>(meta.next_below(7));
    const std::uint64_t per_thread = 200 + meta.next_below(1800);
    Config cfg;
    cfg.use_cache = meta.next_below(4) != 0;  // mostly on
    // Compression is always on; the draw keeps later rounds' parameters.
    (void)meta.next_below(4);
    cfg.max_misses = 16u << meta.next_below(8);
    SCOPED_TRACE("round " + std::to_string(r) + " threads " +
                 std::to_string(threads) + " per_thread " +
                 std::to_string(per_thread));
    soak_round(meta.next(), threads, per_thread, cfg);
  }
}

TEST(Soak, DegradedHashRounds) {
  const int rounds = 2 * soak_factor();
  cachetrie::util::XorShift64Star meta{31337};
  for (int r = 0; r < rounds; ++r) {
    CacheTrie<std::uint64_t, std::uint64_t,
              cachetrie::util::DegradedHash<14>>
        trie;
    const int threads = 4;
    const std::uint64_t per = 600;
    std::barrier start{threads};
    std::vector<std::vector<std::uint8_t>> present(
        threads, std::vector<std::uint8_t>(per, 0));
    std::vector<std::thread> team;
    for (int t = 0; t < threads; ++t) {
      team.emplace_back([&, t, r] {
        start.arrive_and_wait();
        cachetrie::util::XorShift64Star rng{
            static_cast<std::uint64_t>(r * 131 + t)};
        auto& mine = present[t];
        for (int op = 0; op < 8000; ++op) {
          const std::uint64_t idx = rng.next_below(per);
          const std::uint64_t key = static_cast<std::uint64_t>(t) * per + idx;
          if (rng.next_below(2) == 0) {
            ASSERT_EQ(trie.insert(key, key), mine[idx] == 0);
            mine[idx] = 1;
          } else {
            ASSERT_EQ(trie.remove(key).has_value(), mine[idx] != 0);
            mine[idx] = 0;
          }
        }
      });
    }
    for (auto& th : team) th.join();
    const auto issues = trie.debug_validate();
    ASSERT_TRUE(issues.empty()) << issues.front();
  }
}

}  // namespace
