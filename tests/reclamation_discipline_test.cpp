// reclamation_discipline_test.cpp — failure-injection-style validation of
// the reclamation protocol: every structure is run under a diagnostic
// reclaimer that never frees but records every retired pointer. Because
// memory is never reused, a pointer retired twice is an exact double-retire
// detection (the bug class behind most lock-free use-after-frees: two
// "winners" both believing they unlinked a node).
#include <gtest/gtest.h>

#include <barrier>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "skiplist/skiplist.hpp"
#include "util/rng.hpp"

namespace {

/// Defers all frees until free_all(); detects double retirement exactly
/// because no retired pointer's memory is ever reused while recorded.
struct AuditReclaimer {
  struct Guard {};
  static Guard pin() noexcept { return {}; }

  template <typename T>
  static void retire(T* p) {
    record(static_cast<void*>(p), &cachetrie::mr::delete_as<T>);
  }
  static void retire_raw_sized(void* p, cachetrie::mr::Deleter d,
                               std::size_t) {
    record(p, d);
  }

  static void record(void* p, cachetrie::mr::Deleter d) {
    std::lock_guard<std::mutex> lock{mu_};
    const bool fresh = seen_.emplace(p, d).second;
    if (!fresh) ++double_retires_;
  }

  static void reset() {
    std::lock_guard<std::mutex> lock{mu_};
    seen_.clear();
    double_retires_ = 0;
  }

  /// Frees every recorded object. Call after the owning structure is
  /// destroyed (and thus holds no references into the audit set).
  static void free_all() {
    std::lock_guard<std::mutex> lock{mu_};
    for (const auto& [p, d] : seen_) d(p);
    seen_.clear();
  }

  static std::size_t double_retires() {
    std::lock_guard<std::mutex> lock{mu_};
    return double_retires_;
  }

  static inline std::mutex mu_;
  static inline std::unordered_map<void*, cachetrie::mr::Deleter> seen_;
  static inline std::size_t double_retires_ = 0;
};

constexpr int kThreads = 8;
constexpr int kPerThread = 1200;
constexpr int kOps = 25000;

template <typename Map>
void churn(Map& map) {
  std::barrier start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      cachetrie::util::XorShift64Star rng{static_cast<std::uint64_t>(t) + 1};
      for (int op = 0; op < kOps; ++op) {
        // Threads deliberately overlap key ranges to maximize contention on
        // the retire-owning CAS winners.
        const std::uint64_t key = rng.next_below(kPerThread * 2);
        switch (rng.next_below(3)) {
          case 0:
            map.insert(key, key);
            break;
          case 1:
            (void)map.lookup(key);
            break;
          case 2:
            (void)map.remove(key);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST(ReclamationDiscipline, CacheTrieNeverDoubleRetires) {
  AuditReclaimer::reset();
  {
    cachetrie::Config cfg;
    cfg.max_misses = 32;  // force frequent cache adjustment too
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                         cachetrie::util::DefaultHash<std::uint64_t>,
                         AuditReclaimer>
        map(cfg);
    churn(map);
    EXPECT_TRUE(map.debug_validate().empty());
  }
  EXPECT_EQ(AuditReclaimer::double_retires(), 0u);
  AuditReclaimer::free_all();
}

TEST(ReclamationDiscipline, CacheTrieDegradedHashNeverDoubleRetires) {
  AuditReclaimer::reset();
  {
    // Narrow hashes force expansion/compression/LNode storms.
    cachetrie::CacheTrie<std::uint64_t, std::uint64_t,
                         cachetrie::util::DegradedHash<10>, AuditReclaimer>
        map;
    churn(map);
  }
  EXPECT_EQ(AuditReclaimer::double_retires(), 0u);
  AuditReclaimer::free_all();
}

TEST(ReclamationDiscipline, CtrieNeverDoubleRetires) {
  AuditReclaimer::reset();
  {
    cachetrie::ctrie::Ctrie<std::uint64_t, std::uint64_t,
                            cachetrie::util::DegradedHash<12>, AuditReclaimer>
        map;
    churn(map);
    EXPECT_TRUE(map.debug_validate().empty());
  }
  EXPECT_EQ(AuditReclaimer::double_retires(), 0u);
  AuditReclaimer::free_all();
}

TEST(ReclamationDiscipline, CHashMapNeverDoubleRetires) {
  AuditReclaimer::reset();
  {
    cachetrie::chm::ConcurrentHashMap<std::uint64_t, std::uint64_t,
                                      cachetrie::util::DefaultHash<std::uint64_t>,
                                      AuditReclaimer>
        map(16);  // small initial table: many cooperative resizes
    churn(map);
  }
  EXPECT_EQ(AuditReclaimer::double_retires(), 0u);
  AuditReclaimer::free_all();
}

TEST(ReclamationDiscipline, SkipListNeverDoubleRetires) {
  AuditReclaimer::reset();
  {
    cachetrie::csl::ConcurrentSkipList<std::uint64_t, std::uint64_t,
                                       std::less<std::uint64_t>,
                                       AuditReclaimer>
        map;
    churn(map);
    EXPECT_TRUE(map.debug_validate().empty());
  }
  EXPECT_EQ(AuditReclaimer::double_retires(), 0u);
  AuditReclaimer::free_all();
}

}  // namespace
