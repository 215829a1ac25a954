// depth_distribution_test.cpp — property tests for the paper's statistical
// analysis (§4.1):
//
//   Theorem 4.1: with a universal hash, the probability that a key sits at
//     separation depth d in a trie of n+1 keys is
//       p(d, n) = (1 - 16^{-d-1})^n - (1 - 16^{-d})^n.
//   Theorem 4.2: as n grows, some pair of adjacent levels holds 87.45% to
//     97.46% of the keys.
//   Theorem 4.3: the expected key depth is log16(n) + O(1).
//
// Depth convention: our histogram indexes SNodes by level/4 (an SNode
// directly under the root has index 1); the paper's depth d corresponds to
// index d+1 (its p(0, n) is the probability that no other key shares the
// first nibble — exactly our index 1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "harness/workload.hpp"

namespace {

using cachetrie::CacheTrie;
using cachetrie::LevelHistogram;

double p_of_depth(int d, double n) {
  const double a = 1.0 - std::pow(16.0, -(d + 1));
  const double b = 1.0 - std::pow(16.0, -d);
  return std::pow(a, n) - std::pow(b, n);
}

class DepthDistribution : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DepthDistribution, MatchesTheorem41ClosedForm) {
  const std::size_t n = GetParam();
  CacheTrie<std::uint64_t, std::uint64_t> trie;
  for (auto k : cachetrie::harness::random_keys(n, /*seed=*/1234 + n)) {
    trie.insert(k, k);
  }
  const LevelHistogram hist = trie.level_histogram();
  ASSERT_EQ(hist.total, n);
  // Compare the empirical fraction at every depth with the closed form.
  for (int idx = 1; idx < 12; ++idx) {
    const double expected = p_of_depth(idx - 1, static_cast<double>(n - 1));
    const double actual =
        static_cast<double>(hist.counts[static_cast<std::size_t>(idx)]) /
        static_cast<double>(n);
    // Binomial noise: generous 3-sigma-ish band plus an absolute floor.
    const double sigma =
        std::sqrt(expected * (1 - expected) / static_cast<double>(n));
    EXPECT_NEAR(actual, expected, 5 * sigma + 0.01)
        << "depth index " << idx << " n " << n;
  }
}

TEST_P(DepthDistribution, Theorem42TwoAdjacentLevelsDominate) {
  const std::size_t n = GetParam();
  CacheTrie<std::uint64_t, std::uint64_t> trie;
  for (auto k : cachetrie::harness::random_keys(n, /*seed=*/99 + n)) {
    trie.insert(k, k);
  }
  const auto hist = trie.level_histogram();
  // The paper proves the asymptotic share is in (0.8745, 0.9746); finite n
  // fluctuates, so assert a slightly relaxed lower bound.
  EXPECT_GE(hist.top_pair_share(), 0.85) << "n = " << n;
  EXPECT_LE(hist.top_pair_share(), 1.0);
}

TEST_P(DepthDistribution, Theorem43ExpectedDepthIsLog16N) {
  const std::size_t n = GetParam();
  CacheTrie<std::uint64_t, std::uint64_t> trie;
  for (auto k : cachetrie::harness::random_keys(n, /*seed=*/7 + n)) {
    trie.insert(k, k);
  }
  const auto hist = trie.level_histogram();
  double mean_idx = 0;
  for (std::size_t d = 0; d < hist.counts.size(); ++d) {
    mean_idx += static_cast<double>(d) * hist.counts[d];
  }
  mean_idx /= static_cast<double>(hist.total);
  const double log16n = std::log(static_cast<double>(n)) / std::log(16.0);
  // E[depth] = log16(n) + O(1): the constant is provably small.
  EXPECT_NEAR(mean_idx, log16n, 1.5) << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, DepthDistribution,
                         ::testing::Values(1000, 10000, 100000, 400000,
                                           800000));

// A trie that concurrent writers built: 4 threads insert disjoint slices of
// the same keys. A leaf's level depends only on the set of keys (its
// longest hash prefix shared with another key), not on the insert order,
// so the histogram equals a single-threaded fill's, and Theorem 4.2 holds
// for it as above.
TEST(DepthDistributionConcurrent, FourWriterFillMatchesSequentialFill) {
  constexpr std::size_t kThreads = 4;
  const auto keys = cachetrie::harness::random_keys(1u << 18, /*seed=*/4242);
  CacheTrie<std::uint64_t, std::uint64_t> sequential;
  for (auto k : keys) sequential.insert(k, k);
  CacheTrie<std::uint64_t, std::uint64_t> concurrent;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const std::size_t slice = keys.size() / kThreads;
      for (std::size_t i = t * slice; i < (t + 1) * slice; ++i) {
        concurrent.insert(keys[i], keys[i]);
      }
    });
  }
  for (auto& w : writers) w.join();
  const LevelHistogram want = sequential.level_histogram();
  const LevelHistogram got = concurrent.level_histogram();
  ASSERT_EQ(got.total, keys.size());
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_GE(got.top_pair_share(), 0.85);
}

// The flip side of Theorem 4.1's assumption: a non-universal hash can make
// the trie deep (the paper's introduction notes depth can reach O(n)
// without uniformity). A hash whose low 32 bits are constant forces every
// key through 8 shared nibbles before any separation is possible.
struct LowBitsSharedHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return k << 32;  // low 8 nibbles identical for all keys
  }
};

TEST(DepthDistributionAdversarial, SharedLowBitsDeepenTheTrie) {
  CacheTrie<std::uint64_t, std::uint64_t> good;
  CacheTrie<std::uint64_t, std::uint64_t, LowBitsSharedHash> bad;
  constexpr std::size_t kN = 20000;
  for (std::uint64_t k = 0; k < kN; ++k) {
    good.insert(k, k);
    bad.insert(k, k);
  }
  auto mean_depth = [](const LevelHistogram& h) {
    double m = 0;
    for (std::size_t d = 0; d < h.counts.size(); ++d) {
      m += static_cast<double>(d) * h.counts[d];
    }
    return m / static_cast<double>(h.total);
  };
  // Every key must descend past the 8 shared nibbles.
  EXPECT_GE(mean_depth(bad.level_histogram()), 8.0);
  EXPECT_GT(mean_depth(bad.level_histogram()),
            mean_depth(good.level_histogram()) + 3.0);
  // Correctness is unaffected by the adversarial hash.
  for (std::uint64_t k = 0; k < kN; k += 97) {
    ASSERT_TRUE(bad.contains(k));
  }
}

// Saturating the hash the other way (only 12 low bits of entropy) caps the
// trie at depth 3 and piles keys into collision chains — depth must stay
// bounded and lookups exact.
TEST(DepthDistributionAdversarial, LowEntropySaturatesIntoChains) {
  CacheTrie<std::uint64_t, std::uint64_t, cachetrie::util::DegradedHash<12>>
      trie;
  constexpr std::size_t kN = 20000;
  for (std::uint64_t k = 0; k < kN; ++k) trie.insert(k, k);
  const auto hist = trie.level_histogram();
  for (std::size_t d = 5; d < hist.counts.size(); ++d) {
    EXPECT_EQ(hist.counts[d], 0u) << "depth " << d;
  }
  EXPECT_EQ(hist.total, kN);
  for (std::uint64_t k = 0; k < kN; k += 37) {
    ASSERT_EQ(trie.lookup(k).value(), k);
  }
}

}  // namespace
