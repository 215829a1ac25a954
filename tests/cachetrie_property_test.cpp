// cachetrie_property_test.cpp — parameterized property tests: with the
// cache on and off, and in several hash-entropy regimes, a random operation
// sequence must behave exactly like a reference std::map, and the final
// structure must satisfy all quiescent invariants.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "cachetrie/cache_trie.hpp"
#include "util/rng.hpp"

namespace {

using cachetrie::CacheTrie;
using cachetrie::Config;

struct MatrixParam {
  bool use_cache;
  int hash_bits;  // 0 = full-entropy DefaultHash
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& p = info.param;
  std::string s;
  s += p.use_cache ? "cache_" : "nocache_";
  // Compression is always on and always hoists singletons; the token keeps
  // instance names stable.
  s += "compress_hoist_";
  s += p.hash_bits == 0 ? "fullhash" : ("hash" + std::to_string(p.hash_bits));
  s += "_seed" + std::to_string(p.seed);
  return s;
}

class ConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

template <typename Trie>
void run_oracle_sequence(Trie& trie, std::uint64_t seed, int steps,
                         std::uint64_t key_space) {
  std::map<std::uint64_t, std::uint64_t> ref;
  cachetrie::util::XorShift64Star rng{seed};
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t key = rng.next_below(key_space);
    switch (rng.next_below(6)) {
      case 0:
      case 1: {  // upsert
        ASSERT_EQ(trie.insert(key, step), ref.find(key) == ref.end());
        ref[key] = static_cast<std::uint64_t>(step);
        break;
      }
      case 2: {  // put_if_absent
        const bool inserted = trie.put_if_absent(key, step);
        ASSERT_EQ(inserted, ref.find(key) == ref.end());
        if (inserted) ref[key] = static_cast<std::uint64_t>(step);
        break;
      }
      case 3: {  // replace
        const bool replaced = trie.replace(key, step);
        ASSERT_EQ(replaced, ref.find(key) != ref.end());
        if (replaced) ref[key] = static_cast<std::uint64_t>(step);
        break;
      }
      case 4: {  // lookup
        const auto got = trie.lookup(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got.has_value()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 5: {  // remove
        const auto removed = trie.remove(key);
        const auto it = ref.find(key);
        ASSERT_EQ(removed.has_value(), it != ref.end());
        if (it != ref.end()) {
          ASSERT_EQ(*removed, it->second);
          ref.erase(it);
        }
        break;
      }
    }
  }
  ASSERT_EQ(trie.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const auto got = trie.lookup(k);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, v);
  }
  const auto issues = trie.debug_validate();
  ASSERT_TRUE(issues.empty()) << issues.front();
}

TEST_P(ConfigMatrix, OracleSequence) {
  const auto& p = GetParam();
  Config cfg;
  cfg.use_cache = p.use_cache;
  cfg.max_misses = 32;  // exercise sampling/adjustment aggressively
  constexpr int kSteps = 60000;
  constexpr std::uint64_t kKeySpace = 2500;
  switch (p.hash_bits) {
    case 0: {
      CacheTrie<std::uint64_t, std::uint64_t> trie(cfg);
      run_oracle_sequence(trie, p.seed, kSteps, kKeySpace);
      break;
    }
    case 8: {
      // 8-bit hashes: every key collides heavily; LNode chains everywhere.
      CacheTrie<std::uint64_t, std::uint64_t,
                cachetrie::util::DegradedHash<8>>
          trie(cfg);
      run_oracle_sequence(trie, p.seed, kSteps, kKeySpace);
      break;
    }
    case 16: {
      CacheTrie<std::uint64_t, std::uint64_t,
                cachetrie::util::DegradedHash<16>>
          trie(cfg);
      run_oracle_sequence(trie, p.seed, kSteps, kKeySpace);
      break;
    }
    default:
      FAIL() << "unknown hash_bits";
  }
}

std::vector<MatrixParam> matrix_points() {
  std::vector<MatrixParam> points;
  for (bool cache : {false, true}) {
    for (int bits : {0, 8, 16}) {
      points.push_back(MatrixParam{cache, bits, 11});
    }
  }
  // A couple of extra seeds on the full configuration.
  points.push_back(MatrixParam{true, 0, 22});
  points.push_back(MatrixParam{true, 8, 33});
  return points;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ConfigMatrix,
                         ::testing::ValuesIn(matrix_points()), param_name);

// Full-hash-collision torture: all keys in one LNode chain, all operations
// must still be exact.
TEST(CollisionProperty, EverythingInOneChain) {
  CacheTrie<std::uint64_t, std::uint64_t, cachetrie::util::DegradedHash<0>>
      trie;
  std::map<std::uint64_t, std::uint64_t> ref;
  cachetrie::util::XorShift64Star rng{5};
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_below(60);
    if (rng.next_below(2) == 0) {
      ASSERT_EQ(trie.insert(key, step), ref.find(key) == ref.end());
      ref[key] = static_cast<std::uint64_t>(step);
    } else {
      ASSERT_EQ(trie.remove(key).has_value(), ref.erase(key) == 1);
    }
  }
  ASSERT_EQ(trie.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(trie.lookup(k).value(), v);
  }
  ASSERT_TRUE(trie.debug_validate().empty());
}

}  // namespace
