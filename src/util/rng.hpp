// rng.hpp — fast pseudo-random number generation for workload generators and
// the cache-trie's depth-sampling pass (paper §3.6).
//
// Not cryptographic. xoshiro-class quality is sufficient: the sampler only
// needs hash-codes that descend uniformly random trie paths.
#pragma once

#include <cstdint>

#include "util/hashing.hpp"
#include "util/thread_id.hpp"

namespace cachetrie::util {

/// splitmix64 sequence generator — used to seed and to produce key streams.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return splitmix64_finalize(state_);
  }

 private:
  std::uint64_t state_;
};

/// xorshift64* — tiny state, good enough for sampling random trie descents.
class XorShift64Star {
 public:
  constexpr explicit XorShift64Star(std::uint64_t seed) noexcept
      : state_(seed ? seed : 0x853c49e6748fea9bULL) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545f4914f6cdd1dULL;
  }

  /// Uniform value in [0, bound) without modulo bias worth caring about here.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    return next() % bound;
  }

 private:
  std::uint64_t state_;
};

/// Per-thread RNG, seeded from the dense thread id so two threads never
/// share a stream.
inline XorShift64Star& thread_rng() noexcept {
  thread_local XorShift64Star rng{
      mix64(0x9e3779b97f4a7c15ULL * (current_thread_id() + 1))};
  return rng;
}

}  // namespace cachetrie::util
