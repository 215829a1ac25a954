// hashing.hpp — hash functions used by all four concurrent maps.
//
// The paper's analysis (Theorems 4.1-4.4) assumes a *universal* hash function:
// each hash bit of distinct keys is independently uniform. std::hash for
// integers is typically the identity, which badly violates that assumption
// (sequential keys would all collide in their low trie slices beyond the first
// few levels... actually the opposite: they'd spread perfectly at low levels
// but correlate adversarially for other key patterns). All maps in this repo
// therefore pass the user hash through a strong 64-bit finalizer by default.
//
// `DegradedHash` deliberately truncates entropy so tests and benches can
// exercise deep, unbalanced tries (the paper's observation that trie depth is
// O(n) for non-uniform hashes).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace cachetrie::util {

/// The splitmix64 finalizer (Stafford variant 13): the one 64-bit mixer
/// behind mix64, SplitMix64, the chaos streams and lin_check's state hash.
constexpr std::uint64_t splitmix64_finalize(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One splitmix64 step from `x`: the golden-ratio increment, then the
/// finalizer. Passes practical avalanche tests; used as the default
/// post-mixer for every key type.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  return splitmix64_finalize(x + 0x9e3779b97f4a7c15ULL);
}

// Pinned outputs: every key's hash and every chaos seed's replay depend on
// these bits, so an edit that changes them must fail the build.
static_assert(splitmix64_finalize(0) == 0);
static_assert(splitmix64_finalize(1) == 0x5692161d100b05e5ULL);
static_assert(splitmix64_finalize(~0ULL) == 0xb4d055fcf2cbbd7bULL);
static_assert(mix64(0) == 0xe220a8397b1dcdafULL);
static_assert(mix64(42) == 0xbdd732262feb6e95ULL);
static_assert(mix64(~0ULL) == 0xe4d971771b652c20ULL);

/// Murmur3 fmix64 — alternative finalizer, used by tests to cross-check that
/// results do not depend on one particular mixer.
constexpr std::uint64_t fmix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a for byte strings (used by the string-key specialization).
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Default hasher: std::hash then a strong finalizer so that all 64 output
/// bits are usable as trie slices (the universality assumption of Thm 4.1).
template <typename K>
struct DefaultHash {
  std::uint64_t operator()(const K& k) const
      noexcept(noexcept(std::hash<K>{}(k))) {
    return mix64(static_cast<std::uint64_t>(std::hash<K>{}(k)));
  }
};

template <>
struct DefaultHash<std::string> {
  std::uint64_t operator()(const std::string& s) const noexcept {
    return mix64(fnv1a(s));
  }
};

template <>
struct DefaultHash<std::string_view> {
  std::uint64_t operator()(std::string_view s) const noexcept {
    return mix64(fnv1a(s));
  }
};

/// Identity hash for integral keys — deliberately non-universal; used by
/// tests that need precise control over trie paths.
struct IdentityHash {
  template <typename K>
  std::uint64_t operator()(const K& k) const noexcept {
    return static_cast<std::uint64_t>(k);
  }
};

/// Keeps only the low `Bits` bits of entropy, replicated upward. With Bits=0
/// every key collides on every level — the degenerate O(n)-depth case the
/// paper mentions in the introduction; small Bits produce deep skewed tries.
template <int Bits>
struct DegradedHash {
  static_assert(Bits >= 0 && Bits <= 64);
  template <typename K>
  std::uint64_t operator()(const K& k) const noexcept {
    if constexpr (Bits == 0) {
      (void)k;
      return 0;
    } else {
      const std::uint64_t mask =
          Bits >= 64 ? ~0ULL : ((1ULL << Bits) - 1);
      return mix64(static_cast<std::uint64_t>(std::hash<K>{}(k))) & mask;
    }
  }
};

}  // namespace cachetrie::util
