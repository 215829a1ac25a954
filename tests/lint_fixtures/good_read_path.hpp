// Fixture: read-path functions that pass clean. Loads of any order, relaxed
// and release stores, and acquire fences are all plain instructions on x86.
// A read-path function may call a helper that does an RMW: the rule reads
// only the marked body, so the helper is left unmarked.
#pragma once

#include <atomic>
#include <cstdint>

namespace fixture {

struct Stripe {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> state{0};
  std::atomic<std::uint64_t> overflow{0};
};

inline std::uint64_t count_overflow(Stripe& s) {
  return s.overflow.fetch_add(1, std::memory_order_relaxed);
}

// [read-path]
inline std::uint64_t count_hit(Stripe& s, bool owned) {
  if (!owned) return count_overflow(s);
  // Owner-written: a relaxed load and store instead of an RMW.
  const std::uint64_t old = s.hits.load(std::memory_order_relaxed);
  s.hits.store(old + 1, std::memory_order_relaxed);
  return old;
}

// [read-path]
inline void unpin(Stripe& s) {
  std::atomic_thread_fence(std::memory_order_acquire);
  s.state.store(0, std::memory_order_release);
}

// [read-path]
inline std::uint64_t peek(const Stripe& s) {
  return s.state.load(std::memory_order_seq_cst);
}

}  // namespace fixture
