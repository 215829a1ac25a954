// Fixture: a function on the read path may not use an atomic
// read-modify-write or a seq_cst store or fence -- each is a locked
// instruction or a full barrier on x86.
#pragma once

#include <atomic>
#include <cstdint>

namespace fixture {

struct Stripe {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> state{0};
  std::atomic<void*> slot{nullptr};
};

// [read-path]
inline std::uint64_t count_hit(Stripe& s) {
  return s.hits.fetch_add(1, std::memory_order_relaxed);  // expect: readpath.rmw
}

// [read-path]
inline void unpin(Stripe& s) {
  s.state.exchange(0, std::memory_order_acq_rel);  // expect: readpath.rmw
}

// [read-path]
inline void restore_entry(Stripe& s, void* node) {
  void* expected = nullptr;
  s.slot.compare_exchange_strong(expected, node,  // expect: readpath.rmw
                                 std::memory_order_acq_rel,
                                 std::memory_order_relaxed);
  s.slot.store(node, std::memory_order_seq_cst);  // expect: readpath.seq-cst
  std::atomic_thread_fence(std::memory_order_seq_cst);  // expect: readpath.seq-cst
}

}  // namespace fixture
