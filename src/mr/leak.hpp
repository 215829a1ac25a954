// leak.hpp — the "do nothing" reclamation policy.
//
// Never frees retired nodes. Two uses:
//   * ablation benches isolate the cost of EBR by comparing against this
//     policy (paper substitution note: the JVM's GC amortizes reclamation
//     outside the measured operation, so LeakReclaimer is the closest
//     analogue to what the paper's numbers actually measured);
//   * single-shot tests where process teardown reclaims everything anyway.
#pragma once

#include <atomic>
#include <cstdint>

#include "mr/reclaimer.hpp"

namespace cachetrie::mr {

struct LeakReclaimer {
  struct Guard {};
  static Guard pin() noexcept { return {}; }
  template <typename T>
  static void retire(T*) noexcept {
    leaked_.fetch_add(1, std::memory_order_relaxed);
  }
  static void retire_raw_sized(void*, Deleter, std::size_t) noexcept {
    leaked_.fetch_add(1, std::memory_order_relaxed);
  }
  static std::uint64_t leaked_count() noexcept {
    return leaked_.load(std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<std::uint64_t> leaked_{0};
};

}  // namespace cachetrie::mr
