// tsc.hpp — the shared timestamp clock of the trace and latency layers.
//
// Trace points and per-op latency probes need a timestamp cheap enough to
// take inside a lock-free protocol step. On x86-64 that is rdtsc (~6-20
// cycles, serializing nothing); modern CPUs advertise an *invariant* TSC
// that ticks at a fixed rate regardless of frequency scaling and is
// synchronized across cores by hardware + kernel (TSC_ADJUST), which is
// what makes cross-thread event ordering by timestamp meaningful. On other
// architectures the fallback is steady_clock in nanoseconds — slower, but
// the same monotonicity contract.
//
// Raw ticks are recorded on the hot path; conversion to nanoseconds happens
// at drain/summarize time via a one-shot calibration against steady_clock
// (a few ms of wall time, paid lazily on first use — never on a hot path).
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define CACHETRIE_TSC_RDTSC 1
#else
#define CACHETRIE_TSC_RDTSC 0
#endif

namespace cachetrie::obs::tsc {

/// Raw timestamp in ticks. Monotone non-decreasing per thread; comparable
/// across threads on invariant-TSC hardware (all current x86-64 servers).
inline std::uint64_t now() noexcept {
#if CACHETRIE_TSC_RDTSC
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// now() fenced on both sides with lfence, for timing one short operation:
/// the read waits for every earlier instruction to complete, and no later
/// instruction starts before it. A bare rdtsc can run before the timed
/// op's loads finish when the op ends without a locked instruction. Trace
/// points keep the unfenced now().
inline std::uint64_t now_ordered() noexcept {
#if CACHETRIE_TSC_RDTSC
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return now();
#endif
}

struct Calibration {
  double ns_per_tick = 1.0;
};

namespace detail {

inline Calibration calibrate() noexcept {
#if CACHETRIE_TSC_RDTSC
  // Two (steady_clock, tsc) samples a few milliseconds apart; the ratio of
  // the deltas is the tick period. A busy-wait (not sleep) keeps the core
  // at speed and the sample window tight.
  const auto w0 = std::chrono::steady_clock::now();
  const std::uint64_t t0 = now();
  const auto deadline = w0 + std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
  }
  const auto w1 = std::chrono::steady_clock::now();
  const std::uint64_t t1 = now();
  const double dns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(w1 - w0).count());
  const double dticks = static_cast<double>(t1 - t0);
  Calibration c;
  c.ns_per_tick = (dticks > 0.0 && dns > 0.0) ? dns / dticks : 1.0;
  return c;
#else
  return Calibration{};  // ticks already are nanoseconds
#endif
}

}  // namespace detail

/// Process-wide calibration, computed once on first call (~5 ms). Call it
/// once before a measurement loop so the cost never lands inside one.
inline const Calibration& calibration() noexcept {
  static const Calibration c = detail::calibrate();
  return c;
}

/// Tick delta -> nanoseconds under the process calibration.
inline double to_ns(std::uint64_t ticks) noexcept {
  return static_cast<double>(ticks) * calibration().ns_per_tick;
}

}  // namespace cachetrie::obs::tsc
