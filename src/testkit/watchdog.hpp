// watchdog.hpp — progress watchdog asserting lock-freedom under injected
// faults.
//
// Lock-freedom's observable signature: while any subset of threads is
// suspended at arbitrary points (here: parked by the fault engine at
// protocol decision points), some surviving thread still completes
// operations. The watchdog samples a caller-maintained completed-op
// counter on a fixed tick; a tick in which the counter did not strictly
// increase — while the workload was supposed to be running — is a
// violation.
//
// Tick sizing: this is a liveness check on a timeshared box, so ticks must
// comfortably exceed one scheduling quantum for every survivor thread.
// On the CI container (single hardware thread) 150–250 ms is the floor;
// anything shorter measures the kernel scheduler, not the structure.
// The monitor itself is a plain std::thread sampling with relaxed loads —
// it never touches structure memory, so it cannot mask or cause races.
// Every watchdog's ticks, violations and last tick delta are also rows of
// obs/sites.hpp (testkit.watchdog.*), so a snapshot reads them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "obs/sites.hpp"
#include "obs/trace_export.hpp"

namespace cachetrie::testkit {

class ProgressWatchdog {
 public:
  /// `counter` must strictly increase while the workload runs (survivor
  /// threads increment it once per completed operation).
  ProgressWatchdog(const std::atomic<std::uint64_t>& counter,
                   std::chrono::milliseconds tick)
      : counter_(counter), tick_(tick) {}

  ProgressWatchdog(const ProgressWatchdog&) = delete;
  ProgressWatchdog& operator=(const ProgressWatchdog&) = delete;

  ~ProgressWatchdog() { stop(); }

  void start() {
    if (running_.exchange(true, std::memory_order_acq_rel)) return;
    stop_requested_.store(false, std::memory_order_relaxed);
    monitor_ = std::thread([this] { run(); });
  }

  /// Joins the monitor. The partial tick in flight at stop() is discarded —
  /// the workload may already be winding down inside it.
  void stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    // [publishes: TK_WATCHDOG_STOP]
    stop_requested_.store(true, std::memory_order_release);
    if (monitor_.joinable()) monitor_.join();
  }

  /// Completed full ticks observed.
  std::uint64_t ticks() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }
  /// Ticks in which the counter failed to strictly increase.
  std::uint64_t violations() const noexcept {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  void run() {
    std::uint64_t last = counter_.load(std::memory_order_relaxed);
    // [acquires: TK_WATCHDOG_STOP]
    while (!stop_requested_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(tick_);
      if (stop_requested_.load(std::memory_order_acquire)) break;
      const std::uint64_t now = counter_.load(std::memory_order_relaxed);
      const std::uint64_t delta = now - last;
      last = now;
      ticks_.fetch_add(1, std::memory_order_relaxed);
      obs::sites::watchdog_ticks.add();
      obs::sites::watchdog_last_tick_delta.set(
          static_cast<std::int64_t>(delta));
      if (delta == 0) {
        violations_.fetch_add(1, std::memory_order_relaxed);
        // A violation is the moment the timeline matters: count it, then
        // preserve the first one's flight-recorder window (no-op unless
        // tracing is enabled; later violations cannot overwrite it).
        obs::sites::watchdog_violation.record(
            now, ticks_.load(std::memory_order_relaxed));
        obs::trace::post_mortem_dump("watchdog_violation");
      }
    }
  }

  const std::atomic<std::uint64_t>& counter_;
  std::chrono::milliseconds tick_;
  std::thread monitor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> violations_{0};
};

}  // namespace cachetrie::testkit
