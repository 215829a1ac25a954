// epoch.hpp — epoch-based reclamation (EBR), hardened against stalled
// readers.
//
// Classic three-epoch scheme (Fraser 2004, as used by e.g. libcds and
// crossbeam-epoch):
//
//   * A global epoch counter advances when every thread currently inside a
//     read-side critical section has observed the current epoch.
//   * A node retired in epoch `e` may be freed once the global epoch reaches
//     `e + 2`: any reader that could still hold the node pinned an epoch
//     <= e, and two advances prove all such readers have since quiesced.
//   * Retired nodes live in per-thread limbo segments tagged with their
//     retirement epoch; a segment is recycled once it is two epochs old.
//
// Stall tolerance (see DESIGN.md "Reclamation under faults"): plain EBR has
// a well-known robustness hole — one thread preempted, stalled, or killed
// inside a Guard pins the global epoch forever and limbo grows without
// bound even though every structure operation keeps completing. This domain
// closes the hole with three cooperating mechanisms:
//
//   1. *Byte accounting.* Every retirement carries a byte size; the domain
//      tracks the bytes currently in limbo (plus a high-water mark) and a
//      configurable cap (`set_limbo_cap_bytes`, or the
//      CACHETRIE_LIMBO_CAP_BYTES environment variable; default: unlimited,
//      i.e. classic EBR behavior).
//   2. *Epoch-lag detection.* While the cap is exceeded, `fallback_scan()`
//      performs a hazard-pointer-style sweep of every pinned thread record
//      (snapshot every published slot, with the published *epoch* playing
//      the role of the hazard pointer). A
//      record is "lagging" when it is pinned at an epoch other than the
//      current one — by the advance rule that very record is what is
//      holding the epoch back, so its absolute lag can never exceed one;
//      the sweep therefore counts *how long* the lag persists, CAS-ing a
//      tick into the record's state word each sweep that observes it
//      blocking. The owner's whole-word publish on guard enter/exit resets
//      the ticks, so only a reader stuck inside one continuous guard
//      accumulates them. After `stall_lag_epochs` consecutive ticks —
//      i.e. that many missed grace periods while survivors were actively
//      trying to reclaim — the record is declared stalled: a sticky bit is
//      CAS-ed into its state word and `stalled_records` is bumped.
//   3. *Advancement past stalled records.* `try_advance()` ignores declared
//      records, so the epoch moves again and every survivor's limbo drains
//      through the normal two-epoch grace period. Garbage stays bounded by
//      roughly what all live threads retire in one grace period, instead of
//      growing for as long as the stall lasts.
//
// The safety model for (3) is the crash-stop assumption standard in the
// robust-reclamation literature (Hazard Eras, IBR, NBR): a reader that has
// not exited its guard across `stall_lag_epochs` consecutive over-cap
// reclamation sweeps — i.e. while other threads retired enough garbage to
// blow the cap that many times over, when every operation in this repo
// holds a guard for only one bounded-length op — is
// assumed dead or permanently descheduled and to execute no further
// instructions, so memory it may still reference can be recycled: it will
// never dereference it. A declared reader that *does* resume is a model
// violation; its guard exit is counted in `stalled_guard_exits()` and the
// testkit fault engine (src/testkit/fault.hpp) converts such resumptions
// into a simulated death-unwind so the assumption holds by construction in
// fault tests. Deployments that cannot accept the assumption leave the cap
// unlimited and get classic (unbounded-garbage) EBR.
//
// The domain is a process-wide singleton: thread records are registered
// lazily on first use via a thread-local handle and recycled (never freed)
// when a thread exits, so registration is wait-free after the first pin.
// A thread that exits with non-empty limbo orphans its items; survivors
// free them on later advances. Guards are reentrant — nested pins on one
// thread are counted, and only the outermost pin publishes/retracts the
// epoch.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mr/reclaimer.hpp"
#include "util/padded.hpp"

namespace cachetrie::mr {

class EpochDomain {
 public:
  /// The process-wide domain all EpochReclaimer users share.
  static EpochDomain& instance();

  /// Reads CACHETRIE_LIMBO_CAP_BYTES and CACHETRIE_STALL_LAG_EPOCHS from the
  /// environment (when set) so deployments can tune the stall fallback
  /// without a rebuild.
  EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// RAII read-side critical section. Cheap (two atomic ops on the
  /// outermost level, a counter bump when nested).
  class Guard {
   public:
    explicit Guard(EpochDomain& domain) : domain_(&domain) { domain.enter(); }
    ~Guard() {
      if (domain_ != nullptr) domain_->exit();
    }
    Guard(Guard&& other) noexcept : domain_(other.domain_) {
      other.domain_ = nullptr;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;

   private:
    EpochDomain* domain_;
  };

  Guard pin() { return Guard{*this}; }

  /// Schedule `deleter(p)` once all current readers have quiesced. Must be
  /// called from inside a Guard — the retiring operation is itself a reader
  /// (asserted in debug builds; see the policy contract in reclaimer.hpp).
  /// `bytes` feeds the limbo accounting that backs the stall fallback; pass
  /// the allocation size when known.
  void retire(void* p, Deleter deleter,
              std::size_t bytes = kUnknownRetiredBytes);

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  template <typename T>
  void retire(T* p) {
    retire(static_cast<void*>(p), &delete_as<T>, sizeof(T));
  }

  /// Attempt one epoch advance; returns true on success. Called
  /// automatically every `kAdvanceInterval` retirements. Records declared
  /// stalled by fallback_scan() do not block advancement.
  bool try_advance();

  /// The over-cap degraded path: hazard-style sweep of all pinned records,
  /// ticking each one observed blocking advancement and declaring it
  /// stalled once it has blocked `stall_lag_epochs()` consecutive sweeps,
  /// then forcing one full grace period (two advances) and collecting the
  /// caller's limbo. Returns the number of objects freed from the caller's
  /// limbo. Invoked automatically by retire() while over the cap; public so
  /// tests and operators can force it.
  std::size_t fallback_scan();

  /// Free *everything* still in limbo. Only valid when no thread holds a
  /// guard (e.g. after joining all workers in a test). Returns the number of
  /// objects freed.
  std::size_t drain_for_testing();

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }
  std::uint64_t retired_count() const noexcept {
    return retired_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_count() const noexcept {
    return freed_total_.load(std::memory_order_relaxed);
  }

  // --- stall-tolerance counters and knobs ---------------------------------

  /// Bytes currently sitting in limbo (all threads + orphans).
  std::size_t retired_bytes() const noexcept {
    return limbo_bytes_.load(std::memory_order_relaxed);
  }
  /// Highest value retired_bytes() has ever reached.
  std::size_t retired_bytes_high_water() const noexcept {
    return limbo_bytes_hwm_.load(std::memory_order_relaxed);
  }
  /// Records currently declared stalled (pinned + lagging past threshold).
  std::uint64_t stalled_records() const noexcept {
    return stalled_records_.load(std::memory_order_relaxed);
  }
  /// Times the over-cap fallback sweep ran.
  std::uint64_t fallback_scans() const noexcept {
    return fallback_scans_.load(std::memory_order_relaxed);
  }
  /// Guard exits by records that had been declared stalled. Nonzero means a
  /// declared reader ran again: either the testkit's simulated death-unwind
  /// (benign — it touches no shared memory) or a genuine crash-stop model
  /// violation worth investigating.
  std::uint64_t stalled_guard_exits() const noexcept {
    return stalled_guard_exits_.load(std::memory_order_relaxed);
  }

  void set_limbo_cap_bytes(std::size_t cap) noexcept {
    limbo_cap_bytes_.store(cap, std::memory_order_relaxed);
  }
  std::size_t limbo_cap_bytes() const noexcept {
    return limbo_cap_bytes_.load(std::memory_order_relaxed);
  }
  void set_stall_lag_epochs(std::uint64_t lag) noexcept {
    if (lag < 2) lag = 2;
    if (lag > kTickMask) lag = kTickMask;
    stall_lag_epochs_.store(lag, std::memory_order_relaxed);
  }
  std::uint64_t stall_lag_epochs() const noexcept {
    return stall_lag_epochs_.load(std::memory_order_relaxed);
  }

  /// True iff the calling thread's record carries the stalled bit — i.e. a
  /// fallback sweep declared this thread dead while it was parked. The
  /// testkit fault engine consults this on every stall wake-up to turn
  /// resumption of a declared-dead victim into a simulated death-unwind.
  bool current_thread_declared_stalled();

  static constexpr std::size_t kNoLimboCap = static_cast<std::size_t>(-1);
  static constexpr std::uint64_t kDefaultStallLagEpochs = 64;

 private:
  struct Retired {
    void* ptr;
    Deleter deleter;
    std::size_t bytes;
  };

  /// One epoch's worth of one thread's retirements.
  struct Segment {
    std::uint64_t epoch = 0;
    std::size_t bytes = 0;
    std::vector<Retired> items;
  };

  // State word: epoch << 18 | ticks << 2 | stalled << 1 | pinned. Only the
  // owner writes the whole word (publish on outermost enter, zero on
  // outermost exit — which resets the tick field); scanners may only CAS a
  // tick increment or the stalled bit in while the record stays pinned.
  static constexpr std::uint64_t kPinnedBit = 1;
  static constexpr std::uint64_t kStalledBit = 2;
  static constexpr int kTickShift = 2;
  static constexpr std::uint64_t kTickMask = 0xffff;
  static constexpr int kEpochShift = 18;

  /// One record per (recycled) thread slot; lives forever once allocated.
  struct alignas(util::kCacheLineSize) ThreadRecord {
    std::atomic<std::uint64_t> state{0};
    /// Guard nesting depth; only the owning thread touches it.
    std::uint32_t nesting = 0;
    /// Retirements since the last advance attempt.
    std::uint32_t retire_pulse = 0;
    /// Limbo segments in increasing-epoch order; owner-only.
    std::vector<Segment> limbo;
    /// Claimed by a live thread?
    std::atomic<bool> in_use{false};
    ThreadRecord* next = nullptr;
  };

  /// Thread-local handle: claims a record on construction, orphans leftover
  /// limbo items and releases the record on thread exit.
  struct Handle {
    EpochDomain* domain = nullptr;
    ThreadRecord* record = nullptr;
    ~Handle();
  };

  struct Orphan {
    Retired item;
    std::uint64_t epoch;
    Orphan* next;
  };

  void enter();
  void exit();
  ThreadRecord* local_record();
  ThreadRecord* acquire_record();
  std::size_t free_segment(Segment& seg);
  std::size_t collect_local(ThreadRecord& rec, std::uint64_t current);
  void collect_orphans(std::uint64_t current);
  void orphan_all(ThreadRecord& rec);
  void note_limbo_bytes(std::size_t now) noexcept;

  static constexpr std::uint32_t kAdvanceInterval = 64;

  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<ThreadRecord*> records_{nullptr};
  std::atomic<Orphan*> orphans_{nullptr};
  std::atomic<std::uint64_t> retired_total_{0};
  std::atomic<std::uint64_t> freed_total_{0};

  std::atomic<std::size_t> limbo_bytes_{0};
  std::atomic<std::size_t> limbo_bytes_hwm_{0};
  std::atomic<std::size_t> limbo_cap_bytes_{kNoLimboCap};
  std::atomic<std::uint64_t> stall_lag_epochs_{kDefaultStallLagEpochs};
  std::atomic<std::uint64_t> stalled_records_{0};
  std::atomic<std::uint64_t> fallback_scans_{0};
  std::atomic<std::uint64_t> stalled_guard_exits_{0};

  friend struct Handle;
};

/// Policy adapter used as a template argument by the data structures.
struct EpochReclaimer {
  using Guard = EpochDomain::Guard;
  static Guard pin() { return EpochDomain::instance().pin(); }
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  template <typename T>
  static void retire(T* p) {
    EpochDomain::instance().retire(p);
  }
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static void retire_raw(void* p, Deleter d) {
    EpochDomain::instance().retire(p, d);
  }
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static void retire_raw_sized(void* p, Deleter d, std::size_t bytes) {
    EpochDomain::instance().retire(p, d, bytes);
  }
};

}  // namespace cachetrie::mr
