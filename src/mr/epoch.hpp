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
//   1. *Byte accounting.* Every retirement carries a byte size. Each thread
//      record counts its own retired and freed objects and the bytes in
//      its limbo, written only by its owner, so a retirement writes no
//      shared cache line; the domain's accessors sum the records plus the
//      orphan list. The high-water mark is folded in just before limbo
//      shrinks (a free), and its accessor also reports the current sum
//      when that is larger. A configurable cap (`set_limbo_cap_bytes`;
//      default: unlimited, i.e. classic EBR behavior) is compared against
//      the full sum on every retirement; with no cap the sum is never taken
//      there.
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
// violation; its guard exit is counted in `stalled_guard_exits()` (see
// "Guard cost" below for who counts it) and the testkit fault engine
// (src/testkit/fault.hpp) converts such resumptions into a simulated
// death-unwind so the assumption holds by construction in fault tests.
// Deployments that cannot accept the assumption leave the cap unlimited
// and get classic (unbounded-garbage) EBR.
//
// Guard cost. A lookup pins and unpins once, so the guard is on every
// read's fast path, and it holds the read path's only locked instruction:
//
//   * `enter` publishes its pin with a seq_cst store (an `xchg` on x86).
//     It stays: the pin and `try_advance`'s scan are a store-buffering
//     (Dekker) pair. Without a full fence between the pin store and the
//     reader's first node load, the load could run before the pin is
//     visible; an advance that missed the pin could then free the node.
//     The other way to order them is an asymmetric fence: a plain pin, and
//     `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` in `try_advance`. A
//     prototype of that was correct but no faster. Each membarrier call
//     took 9-66 us with 1-3 busy threads on a 4-vCPU VM. Advances had to
//     drop to one per 1024 retirements. `served_evict_churn` lost 5-10%,
//     and neither map workload beat the design here.
//   * `exit` ends with a plain release store of zero. That store is the
//     release side of the EPOCH_UNPIN edge: `try_advance` reads the zero
//     and so orders every load of the guard before the advance that lets
//     the loaded nodes be freed. An exit does not learn whether a sweep
//     declared it stalled. The sweeps count such exits instead: a sweep
//     that declares a record also saves the declared state word in the
//     record's scanner-only `declared` field. `fallback_scan()`,
//     `stalled_records()` and `stalled_guard_exits()` reconcile every
//     record whose state word has moved off its `declared` word. One CAS
//     on `declared` clears it, so each exit is counted once. A declared
//     word does not come back by itself once its owner leaves it: a
//     declared word has a nonzero tick field and a fresh pin a zero one.
//     Only a new declaration can recreate it, and `record_declared`
//     counts the old exit in that case.
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
  struct ThreadRecord;

 public:
  /// The process-wide domain all EpochReclaimer users share.
  static EpochDomain& instance();

  /// No limbo cap and a stall lag of kDefaultStallLagEpochs until
  /// set_limbo_cap_bytes / set_stall_lag_epochs change them.
  EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// RAII read-side critical section. Cheap (one locked store and one
  /// plain store on the outermost level, a counter bump when nested). It
  /// keeps the record `enter` returns, so exiting looks nothing up.
  class Guard {
   public:
    explicit Guard(EpochDomain& domain)
        : domain_(&domain), rec_(domain.enter()) {}
    ~Guard() {
      if (domain_ != nullptr) domain_->exit(*rec_);
    }
    Guard(Guard&& other) noexcept : domain_(other.domain_), rec_(other.rec_) {
      other.domain_ = nullptr;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;

   private:
    EpochDomain* domain_;
    ThreadRecord* rec_;
  };

  Guard pin() { return Guard{*this}; }

  /// Schedule `deleter(p)` once all current readers have quiesced. Must be
  /// called from inside a Guard — the retiring operation is itself a reader
  /// (asserted in debug builds; see the policy contract in reclaimer.hpp).
  /// `bytes`, the allocation size, feeds the limbo accounting that backs
  /// the stall fallback.
  void retire(void* p, Deleter deleter, std::size_t bytes);

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
  /// Objects ever retired (sum over the thread records).
  std::uint64_t retired_count() const noexcept;
  /// Objects ever freed (sum over the thread records, plus orphans).
  std::uint64_t freed_count() const noexcept;

  // --- stall-tolerance counters and knobs ---------------------------------

  /// Bytes currently sitting in limbo (all threads + orphans).
  std::size_t retired_bytes() const noexcept;
  /// Highest value retired_bytes() has ever reached: the mark folded in
  /// before each free, or the current sum when that is larger.
  std::size_t retired_bytes_high_water() const noexcept;
  /// Records currently declared stalled (pinned + lagging past threshold).
  /// Reconciles first, so a declared reader that has exited is not counted.
  std::uint64_t stalled_records() const noexcept;
  /// Times the over-cap fallback sweep ran.
  std::uint64_t fallback_scans() const noexcept {
    return fallback_scans_.load(std::memory_order_relaxed);
  }
  /// Guard exits by records that had been declared stalled. Nonzero means a
  /// declared reader ran again: either the testkit's simulated death-unwind
  /// (benign — it touches no shared memory) or a genuine crash-stop model
  /// violation worth investigating. Reconciles first (see "Guard cost").
  std::uint64_t stalled_guard_exits() const noexcept;

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
  // The owner's plain stores can land between a scanner's load and CAS;
  // the CAS then fails, so no owner write is ever lost.
  static constexpr std::uint64_t kPinnedBit = 1;
  static constexpr std::uint64_t kStalledBit = 2;
  static constexpr int kTickShift = 2;
  static constexpr std::uint64_t kTickMask = 0xffff;
  static constexpr int kEpochShift = 18;

  /// One record per (recycled) thread slot; lives forever once allocated.
  struct alignas(util::kCacheLineSize) ThreadRecord {
    std::atomic<std::uint64_t> state{0};
    /// The state word a sweep declared stalled, until a sweep or accessor
    /// sees the owner leave it and counts the exit; 0 when none is pending.
    /// Only scanners touch it.
    std::atomic<std::uint64_t> declared{0};
    /// Guard nesting depth; only the owning thread touches it.
    std::uint32_t nesting = 0;
    /// Retirements since the last advance attempt.
    std::uint32_t retire_pulse = 0;
    /// Cumulative objects retired/freed and the bytes now in this record's
    /// limbo. Only the owner writes them (a relaxed load and store, no RMW);
    /// the domain's accessors sum them. They survive recycling: a released
    /// record's limbo is orphaned, so its limbo_bytes is zero.
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> freed{0};
    std::atomic<std::size_t> limbo_bytes{0};
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

  ThreadRecord* enter();
  void exit(ThreadRecord& rec);
  /// Saves `word`, a state word the caller just CAS-ed the stalled bit into,
  /// as `rec`'s pending declaration.
  void record_declared(ThreadRecord& rec, std::uint64_t word) const noexcept;
  /// Counts the exit of `rec`'s pending declaration if its owner has left
  /// the declared word.
  void reconcile(ThreadRecord& rec) const noexcept;
  void reconcile_all() const noexcept;
  void count_stalled_exit(ThreadRecord& rec) const noexcept;
  ThreadRecord* local_record();
  ThreadRecord* acquire_record();
  std::size_t free_segment(ThreadRecord& rec, Segment& seg);
  std::size_t collect_local(ThreadRecord& rec, std::uint64_t current);
  void collect_orphans(std::uint64_t current);
  void orphan_all(ThreadRecord& rec);
  void fold_high_water() noexcept;
  /// Sum of one owner-written counter over every record.
  template <typename T>
  T sum_records(std::atomic<T> ThreadRecord::* field) const noexcept;

  static constexpr std::uint32_t kAdvanceInterval = 64;

  // Layout: every enter() reads global_epoch_ twice, so it sits alone on
  // its line and nothing written per retire() shares it. The fields below
  // are read-mostly or written only off the per-operation path (thread
  // registration, orphaning, freeing, the over-cap fallback).
  alignas(util::kCacheLineSize) std::atomic<std::uint64_t> global_epoch_{1};
  alignas(util::kCacheLineSize) std::atomic<ThreadRecord*> records_{nullptr};
  std::atomic<Orphan*> orphans_{nullptr};
  /// Objects freed from, and bytes still on, the orphan list. orphan_all()
  /// adds bytes here before taking them off the record, so a concurrent
  /// retired_bytes() may count them twice but never misses them.
  std::atomic<std::uint64_t> orphans_freed_{0};
  std::atomic<std::size_t> orphan_bytes_{0};

  std::atomic<std::size_t> limbo_bytes_hwm_{0};
  std::atomic<std::size_t> limbo_cap_bytes_{kNoLimboCap};
  std::atomic<std::uint64_t> stall_lag_epochs_{kDefaultStallLagEpochs};
  // Mutable: the const accessors reconcile declared records first.
  mutable std::atomic<std::uint64_t> stalled_records_{0};
  std::atomic<std::uint64_t> fallback_scans_{0};
  mutable std::atomic<std::uint64_t> stalled_guard_exits_{0};

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
  static void retire_raw_sized(void* p, Deleter d, std::size_t bytes) {
    EpochDomain::instance().retire(p, d, bytes);
  }
};

}  // namespace cachetrie::mr
