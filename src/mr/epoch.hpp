// epoch.hpp — epoch-based reclamation (EBR).
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
// Stalled readers (DESIGN.md "Reclamation under faults"): one thread
// preempted or parked inside a Guard pins the global epoch, so nothing
// retired after its pin is freed until it leaves the guard. Every structure
// operation keeps completing; only limbo grows, for as long as the stall
// lasts. No reader is ever skipped: a slow reader and a dead one look the
// same to an epoch, and freeing what a live reader still holds is a
// use-after-free. Bounded garbage under a stall needs neutralization
// (NBR, DEBRA+), not a guess about which readers are dead.
//
// Byte accounting. Every retirement carries a byte size. Each thread record
// counts its own retired and freed objects and the bytes in its limbo,
// written only by its owner (whichever thread has claimed the record), so a
// retirement writes no shared cache line; the domain's accessors sum the
// records. The high-water mark is folded in just before limbo shrinks (a
// free), and its accessor also reports the current sum when that is larger.
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
//     the loaded nodes be freed.
//
// The domain is a process-wide singleton: thread records are registered
// lazily on first use via a thread-local handle and recycled (never freed)
// when a thread exits, so registration is wait-free after the first pin.
// A thread exits by releasing its record with its limbo still attached,
// allocating and freeing nothing. That limbo is freed under the same
// `e + 2` rule by the next thread to claim the record, or by a survivor:
// after each successful advance, `try_advance` briefly claims every
// released record that still holds limbo (`collect_released`). Guards are
// reentrant — nested pins on one thread are counted, and only the
// outermost pin publishes/retracts the epoch.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mr/reclaimer.hpp"
#include "util/padded.hpp"
#include "util/record_list.hpp"

namespace cachetrie::mr {

class EpochDomain {
  struct ThreadRecord;

 public:
  /// The process-wide domain all EpochReclaimer users share.
  static EpochDomain& instance();

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
  /// `bytes`, the allocation size, feeds the limbo byte accounting.
  void retire(void* p, Deleter deleter, std::size_t bytes);

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  template <typename T>
  void retire(T* p) {
    retire(static_cast<void*>(p), &delete_as<T>, sizeof(T));
  }

  /// Attempt one epoch advance; returns true on success. Called
  /// automatically every `kAdvanceInterval` retirements. Fails while any
  /// pinned record lags the current epoch.
  bool try_advance();

  /// Free *everything* still in limbo. Only valid when no thread holds a
  /// guard (e.g. after joining all workers in a test). Returns the number of
  /// objects freed.
  std::size_t drain_for_testing();

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }
  /// Objects ever retired (sum over the thread records).
  std::uint64_t retired_count() const noexcept;
  /// Objects ever freed (sum over the thread records).
  std::uint64_t freed_count() const noexcept;
  /// Bytes currently sitting in limbo (sum over the thread records).
  std::size_t retired_bytes() const noexcept;
  /// Highest value retired_bytes() has ever reached: the mark folded in
  /// before each free, or the current sum when that is larger.
  std::size_t retired_bytes_high_water() const noexcept;

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

  // State word: epoch << 1 | pinned. Only the owner writes it (publish on
  // outermost enter, zero on outermost exit); try_advance only reads it.
  static constexpr std::uint64_t kPinnedBit = 1;
  static constexpr int kEpochShift = 1;

  /// One record per (recycled) thread slot; lives forever once allocated.
  struct alignas(util::kCacheLineSize) ThreadRecord {
    std::atomic<std::uint64_t> state{0};
    /// Guard nesting depth; only the owning thread touches it.
    std::uint32_t nesting = 0;
    /// Retirements since the last advance attempt.
    std::uint32_t retire_pulse = 0;
    /// Cumulative objects retired/freed and the bytes now in this record's
    /// limbo. Only the owner writes them (a relaxed load and store, no RMW);
    /// the domain's accessors sum them. They survive recycling along with
    /// the limbo they count.
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> freed{0};
    std::atomic<std::size_t> limbo_bytes{0};
    /// Limbo segments in increasing-epoch order; owner-only.
    std::vector<Segment> limbo;
    /// Claimed by a live thread (or, briefly, by a collect_released sweep)?
    std::atomic<bool> in_use{false};
    ThreadRecord* next = nullptr;
  };
  using Records = util::RecordList<ThreadRecord>;

  /// Thread-local handle: claims a record on first use and releases it,
  /// limbo and all, on thread exit.
  struct Handle {
    ThreadRecord* record = nullptr;
    ~Handle();
  };

  EpochDomain();
  ThreadRecord* enter();
  void exit(ThreadRecord& rec);
  ThreadRecord* local_record();
  std::size_t free_segment(ThreadRecord& rec, Segment& seg);
  void collect_local(ThreadRecord& rec, std::uint64_t current);
  void collect_released(std::uint64_t current);
  void fold_high_water() noexcept;
  /// Sum of one owner-written counter over every record.
  template <typename T>
  T sum_records(std::atomic<T> ThreadRecord::* field) const noexcept;

  static constexpr std::uint32_t kAdvanceInterval = 64;

  // Layout: every enter() reads global_epoch_ twice, so it sits alone on
  // its line and nothing written per retire() shares it. The fields below
  // are read-mostly or written only off the per-operation path (thread
  // registration, freeing).
  alignas(util::kCacheLineSize) std::atomic<std::uint64_t> global_epoch_{1};
  alignas(util::kCacheLineSize) Records records_;
  std::atomic<std::size_t> limbo_bytes_hwm_{0};
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
