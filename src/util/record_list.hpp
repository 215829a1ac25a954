// record_list.hpp — an immortal lock-free list of per-thread records.
//
// A thread claims a record on first use and releases it when it exits; the
// next thread to arrive claims a released record before it allocates a
// fresh one. Records are pushed at the head and never unlinked or freed,
// so any thread may walk the list at any time without racing
// deallocation. Whatever an owner leaves in its record when it releases it
// is handed, through the release store and the claim CAS, to the next
// thread that claims it.
//
// `T` supplies the two link fields: `std::atomic<bool> in_use` and
// `T* next`. Used by mr::EpochDomain's thread records and by the flight
// recorder's rings.
#pragma once

#include <atomic>

namespace cachetrie::util {

template <typename T>
class RecordList {
 public:
  /// The newest record; follow `next` to walk the list.
  T* head() const noexcept {
    // [acquires: RECORD_LINK]
    return head_.load(std::memory_order_acquire);
  }

  /// Claims `rec` if it is released; the claimer then owns everything the
  /// last owner left in it.
  static bool try_claim(T& rec) noexcept {
    bool expected = false;
    return !rec.in_use.load(std::memory_order_relaxed) &&
           // [acquires: RECORD_LINK]
           rec.in_use.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed);
  }

  /// Hands `rec`, with everything still in it, to the next claimer.
  static void release(T& rec) noexcept {
    // [publishes: RECORD_LINK]
    rec.in_use.store(false, std::memory_order_release);
  }

  /// Claims the first released record, or pushes a fresh, claimed one
  /// built by `make()`.
  template <typename Make>
  T* acquire(Make make) {
    for (T* rec = head(); rec != nullptr; rec = rec->next) {
      if (try_claim(*rec)) return rec;
    }
    T* rec = make();
    rec->in_use.store(true, std::memory_order_relaxed);
    T* h = head_.load(std::memory_order_acquire);
    do {
      rec->next = h;
      // [publishes: RECORD_LINK]
    } while (!head_.compare_exchange_weak(h, rec, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
    return rec;
  }

 private:
  std::atomic<T*> head_{nullptr};
};

}  // namespace cachetrie::util
