#include "mr/epoch.hpp"

#include <algorithm>
#include <cstdlib>

#include "mr/node_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cachetrie::mr {

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return (end == s) ? fallback : static_cast<std::uint64_t>(v);
}

// Single-writer counter updates: only the record's owner writes these
// fields, so a relaxed load and store do what an RMW would, without locking
// the line.
template <typename T>
void owner_add(std::atomic<T>& c, T n) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
template <typename T>
void owner_sub(std::atomic<T>& c, T n) noexcept {
  c.store(c.load(std::memory_order_relaxed) - n, std::memory_order_relaxed);
}

}  // namespace

EpochDomain::EpochDomain() {
  limbo_cap_bytes_.store(
      static_cast<std::size_t>(
          env_u64("CACHETRIE_LIMBO_CAP_BYTES", kNoLimboCap)),
      std::memory_order_relaxed);
  set_stall_lag_epochs(
      env_u64("CACHETRIE_STALL_LAG_EPOCHS", kDefaultStallLagEpochs));
  // Fold this domain's own counters into obs snapshots as callback gauges:
  // the domain stays the single owner of the numbers (no double
  // bookkeeping), and registry.reset() cannot zero them out from under it.
  // The domain is a function-local static, so the callbacks never outlive
  // their source within a snapshot's reach.
  auto& reg = obs::registry();
  auto g = [this](auto member) {
    return [this, member]() {
      return static_cast<std::int64_t>((this->*member)());
    };
  };
  reg.register_gauge_fn("mr.epoch.epoch", g(&EpochDomain::epoch));
  reg.register_gauge_fn("mr.epoch.retired", g(&EpochDomain::retired_count));
  reg.register_gauge_fn("mr.epoch.freed", g(&EpochDomain::freed_count));
  reg.register_gauge_fn("mr.epoch.limbo_bytes",
                        g(&EpochDomain::retired_bytes));
  reg.register_gauge_fn("mr.epoch.limbo_bytes_hwm",
                        g(&EpochDomain::retired_bytes_high_water));
  reg.register_gauge_fn("mr.epoch.stalled_records",
                        g(&EpochDomain::stalled_records));
  reg.register_gauge_fn("mr.epoch.fallback_scans",
                        g(&EpochDomain::fallback_scans));
  reg.register_gauge_fn("mr.epoch.stalled_guard_exits",
                        g(&EpochDomain::stalled_guard_exits));
  // Node memory the pool holds, live or free: it is never returned to the
  // OS, so this explains RSS that footprint_bytes() does not count.
  reg.register_gauge_fn("mr.pool.mapped_bytes", [] {
    return static_cast<std::int64_t>(NodePool::mapped_bytes());
  });
}

EpochDomain& EpochDomain::instance() {
  static EpochDomain domain;
  return domain;
}

EpochDomain::ThreadRecord* EpochDomain::acquire_record() {
  // First try to recycle a record left behind by an exited thread.
  // [acquires: MR_RECORD_LINK]
  for (ThreadRecord* rec = records_.load(std::memory_order_acquire);
       rec != nullptr; rec = rec->next) {
    bool expected = false;
    if (!rec->in_use.load(std::memory_order_relaxed) &&
        rec->in_use.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      return rec;
    }
  }
  // Otherwise push a fresh one. Records are immortal, so traversal by
  // try_advance never races with deallocation.
  auto* rec = new ThreadRecord();
  rec->in_use.store(true, std::memory_order_relaxed);
  ThreadRecord* head = records_.load(std::memory_order_acquire);
  do {
    rec->next = head;
    // [publishes: MR_RECORD_LINK]
  } while (!records_.compare_exchange_weak(head, rec,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire));
  return rec;
}

EpochDomain::ThreadRecord* EpochDomain::local_record() {
  thread_local Handle handle;
  if (handle.record == nullptr) {
    handle.domain = this;
    handle.record = acquire_record();
  }
  // A single process-wide domain means one handle per thread suffices.
  assert(handle.domain == this &&
         "EpochDomain: multiple domains per thread are not supported");
  return handle.record;
}

EpochDomain::Handle::~Handle() {
  if (record == nullptr) return;
  assert(record->nesting == 0 && "thread exited while holding an EBR guard");
  domain->orphan_all(*record);
  record->in_use.store(false, std::memory_order_release);
}

void EpochDomain::enter() {
  ThreadRecord* rec = local_record();
  if (rec->nesting++ != 0) return;
  // Publish the observed epoch, then verify it did not move; this closes the
  // window where we would announce a stale epoch after an advance.
  std::uint64_t e;
  do {
    // [acquires: EPOCH_FLIP]
    e = global_epoch_.load(std::memory_order_acquire);
    // [publishes: EPOCH_PIN]
    rec->state.store((e << kEpochShift) | kPinnedBit,
                     std::memory_order_seq_cst);
  } while (global_epoch_.load(std::memory_order_seq_cst) != e);
}

void EpochDomain::exit() {
  ThreadRecord* rec = local_record();
  assert(rec->nesting > 0);
  if (--rec->nesting != 0) return;
  // Opportunistically recycle limbo segments that became safe while pinned.
  collect_local(*rec, global_epoch_.load(std::memory_order_acquire));
  // Exchange (not store) so a concurrent fallback_scan declaring us stalled
  // either lands before (we observe the bit here) or fails its CAS.
  const std::uint64_t old = rec->state.exchange(0, std::memory_order_acq_rel);
  if (old & kStalledBit) {
    // A fallback sweep declared this reader dead, yet here it is exiting its
    // guard. Benign when the exit is the testkit's death-unwind (it touches
    // no shared memory on the way out); otherwise a crash-stop model
    // violation — see the header comment.
    stalled_records_.fetch_sub(1, std::memory_order_relaxed);
    stalled_guard_exits_.fetch_add(1, std::memory_order_relaxed);
    obs::trace::emit(obs::trace::EventId::kMrStalledGuardExit,
                     reinterpret_cast<std::uintptr_t>(rec));
  }
}

bool EpochDomain::current_thread_declared_stalled() {
  return (local_record()->state.load(std::memory_order_acquire) &
          kStalledBit) != 0;
}

template <typename T>
T EpochDomain::sum_records(
    std::atomic<T> ThreadRecord::* field) const noexcept {
  T n = 0;
  for (ThreadRecord* rec = records_.load(std::memory_order_acquire);
       rec != nullptr; rec = rec->next) {
    n += (rec->*field).load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t EpochDomain::retired_count() const noexcept {
  return sum_records(&ThreadRecord::retired);
}

std::uint64_t EpochDomain::freed_count() const noexcept {
  return orphans_freed_.load(std::memory_order_relaxed) +
         sum_records(&ThreadRecord::freed);
}

std::size_t EpochDomain::retired_bytes() const noexcept {
  return orphan_bytes_.load(std::memory_order_relaxed) +
         sum_records(&ThreadRecord::limbo_bytes);
}

std::size_t EpochDomain::retired_bytes_high_water() const noexcept {
  return std::max(limbo_bytes_hwm_.load(std::memory_order_relaxed),
                  retired_bytes());
}

void EpochDomain::fold_high_water() noexcept {
  // Limbo only grows between frees, so folding the sum in just before each
  // free records every peak.
  const std::size_t now = retired_bytes();
  std::size_t hwm = limbo_bytes_hwm_.load(std::memory_order_relaxed);
  while (now > hwm && !limbo_bytes_hwm_.compare_exchange_weak(
                          hwm, now, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
  }
}

void EpochDomain::retire(void* p, Deleter deleter, std::size_t bytes) {
  ThreadRecord* rec = local_record();
  assert(rec->nesting > 0 &&
         "EpochDomain::retire() outside a Guard — the retiring operation "
         "must itself hold a pin (policy contract in mr/reclaimer.hpp)");
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  if (rec->limbo.empty() || rec->limbo.back().epoch != e) {
    rec->limbo.push_back(Segment{e, 0, {}});
  }
  Segment& seg = rec->limbo.back();
  seg.items.push_back(Retired{p, deleter, bytes});
  seg.bytes += bytes;
  owner_add(rec->retired, std::uint64_t{1});
  owner_add(rec->limbo_bytes, bytes);
  if (++rec->retire_pulse >= kAdvanceInterval) {
    rec->retire_pulse = 0;
    try_advance();
    collect_local(*rec, global_epoch_.load(std::memory_order_acquire));
  }
  // With no cap (the default) the sum over the records is never taken, so a
  // retirement writes nothing shared.
  const std::size_t cap = limbo_cap_bytes_.load(std::memory_order_relaxed);
  if (cap != kNoLimboCap && retired_bytes() > cap) {
    // Over the cap: push the epoch and collect eagerly; when that frees
    // nothing and limbo stays over the cap, a straggler is blocking
    // advancement — run the stall fallback.
    try_advance();
    const std::size_t freed =
        collect_local(*rec, global_epoch_.load(std::memory_order_acquire));
    if (freed == 0 && retired_bytes() >
                          limbo_cap_bytes_.load(std::memory_order_relaxed)) {
      fallback_scan();
    }
  }
}

bool EpochDomain::try_advance() {
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (ThreadRecord* rec = records_.load(std::memory_order_acquire);
       rec != nullptr; rec = rec->next) {
    // [acquires: EPOCH_PIN]
    const std::uint64_t s = rec->state.load(std::memory_order_seq_cst);
    if ((s & kPinnedBit) != 0 && (s & kStalledBit) == 0 &&
        (s >> kEpochShift) != e) {
      return false;  // straggler reader not (yet) declared stalled
    }
  }
  // [publishes: EPOCH_FLIP]
  const bool advanced = global_epoch_.compare_exchange_strong(
      e, e + 1, std::memory_order_acq_rel, std::memory_order_acquire);
  if (advanced) {
    obs::trace::emit(obs::trace::EventId::kMrEpochFlip, e + 1);
    collect_orphans(e + 1);
  }
  return advanced;
}

std::size_t EpochDomain::fallback_scan() {
  fallback_scans_.fetch_add(1, std::memory_order_relaxed);
  [[maybe_unused]] obs::trace::Span span{
      obs::trace::EventId::kMrFallbackScanBegin,
      obs::trace::EventId::kMrFallbackScanEnd, retired_bytes()};
  // Hazard-pointer-style sweep (the published epoch plays the role of the
  // hazard pointer). A record
  // pinned at an epoch other than the current one is what is blocking
  // advancement (the advance rule caps absolute lag at one epoch), so the
  // sweep measures *persistence*: tick such a record once per sweep, and
  // declare it stalled after `stall_lag_epochs` consecutive ticks. The
  // owner's whole-word publish on enter/exit resets the tick field, so a
  // slow-but-live reader that keeps completing guards never accumulates
  // ticks — only one stuck inside a single guard does.
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  const std::uint64_t lag = stall_lag_epochs();
  for (ThreadRecord* rec = records_.load(std::memory_order_acquire);
       rec != nullptr; rec = rec->next) {
    std::uint64_t s = rec->state.load(std::memory_order_seq_cst);
    if ((s & kPinnedBit) != 0 && (s & kStalledBit) == 0 &&
        (s >> kEpochShift) != e) {
      const std::uint64_t ticks = (s >> kTickShift) & kTickMask;
      const std::uint64_t desired = (ticks + 1 >= lag)
                                        ? (s | kStalledBit)
                                        : s + (std::uint64_t{1} << kTickShift);
      // Losing the CAS means the owner exited (tick reset — correct) or a
      // concurrent sweep ticked first (skip one tick — harmless).
      if (rec->state.compare_exchange_strong(s, desired,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed) &&
          (desired & kStalledBit) != 0) {
        stalled_records_.fetch_add(1, std::memory_order_relaxed);
        obs::trace::emit(obs::trace::EventId::kMrStallDeclare,
                         reinterpret_cast<std::uintptr_t>(rec), ticks + 1);
      }
    }
  }
  // One full grace period: two advances. Each can still fail if a live
  // (non-stalled) reader is mid-operation; that only delays collection by
  // one bounded op, not forever.
  try_advance();
  try_advance();
  ThreadRecord* self = local_record();
  return collect_local(*self,
                       global_epoch_.load(std::memory_order_acquire));
}

std::size_t EpochDomain::free_segment(ThreadRecord& rec, Segment& seg) {
  if (seg.items.empty()) return 0;
  for (const Retired& r : seg.items) r.deleter(r.ptr);
  const std::size_t n = seg.items.size();
  owner_add(rec.freed, static_cast<std::uint64_t>(n));
  owner_sub(rec.limbo_bytes, seg.bytes);
  seg.items.clear();
  seg.bytes = 0;
  return n;
}

std::size_t EpochDomain::collect_local(ThreadRecord& rec,
                                       std::uint64_t current) {
  std::size_t freed = 0;
  std::size_t keep_from = 0;
  // Segments are in increasing-epoch order; free the safe prefix, folding
  // the high-water mark in first.
  if (!rec.limbo.empty() && rec.limbo.front().epoch + 2 <= current) {
    fold_high_water();
  }
  while (keep_from < rec.limbo.size() &&
         rec.limbo[keep_from].epoch + 2 <= current) {
    freed += free_segment(rec, rec.limbo[keep_from]);
    ++keep_from;
  }
  if (keep_from != 0) {
    rec.limbo.erase(rec.limbo.begin(),
                    rec.limbo.begin() + static_cast<std::ptrdiff_t>(keep_from));
  }
  return freed;
}

void EpochDomain::orphan_all(ThreadRecord& rec) {
  // Count the bytes on the orphan list before taking them off the record:
  // a concurrent retired_bytes() may see them twice, never zero times.
  const std::size_t bytes = rec.limbo_bytes.load(std::memory_order_relaxed);
  orphan_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  for (Segment& seg : rec.limbo) {
    for (const Retired& r : seg.items) {
      auto* orphan = new Orphan{r, seg.epoch, nullptr};
      Orphan* head = orphans_.load(std::memory_order_acquire);
      do {
        orphan->next = head;
        // [publishes: MR_ORPHANS]
      } while (!orphans_.compare_exchange_weak(head, orphan,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire));
    }
  }
  rec.limbo.clear();
  owner_sub(rec.limbo_bytes, bytes);
}

void EpochDomain::collect_orphans(std::uint64_t current) {
  // Detach the whole list, free what is safe, push the rest back.
  Orphan* head = orphans_.exchange(nullptr, std::memory_order_acq_rel);
  Orphan* keep = nullptr;
  std::uint64_t freed = 0;
  std::size_t freed_bytes = 0;
  while (head != nullptr) {
    Orphan* next = head->next;
    if (head->epoch + 2 <= current) {
      head->item.deleter(head->item.ptr);
      freed_bytes += head->item.bytes;
      delete head;
      ++freed;
    } else {
      head->next = keep;
      keep = head;
    }
    head = next;
  }
  if (freed != 0) {
    fold_high_water();
    orphans_freed_.fetch_add(freed, std::memory_order_relaxed);
    orphan_bytes_.fetch_sub(freed_bytes, std::memory_order_relaxed);
  }
  while (keep != nullptr) {
    Orphan* next = keep->next;
    // [acquires: MR_ORPHANS]
    Orphan* cur_head = orphans_.load(std::memory_order_acquire);
    do {
      keep->next = cur_head;
    } while (!orphans_.compare_exchange_weak(cur_head, keep,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire));
    keep = next;
  }
}

std::size_t EpochDomain::drain_for_testing() {
  std::size_t freed = 0;
  // All threads must be quiescent; free every limbo segment of every record
  // that is not claimed by the calling thread, then the caller's own, then
  // all orphans.
  ThreadRecord* self = local_record();
  assert(self->nesting == 0 && "drain_for_testing() under an active guard");
  fold_high_water();
  for (ThreadRecord* rec = records_.load(std::memory_order_acquire);
       rec != nullptr; rec = rec->next) {
    // Only safe because the caller asserts global quiescence: exited threads
    // already orphaned their items, and `self` is the only live record that
    // may still hold limbo entries. Draining other in-use records would race
    // with their owners, so skip them.
    if (rec != self && rec->in_use.load(std::memory_order_acquire)) continue;
    for (Segment& seg : rec->limbo) {
      freed += free_segment(*rec, seg);  // free_segment updates the counters
    }
    rec->limbo.clear();
  }
  Orphan* head = orphans_.exchange(nullptr, std::memory_order_acq_rel);
  std::uint64_t orphan_freed = 0;
  std::size_t orphan_bytes = 0;
  while (head != nullptr) {
    Orphan* next = head->next;
    head->item.deleter(head->item.ptr);
    orphan_bytes += head->item.bytes;
    delete head;
    ++orphan_freed;
    head = next;
  }
  if (orphan_freed != 0) {
    orphans_freed_.fetch_add(orphan_freed, std::memory_order_relaxed);
    orphan_bytes_.fetch_sub(orphan_bytes, std::memory_order_relaxed);
  }
  return freed + orphan_freed;
}

}  // namespace cachetrie::mr
