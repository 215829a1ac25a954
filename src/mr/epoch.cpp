#include "mr/epoch.hpp"

#include <algorithm>

#include "mr/node_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"

namespace cachetrie::mr {

namespace {

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

EpochDomain::ThreadRecord* EpochDomain::local_record() {
  thread_local Handle handle;
  if (handle.record == nullptr) {
    handle.record = records_.acquire([] { return new ThreadRecord(); });
  }
  return handle.record;
}

EpochDomain::Handle::~Handle() {
  if (record == nullptr) return;
  assert(record->nesting == 0 && "thread exited while holding an EBR guard");
  // Limbo stays on the record: its next claimer, or a survivor's
  // collect_released, frees it once it is two epochs old.
  Records::release(*record);
}

EpochDomain::ThreadRecord* EpochDomain::enter() {
  ThreadRecord* rec = local_record();
  if (rec->nesting++ != 0) return rec;
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
  return rec;
}

// [read-path]
void EpochDomain::exit(ThreadRecord& rec) {
  assert(rec.nesting > 0);
  if (--rec.nesting != 0) return;
  // Opportunistically recycle limbo segments that became safe while pinned.
  collect_local(rec, global_epoch_.load(std::memory_order_acquire));
  // [publishes: EPOCH_UNPIN]
  rec.state.store(0, std::memory_order_release);
}

template <typename T>
T EpochDomain::sum_records(
    std::atomic<T> ThreadRecord::* field) const noexcept {
  T n = 0;
  for (ThreadRecord* rec = records_.head(); rec != nullptr; rec = rec->next) {
    n += (rec->*field).load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t EpochDomain::retired_count() const noexcept {
  return sum_records(&ThreadRecord::retired);
}

std::uint64_t EpochDomain::freed_count() const noexcept {
  return sum_records(&ThreadRecord::freed);
}

std::size_t EpochDomain::retired_bytes() const noexcept {
  return sum_records(&ThreadRecord::limbo_bytes);
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
}

bool EpochDomain::try_advance() {
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (ThreadRecord* rec = records_.head(); rec != nullptr; rec = rec->next) {
    // [acquires: EPOCH_PIN, EPOCH_UNPIN]
    const std::uint64_t s = rec->state.load(std::memory_order_seq_cst);
    if ((s & kPinnedBit) != 0 && (s >> kEpochShift) != e) {
      return false;  // a reader still pinned at an older epoch
    }
  }
  // [publishes: EPOCH_FLIP]
  const bool advanced = global_epoch_.compare_exchange_strong(
      e, e + 1, std::memory_order_acq_rel, std::memory_order_acquire);
  if (advanced) {
    obs::sites::mr_epoch_flip.record(e + 1);
    collect_released(e + 1);
  }
  return advanced;
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

void EpochDomain::collect_local(ThreadRecord& rec, std::uint64_t current) {
  std::size_t keep_from = 0;
  // Segments are in increasing-epoch order; free the safe prefix, folding
  // the high-water mark in first.
  if (!rec.limbo.empty() && rec.limbo.front().epoch + 2 <= current) {
    fold_high_water();
  }
  while (keep_from < rec.limbo.size() &&
         rec.limbo[keep_from].epoch + 2 <= current) {
    free_segment(rec, rec.limbo[keep_from]);
    ++keep_from;
  }
  if (keep_from != 0) {
    rec.limbo.erase(rec.limbo.begin(),
                    rec.limbo.begin() + static_cast<std::ptrdiff_t>(keep_from));
  }
}

void EpochDomain::collect_released(std::uint64_t current) {
  // A released record's limbo belongs to whoever claims the record, so a
  // survivor claims it just long enough to free what is two epochs old.
  // The counts are a hint read without the claim; a stale one leaves the
  // limbo for the next flip or the record's next owner.
  for (ThreadRecord* rec = records_.head(); rec != nullptr; rec = rec->next) {
    if (rec->retired.load(std::memory_order_relaxed) ==
            rec->freed.load(std::memory_order_relaxed) ||
        !Records::try_claim(*rec)) {
      continue;
    }
    collect_local(*rec, current);
    Records::release(*rec);
  }
}

std::size_t EpochDomain::drain_for_testing() {
  std::size_t freed = 0;
  // All threads must be quiescent; free every limbo segment of the
  // caller's record and of every released record, claiming each released
  // one first, as collect_released does. Records claimed by live threads
  // are skipped: draining them would race with their owners.
  ThreadRecord* self = local_record();
  assert(self->nesting == 0 && "drain_for_testing() under an active guard");
  fold_high_water();
  for (ThreadRecord* rec = records_.head(); rec != nullptr; rec = rec->next) {
    if (rec != self && !Records::try_claim(*rec)) continue;
    for (Segment& seg : rec->limbo) {
      freed += free_segment(*rec, seg);  // free_segment updates the counters
    }
    rec->limbo.clear();
    if (rec != self) Records::release(*rec);
  }
  return freed;
}

}  // namespace cachetrie::mr
