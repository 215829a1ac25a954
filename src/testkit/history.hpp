// history.hpp — per-thread operation-history recording for the
// linearizability testkit.
//
// Each worker thread records one Event per completed map operation into its
// own bounded, preallocated buffer (single-writer, no synchronization on
// the append path). Real-time ordering comes from a global ticket clock:
// an operation takes one ticket immediately before calling into the map
// (invoke) and one immediately after it returns (response). If
// response(A) < invoke(B) then A really did complete before B began, which
// is exactly the precedence relation linearizability must respect; ops
// whose ticket intervals overlap ran concurrently and may be ordered either
// way by the checker.
//
// The ticket counter is the only shared cache line the recorder touches on
// the hot path. That is a deliberate trade: the fetch_add serializes a few
// nanoseconds per op, but yields a total event order consistent with real
// time, which keeps the checker exact (timestamp-based recorders need
// per-op clock error bars). Test workloads are small, so the counter is
// nowhere near contention collapse.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "testkit/chaos.hpp"
#include "util/padded.hpp"

namespace cachetrie::testkit {

/// The map ADT's operation alphabet — the union of what the four
/// structures support; adapters without an op simply never emit it.
enum class Op : std::uint8_t {
  kInsert,           // upsert; ok == key was new
  kPutIfAbsent,      // ok == inserted
  kReplace,          // ok == key was present
  kReplaceIfEquals,  // ok == present && value == expected
  kLookup,           // has_result/result
  kRemove,           // has_result/result
  kRemoveIfEquals,   // ok == present && value == expected
};

/// An op's bit in the chaos-site table's ops column (chaos.hpp row_ops).
constexpr std::uint16_t op_bit(Op op) noexcept {
  return static_cast<std::uint16_t>(1u << static_cast<unsigned>(op));
}
static_assert(op_bit(Op::kInsert) == row_ops::ins &&
              op_bit(Op::kPutIfAbsent) == row_ops::pia &&
              op_bit(Op::kReplace) == row_ops::rpl &&
              op_bit(Op::kReplaceIfEquals) == row_ops::rpe &&
              op_bit(Op::kLookup) == row_ops::lkp &&
              op_bit(Op::kRemove) == row_ops::rem &&
              op_bit(Op::kRemoveIfEquals) == row_ops::rme);

constexpr const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kInsert: return "insert";
    case Op::kPutIfAbsent: return "put_if_absent";
    case Op::kReplace: return "replace";
    case Op::kReplaceIfEquals: return "replace_if_equals";
    case Op::kLookup: return "lookup";
    case Op::kRemove: return "remove";
    case Op::kRemoveIfEquals: return "remove_if_equals";
  }
  return "?";
}

/// One completed operation: what was asked, what came back, and the ticket
/// interval it occupied.
struct Event {
  std::uint64_t invoke = 0;    // ticket taken just before the call
  std::uint64_t response = 0;  // ticket taken just after the return
  std::uint64_t key = 0;
  std::uint64_t arg = 0;       // value argument (insert/replace/...)
  std::uint64_t expected = 0;  // comparand of the *_if_equals forms
  std::uint64_t result = 0;    // value returned, valid iff has_result
  std::uint32_t thread = 0;
  Op op = Op::kLookup;
  bool ok = false;          // boolean outcome (was_new / replaced / removed)
  bool has_result = false;  // lookup/remove found a value
};

class HistoryRecorder {
 public:
  /// `capacity` bounds events per thread; appends beyond it are dropped
  /// (and assert in debug builds) rather than reallocating under a
  /// concurrent run.
  HistoryRecorder(std::uint32_t threads, std::size_t capacity)
      : capacity_(capacity), logs_(threads) {
    for (auto& log : logs_) log.value.reserve(capacity);
  }

  /// Draws the next global ticket. Safe from any thread.
  std::uint64_t ticket() noexcept {
    return clock_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Appends to `thread`'s log. Single writer per thread id.
  void append(std::uint32_t thread, const Event& ev) noexcept {
    auto& log = logs_[thread].value;
    assert(log.size() < capacity_ && "history buffer overflow");
    if (log.size() < capacity_) log.push_back(ev);
  }

  /// Merges all per-thread logs, sorted by invoke ticket. Call only when
  /// every recording thread is quiescent (e.g. across a barrier).
  std::vector<Event> merged() const {
    std::vector<Event> all;
    std::size_t total = 0;
    for (const auto& log : logs_) total += log.value.size();
    all.reserve(total);
    for (const auto& log : logs_) {
      all.insert(all.end(), log.value.begin(), log.value.end());
    }
    std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
      return a.invoke < b.invoke;
    });
    return all;
  }

  /// Clears the logs and rewinds the clock for the next history. Same
  /// quiescence requirement as merged().
  void reset() noexcept {
    for (auto& log : logs_) log.value.clear();
    clock_.store(0, std::memory_order_relaxed);
  }

  std::uint32_t threads() const noexcept {
    return static_cast<std::uint32_t>(logs_.size());
  }

 private:
  std::atomic<std::uint64_t> clock_{0};
  std::size_t capacity_;
  // Padded so two threads' vector headers never share a cache line.
  std::vector<util::Padded<std::vector<Event>>> logs_;
};

}  // namespace cachetrie::testkit
