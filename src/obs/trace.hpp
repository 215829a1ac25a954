// trace.hpp — lock-free flight recorder: per-thread bounded ring buffers
// of fixed-size protocol events, drained on demand into a timeline.
//
// PR 3's metrics answer "how many"; this layer answers "in what order and
// how far apart". Each thread owns a power-of-two ring of 40-byte slots;
// recording an event is a handful of relaxed atomic stores into the
// owner's ring — no allocation, no CAS, no shared cache lines. When the
// ring is full the oldest events are overwritten (a flight recorder keeps
// the *latest* window — the one that ends at the crash), and the number of
// events ever emitted is tracked so drains can report how much history
// scrolled away.
//
// Draining may run concurrently with recording (the post-mortem hooks in
// testkit fire mid-chaos). Safety comes from a per-slot sequence lock in
// the single-writer special case: the owner stores seq=0 (in progress),
// publishes the payload, then stores seq=index+1 with release; a drainer
// accepts a slot only when seq reads index+1 both before and after copying
// the payload (with an acquire fence between), so a torn overwrite is
// detected and dropped, never surfaced. Every field is an atomic accessed
// relaxed, which keeps TSan clean — there is no data race to annotate away.
//
// Rings live on a util::RecordList, the list mr::EpochDomain keeps its
// thread records on: a thread's first event claims (or allocates) a ring,
// thread exit releases it for reuse, and drains never race deallocation
// because nothing is ever deallocated. The thread id is stored per event,
// so recycling cannot misattribute old events to the ring's next owner.
//
// Build modes follow obs/metrics.hpp's switch, the one observability switch:
//   * CACHETRIE_METRICS on (default via CMake option): the above, behind one
//     relaxed atomic-bool load per trace point (runtime-disabled tracing is
//     a compare + branch; nothing touches TLS or the ring).
//   * CACHETRIE_METRICS off: emit()/Span compile to nothing, Span is the
//     zero-size NullSpan (static_assert-enforced, mirroring NullCounter).
//
// Runtime enablement: trace::enable(true), or CACHETRIE_TRACE_ENABLE=1 in
// the environment. Ring capacity: CACHETRIE_TRACE_RING events per thread
// (default 4096, rounded up to a power of two).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/tsc.hpp"

#if defined(CACHETRIE_METRICS) && CACHETRIE_METRICS
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "util/padded.hpp"
#include "util/record_list.hpp"
#include "util/thread_id.hpp"
#endif

namespace cachetrie::obs::trace {

/// Generated from the site table in obs/sites.hpp, which also names the
/// enumerators (0 is kNone).
enum class EventId : std::uint16_t;

/// One drained event, in plain data form. `ts` is raw tsc ticks
/// (tsc::to_ns converts deltas); payload meaning is per-event (see the
/// site table's comments).
struct Event {
  std::uint64_t ts = 0;
  std::uint32_t tid = 0;
  EventId id{};
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
};

/// Zero-size stand-in for Span in metrics-OFF builds; unconditional so the
/// guarantee is static_assert-checkable even in metrics-on test builds.
struct NullSpan {
  constexpr NullSpan(EventId, EventId, std::uint64_t = 0,
                     std::uint64_t = 0) noexcept {}
};
static_assert(sizeof(NullSpan) == 1 && alignof(NullSpan) == 1);

#if defined(CACHETRIE_METRICS) && CACHETRIE_METRICS

namespace detail {

// Constant-initialized so the disabled-path check in emit() is a plain
// relaxed load with no init guard; EnvInit flips it during static
// initialization when CACHETRIE_TRACE_ENABLE is set (idempotent per TU).
inline std::atomic<bool> g_enabled{false};

struct EnvInit {
  EnvInit() noexcept {
    const char* e = std::getenv("CACHETRIE_TRACE_ENABLE");
    if (e != nullptr && *e != '\0' && *e != '0') {
      g_enabled.store(true, std::memory_order_relaxed);
    }
  }
};
inline EnvInit g_env_init{};

/// Slot seqlock states: 0 = write in progress, i+1 = holds the event with
/// absolute index i. 40 bytes of payload, padded to one cache line so the
/// owner's writes never false-share with a neighbouring slot a drainer is
/// validating.
struct alignas(util::kCacheLineSize) Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> meta{0};  // id | tid << 16
  std::atomic<std::uint64_t> a0{0};
  std::atomic<std::uint64_t> a1{0};
};

struct ThreadRing {
  Slot* slots = nullptr;
  std::uint64_t capacity = 0;            // power of two
  std::atomic<std::uint64_t> head{0};    // next absolute event index
  std::atomic<bool> in_use{false};
  ThreadRing* next = nullptr;
};

}  // namespace detail

/// Process-wide ring registry. Meyers singleton, same lifetime argument as
/// obs::Registry: forced into existence before any event is recorded,
/// destroyed after every recorder (rings themselves are immortal).
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  /// Adopts a recycled ring or allocates a fresh one (the only allocation
  /// in the layer, once per thread lifetime, outside any protocol step).
  detail::ThreadRing* acquire_ring() {
    return rings_.acquire([this] {
      auto* r = new detail::ThreadRing();
      r->capacity = capacity_.load(std::memory_order_relaxed);
      r->slots = new detail::Slot[r->capacity];
      return r;
    });
  }

  /// Copies every still-valid event out of every ring. Safe concurrently
  /// with writers: torn slots fail seqlock validation and are skipped.
  /// Events arrive ring-by-ring; sort by ts for a global timeline.
  std::vector<Event> drain() const {
    std::vector<Event> out;
    for (detail::ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
      const std::uint64_t head = r->head.load(std::memory_order_acquire);
      const std::uint64_t lo = head > r->capacity ? head - r->capacity : 0;
      for (std::uint64_t i = lo; i < head; ++i) {
        const detail::Slot& s = r->slots[i & (r->capacity - 1)];
        // [acquires: TRACE_SEQLOCK]
        if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
        Event ev;
        ev.ts = s.ts.load(std::memory_order_relaxed);
        const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
        ev.a0 = s.a0.load(std::memory_order_relaxed);
        ev.a1 = s.a1.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) != i + 1) continue;
        ev.id = static_cast<EventId>(meta & 0xffff);
        ev.tid = static_cast<std::uint32_t>(meta >> 16);
        out.push_back(ev);
      }
    }
    return out;
  }

  /// Events ever emitted across all rings (monotone while rings are live).
  std::uint64_t total_emitted() const noexcept {
    std::uint64_t n = 0;
    for (detail::ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
      n += r->head.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Lower bound on events lost to overwrite (per-ring overflow).
  std::uint64_t total_overwritten() const noexcept {
    std::uint64_t n = 0;
    for (detail::ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
      const std::uint64_t head = r->head.load(std::memory_order_relaxed);
      if (head > r->capacity) n += head - r->capacity;
    }
    return n;
  }

  /// Applies to rings allocated after the call; reset_for_testing()
  /// reshapes existing rings to it. Rounded up to a power of two, min 16.
  void set_ring_capacity_for_testing(std::uint64_t events) {
    capacity_.store(std::bit_ceil(events < 16 ? 16 : events),
                    std::memory_order_relaxed);
  }

  /// Empties every ring (and reallocates to the current capacity). Caller
  /// must guarantee quiescence: no thread may emit or drain concurrently.
  void reset_for_testing() {
    const std::uint64_t cap = capacity_.load(std::memory_order_relaxed);
    for (detail::ThreadRing* r = rings_.head(); r != nullptr; r = r->next) {
      if (r->capacity != cap) {
        delete[] r->slots;
        r->slots = new detail::Slot[cap];
        r->capacity = cap;
      } else {
        for (std::uint64_t i = 0; i < cap; ++i) {
          r->slots[i].seq.store(0, std::memory_order_relaxed);
        }
      }
      r->head.store(0, std::memory_order_relaxed);
    }
  }

 private:
  Registry() {
    std::uint64_t cap = 4096;
    if (const char* e = std::getenv("CACHETRIE_TRACE_RING")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(e, &end, 10);
      if (end != e && v > 0) cap = v;
    }
    capacity_.store(std::bit_ceil(cap < 16 ? 16 : cap),
                    std::memory_order_relaxed);
  }

  util::RecordList<detail::ThreadRing> rings_;
  std::atomic<std::uint64_t> capacity_{4096};
};

namespace detail {

struct TlsRef {
  ThreadRing* ring = nullptr;
  std::uint32_t tid = 0;

  ~TlsRef() {
    if (ring != nullptr) util::RecordList<ThreadRing>::release(*ring);
  }
};

inline TlsRef& local_ref() {
  thread_local TlsRef ref;
  if (ref.ring == nullptr) {
    ref.ring = Registry::instance().acquire_ring();
    ref.tid = util::current_thread_id();
  }
  return ref;
}

/// The enabled-path tail of emit(): one TLS lookup, five relaxed stores
/// and two fences into the caller's own ring.
inline void emit_slow(EventId id, std::uint64_t a0,
                      std::uint64_t a1) noexcept {
  TlsRef& ref = local_ref();
  ThreadRing* r = ref.ring;
  const std::uint64_t i = r->head.load(std::memory_order_relaxed);
  Slot& s = r->slots[i & (r->capacity - 1)];
  s.seq.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.ts.store(tsc::now(), std::memory_order_relaxed);
  s.meta.store(static_cast<std::uint64_t>(id) |
                   (static_cast<std::uint64_t>(ref.tid) << 16),
               std::memory_order_relaxed);
  s.a0.store(a0, std::memory_order_relaxed);
  s.a1.store(a1, std::memory_order_relaxed);
  // [publishes: TRACE_SEQLOCK]
  s.seq.store(i + 1, std::memory_order_release);
  r->head.store(i + 1, std::memory_order_relaxed);
}

}  // namespace detail

/// Turns recording on/off at runtime (compiled-in but disabled tracing is
/// one relaxed load + branch per trace point).
inline void enable(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Records one event into the calling thread's ring. Never allocates,
/// never blocks, never touches another thread's cache lines.
inline void emit(EventId id, std::uint64_t a0 = 0,
                 std::uint64_t a1 = 0) noexcept {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  detail::emit_slow(id, a0, a1);
}

/// RAII span: begin event at construction, end event at destruction, same
/// payload on both so the exporter/summarizer can pair them.
class Span {
 public:
  Span(EventId begin, EventId end, std::uint64_t a0 = 0,
       std::uint64_t a1 = 0) noexcept
      : end_(end), a0_(a0), a1_(a1) {
    emit(begin, a0, a1);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { emit(end_, a0_, a1_); }

 private:
  EventId end_;
  std::uint64_t a0_, a1_;
};

inline Registry& registry() { return Registry::instance(); }

#else  // !CACHETRIE_METRICS

constexpr void enable(bool) noexcept {}
constexpr bool enabled() noexcept { return false; }
constexpr void emit(EventId, std::uint64_t = 0, std::uint64_t = 0) noexcept {}

using Span = NullSpan;

/// No-op control surface so trace-aware code compiles in both modes.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }
  std::vector<Event> drain() const { return {}; }
  std::uint64_t total_emitted() const noexcept { return 0; }
  std::uint64_t total_overwritten() const noexcept { return 0; }
  void set_ring_capacity_for_testing(std::uint64_t) {}
  void reset_for_testing() {}
};

inline Registry& registry() { return Registry::instance(); }

#endif  // CACHETRIE_METRICS

}  // namespace cachetrie::obs::trace
