// fault.hpp — seeded fault-injection engine for the testkit.
//
// The chaos engine (chaos.hpp) perturbs schedules (yields/spins at protocol
// decision points). This layer upgrades those same sites to real fault
// verdicts so tests can prove — not assume — lock-freedom under the
// schedules lock-freedom is supposed to survive:
//
//   * stall(site, duration)  — the crossing thread parks for `duration`
//     (or until release_all(), whichever is first), then resumes. Models a
//     long preemption at the worst instruction.
//   * stall(site, kForever)  — parks until release_all(). Models an
//     unbounded stall; joinable at test teardown.
//   * die(site)              — parks until release_all(), then throws
//     fault::ThreadKilled. Models thread death: the victim executes no
//     further structure code (the unwind only runs Guard destructors, which
//     touch no shared nodes). Victim thread functions catch ThreadKilled.
//
// A parked victim that holds an epoch guard holds reclamation back with it
// (plain EBR): survivors' garbage stays in limbo until the victim resumes
// or unwinds. A stalled victim always resumes; ThreadKilled comes only
// from a die() spec.
//
// Plans are replayable: Plan::randomized(seed, ...) derives every spec
// (durations, ordinals, victim assignment) deterministically from the seed
// via the chaos mixer, and Plan::describe() prints the seed plus the specs
// so a failing run can be reproduced exactly.
//
// Build modes mirror chaos.hpp: without CACHETRIE_TESTKIT everything here
// is a no-op stub so fault-aware helpers compile in release builds.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "testkit/chaos.hpp"
#include "util/hashing.hpp"

#if defined(CACHETRIE_TESTKIT) && CACHETRIE_TESTKIT
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/sites.hpp"
#endif

namespace cachetrie::testkit::fault {

/// Thrown by the engine to simulate thread death at a die() spec. Victim
/// thread functions catch it at top level; the unwind runs only RAII
/// destructors.
struct ThreadKilled {};

enum class Kind : std::uint8_t { kStall, kDie };

/// Spec.thread value matching every thread.
inline constexpr std::uint64_t kAnyThread = ~0ull;
/// Stall duration meaning "until release_all()".
inline constexpr auto kForever = std::chrono::nanoseconds::max();

/// One injection rule. Matching is per thread: the engine counts each
/// thread's crossings of `site` and fires on crossings
/// [fire_on_hit, fire_on_hit + max_fires).
struct Spec {
  Site site{};
  Kind kind = Kind::kStall;
  std::chrono::nanoseconds duration{0};
  std::uint64_t thread = kAnyThread;  // chaos::bind_thread index filter
  std::uint32_t fire_on_hit = 1;
  std::uint32_t max_fires = 1;
};

/// A fault plan: an ordered list of specs plus the seed it was derived
/// from. Install with fault::install(plan); deterministic given the seed
/// and the per-thread crossing sequence (pin specs to thread indices for
/// strict replay — verdicts for kAnyThread specs depend on which thread
/// crosses first).
class Plan {
 public:
  explicit Plan(std::uint64_t seed = 0) : seed_(seed) {}

  Plan& stall(Site site, std::chrono::nanoseconds duration,
              std::uint64_t thread = kAnyThread, std::uint32_t fire_on_hit = 1,
              std::uint32_t max_fires = 1) {
    return add(site, Kind::kStall, duration, thread, fire_on_hit, max_fires);
  }

  Plan& die(Site site, std::uint64_t thread = kAnyThread,
            std::uint32_t fire_on_hit = 1) {
    return add(site, Kind::kDie, kForever, thread, fire_on_hit, 1);
  }

  /// Derives one finite-stall spec per (site, victim) pair, in order, with
  /// duration in [min_stall, max_stall] and a small randomized crossing
  /// ordinal, all as a pure function of `seed` and the site's position.
  /// Victims are thread indices 0..n_victims-1 (bind churn workers
  /// accordingly).
  static Plan randomized(std::uint64_t seed, std::span<const Site> sites,
                         std::uint64_t n_victims,
                         std::chrono::nanoseconds min_stall,
                         std::chrono::nanoseconds max_stall) {
    Plan plan(seed);
    std::uint64_t x = util::splitmix64_finalize(seed ^ 0x9e3779b97f4a7c15ULL);
    const std::uint64_t span = static_cast<std::uint64_t>(
        (max_stall - min_stall).count() + 1);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (std::uint64_t v = 0; v < n_victims; ++v) {
        x = util::splitmix64_finalize(x + i * 131 + v * 31 + 1);
        const auto dur =
            min_stall + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(x % span));
        const auto fire_on = static_cast<std::uint32_t>(1 + ((x >> 32) & 3));
        const auto fires = static_cast<std::uint32_t>(1 + ((x >> 40) & 1));
        plan.stall(sites[i], dur, v, fire_on, fires);
      }
    }
    return plan;
  }

  const std::vector<Spec>& specs() const noexcept { return specs_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Human-readable rendering, replay seed first.
  std::string describe() const {
    std::string out = "fault plan seed=" + std::to_string(seed_) + "\n";
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const Spec& s = specs_[i];
      out += "  [" + std::to_string(i) + "] " + name(s.site);
      out += s.kind == Kind::kDie ? " die" : " stall";
      if (s.kind == Kind::kStall) {
        out += s.duration == kForever
                   ? std::string(" forever")
                   : " " + std::to_string(s.duration.count()) + "ns";
      }
      out += s.thread == kAnyThread ? " thread=any"
                                    : " thread=" + std::to_string(s.thread);
      out += " hit=" + std::to_string(s.fire_on_hit) + "x" +
             std::to_string(s.max_fires) + "\n";
    }
    return out;
  }

 private:
  Plan& add(Site site, Kind kind, std::chrono::nanoseconds duration,
            std::uint64_t thread, std::uint32_t fire_on_hit,
            std::uint32_t max_fires) {
    specs_.push_back(
        Spec{site, kind, duration, thread, fire_on_hit, max_fires});
    return *this;
  }

  std::uint64_t seed_;
  std::vector<Spec> specs_;
};

#if defined(CACHETRIE_TESTKIT) && CACHETRIE_TESTKIT

namespace detail {

struct PlanState {
  std::uint64_t generation = 0;
  std::vector<Spec> specs;
};

// Installed plans are retained for the process lifetime (threads may hold a
// raw pointer across an install), so the atomic swap needs no reclamation.
inline std::vector<std::unique_ptr<PlanState>>& plan_history() {
  static auto* v = new std::vector<std::unique_ptr<PlanState>>();
  return *v;
}
inline std::mutex& plan_mutex() {
  static auto* m = new std::mutex();
  return *m;
}
inline std::atomic<PlanState*> g_plan{nullptr};
inline std::atomic<std::uint64_t> g_generation{0};

// Parking lot. Heap-allocated and never destroyed: a die() victim that is
// never released must not outlive a static condvar's destructor.
struct Parking {
  std::mutex m;
  std::condition_variable cv;
  std::uint64_t release_gen = 0;
};
inline Parking& parking() {
  static auto* p = new Parking();
  return *p;
}

inline std::atomic<std::uint64_t> g_stalls{0};
inline std::atomic<std::uint64_t> g_deaths{0};
inline std::atomic<std::uint64_t> g_parked_now{0};
inline std::atomic<std::uint64_t> g_parked_total{0};

struct ThreadHits {
  std::uint64_t generation = ~0ull;
  std::vector<std::uint32_t> hits;
};
inline ThreadHits& thread_hits() {
  thread_local ThreadHits th;
  return th;
}

/// Park per the spec, then either resume or die. Throws ThreadKilled.
inline void execute(const Spec& spec) {
  auto& pk = parking();
  const auto row = static_cast<std::uint64_t>(spec.site);
  obs::sites::fault_park.record(row, static_cast<std::uint64_t>(spec.kind));
  bool deadline_elapsed = false;
  {
    std::unique_lock<std::mutex> lk(pk.m);
    const std::uint64_t gen0 = pk.release_gen;
    g_parked_now.fetch_add(1, std::memory_order_relaxed);
    g_parked_total.fetch_add(1, std::memory_order_relaxed);
    (spec.kind == Kind::kDie ? g_deaths : g_stalls)
        .fetch_add(1, std::memory_order_relaxed);
    auto released = [&] { return pk.release_gen != gen0; };
    if (spec.kind == Kind::kStall && spec.duration != kForever) {
      deadline_elapsed = !pk.cv.wait_for(lk, spec.duration, released);
    } else {
      pk.cv.wait(lk, released);
    }
    g_parked_now.fetch_sub(1, std::memory_order_relaxed);
  }
  (void)deadline_elapsed;
  if (spec.kind == Kind::kDie) {
    obs::sites::fault_kill.record(row);
    throw ThreadKilled{};
  }
  obs::sites::fault_resume.record(row);
}

inline void on_chaos_point(Site site) {
  // [acquires: TK_FAULT_PLAN]
  PlanState* plan = g_plan.load(std::memory_order_acquire);
  if (plan == nullptr) return;
  ThreadHits& th = thread_hits();
  if (th.generation != plan->generation) {
    th.generation = plan->generation;
    th.hits.assign(plan->specs.size(), 0);
  }
  for (std::size_t i = 0; i < plan->specs.size(); ++i) {
    const Spec& spec = plan->specs[i];
    if (spec.site != site) continue;
    if (spec.thread != kAnyThread && spec.thread != chaos::bound_index()) {
      continue;
    }
    const std::uint32_t c = ++th.hits[i];
    if (c < spec.fire_on_hit || c >= spec.fire_on_hit + spec.max_fires) {
      continue;
    }
    execute(spec);
  }
}

}  // namespace detail

/// Installs `plan` as the live fault plan and hooks the chaos engine.
/// Verdicts fire only while chaos is enabled (chaos::enable(true)).
inline void install(const Plan& plan) {
  auto state = std::make_unique<detail::PlanState>();
  state->generation =
      detail::g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  state->specs = plan.specs();
  detail::PlanState* raw = state.get();
  {
    std::lock_guard<std::mutex> lk(detail::plan_mutex());
    detail::plan_history().push_back(std::move(state));
  }
  // [publishes: TK_FAULT_PLAN]
  detail::g_plan.store(raw, std::memory_order_release);
  chaos::set_fault_hook(&detail::on_chaos_point);
}

/// Wakes every parked victim: finite/forever stalls resume; die() victims
/// throw ThreadKilled and become joinable.
inline void release_all() {
  auto& pk = detail::parking();
  {
    std::lock_guard<std::mutex> lk(pk.m);
    ++pk.release_gen;
  }
  pk.cv.notify_all();
}

/// Uninstalls the plan and releases all victims.
inline void clear() {
  detail::g_plan.store(nullptr, std::memory_order_release);
  chaos::set_fault_hook(nullptr);
  release_all();
}

inline std::uint64_t injected_stalls() noexcept {
  return detail::g_stalls.load(std::memory_order_relaxed);
}
inline std::uint64_t injected_deaths() noexcept {
  return detail::g_deaths.load(std::memory_order_relaxed);
}
inline std::uint64_t parked_now() noexcept {
  return detail::g_parked_now.load(std::memory_order_relaxed);
}
inline std::uint64_t parked_total() noexcept {
  return detail::g_parked_total.load(std::memory_order_relaxed);
}
inline void reset_counters() noexcept {
  detail::g_stalls.store(0, std::memory_order_relaxed);
  detail::g_deaths.store(0, std::memory_order_relaxed);
  detail::g_parked_total.store(0, std::memory_order_relaxed);
}

/// Forces lost races: runs `victim` on chaos thread 1 and parks it forever
/// at its first crossing of each row of `rows` in turn; while it is parked
/// at rows[i], runs `intruder(i)` on the calling thread (as chaos thread 0),
/// then releases it. Returns how many rows the victim parked at: fewer than
/// rows.size() when it finished first, or did not reach the next row within
/// 10 s. Joins the victim before returning. A thread parked by an earlier
/// plan (say, an outer lose_race whose intruder this call runs in) stays
/// parked until the first release; nest only one-row calls, since a
/// released outer victim is chaos thread 1 too and could park again here.
inline std::size_t lose_race(std::uint64_t seed, std::span<const Site> rows,
                             const std::function<void()>& victim,
                             const std::function<void(std::size_t)>& intruder) {
  const std::uint64_t total0 = parked_total();
  Plan plan(seed);
  for (const Site row : rows) plan.stall(row, kForever, 1);
  chaos::set_global_seed(seed);
  install(plan);
  chaos::enable(true);
  std::atomic<bool> done{false};
  std::thread t([&] {
    chaos::bind_thread(1);
    victim();
    done.store(true, std::memory_order_release);
  });
  chaos::bind_thread(0);
  std::size_t parks = 0;
  // Only the victim parks under this plan, and it stays parked until
  // released, so its n-th park is the n-th rise of parked_total().
  const auto parked = [&] { return parked_total() > total0 + parks; };
  for (; parks < rows.size(); ++parks) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!parked() && !done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (!parked()) break;
    intruder(parks);
    release_all();
  }
  clear();
  t.join();
  chaos::enable(false);
  return parks;
}

#else  // !CACHETRIE_TESTKIT

inline void install(const Plan&) noexcept {}
inline void release_all() noexcept {}
inline void clear() noexcept {}
inline std::uint64_t injected_stalls() noexcept { return 0; }
inline std::uint64_t injected_deaths() noexcept { return 0; }
inline std::uint64_t parked_now() noexcept { return 0; }
inline std::uint64_t parked_total() noexcept { return 0; }
inline void reset_counters() noexcept {}

#endif  // CACHETRIE_TESTKIT

}  // namespace cachetrie::testkit::fault
