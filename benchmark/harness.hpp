// harness.hpp — measurement scaffolding shared by the benchmark workloads:
// seeded inputs, the calibrated clock, the window schedule, per-window
// tallies, the span log of traced runs, and the run record that run.py,
// summarize.py and compare.py read.
//
// Every layer is measured from outside: the benchmark times calls into a
// layer's public functions and reads its public counters. Nothing here
// reaches into the library's internals.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "net/reactor.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/tsc.hpp"
#include "util/hashing.hpp"

namespace ctbench {

namespace obs = cachetrie::obs;
namespace tsc = cachetrie::obs::tsc;
namespace net = cachetrie::net;
using cachetrie::util::mix64;

using Key = std::uint64_t;
using Value = std::uint64_t;

// --- seeded inputs -----------------------------------------------------------

/// Key i of the seed's key stream: distinct for every i < 2^32 (mix64 is a
/// bijection). Load threads compute keys from their index instead of
/// loading them from a table, so the harness adds no memory miss per op.
inline Key key_at(std::uint64_t seed, std::uint64_t i) noexcept {
  return mix64((seed << 32) ^ i);
}

/// Every stored value carries a tag derived from its key in its high 32
/// bits (the low 32 hold a writer-chosen version), so a reader can tell a
/// value that belongs to another key from a correct one.
inline Value key_tag(Key k) noexcept {
  return mix64(k ^ 0x6a09e667f3bcc909ull) << 32;
}
inline Value make_value(Key k, std::uint32_t version) noexcept {
  return key_tag(k) | version;
}
inline bool carries_tag(Key k, Value v) noexcept {
  return (v >> 32) << 32 == key_tag(k);
}

// --- clock -------------------------------------------------------------------

/// tsc ticks to nanoseconds, plus the cost of the two back-to-back clock
/// reads that bracket every timed call, measured with an empty-op pass.
/// Call latencies subtract it.
struct Clock {
  double ns_per_tick = 1.0;
  double overhead_ns = 0.0;

  static Clock calibrate() {
    Clock c;
    c.ns_per_tick = tsc::calibration().ns_per_tick;
    std::vector<std::uint64_t> d(1 << 14);
    for (auto& x : d) {
      const std::uint64_t t0 = tsc::now();
      const std::uint64_t t1 = tsc::now();
      x = t1 - t0;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    c.overhead_ns = static_cast<double>(d[d.size() / 2]) * c.ns_per_tick;
    return c;
  }

  double ns(std::uint64_t ticks) const noexcept {
    return static_cast<double>(ticks) * ns_per_tick;
  }

  /// Duration of one timed call in whole ns, clock cost removed.
  std::uint64_t call_ns(std::uint64_t t0, std::uint64_t t1) const noexcept {
    const double v = ns(t1 - t0) - overhead_ns;
    return v > 0.0 ? static_cast<std::uint64_t>(v + 0.5) : 0;
  }
};

// --- CPU placement -----------------------------------------------------------

/// The CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Binds the calling thread to `cpus` (threads it starts inherit them).
inline void bind_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// --- host --------------------------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat (zeros when unreadable).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static CpuTimes read() {
    CpuTimes t;
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    if (cpu != "cpu") return t;
    // user nice system idle iowait irq softirq steal (guest time is
    // already folded into user).
    for (int i = 0; i < 8; ++i) {
      std::uint64_t v = 0;
      if (!(f >> v)) return CpuTimes{};
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }

  /// Share of the CPU time between a and b that the host stole.
  static double steal_frac(const CpuTimes& a, const CpuTimes& b) {
    if (b.total <= a.total) return 0.0;
    return static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
  }
};

// --- the run's time line -----------------------------------------------------

/// One warm-up window (index 0), then `windows` measured 1 s windows
/// (1..windows), then stop (windows + 1). Load threads read the index once
/// per batch; the main thread advances it and records each window's wall
/// length and host steal. In a traced run the even measured windows are
/// traced and the odd ones are not, so one run yields both sides of the
/// tracing overhead under the same host conditions.
class Schedule {
 public:
  Schedule(int windows, bool traced) : windows_(windows), traced_(traced) {}

  int current() const noexcept { return w_.load(std::memory_order_relaxed); }
  int windows() const noexcept { return windows_; }
  bool done(int w) const noexcept { return w > windows_; }
  bool traced(int w) const noexcept {
    return traced_ && w >= 1 && w <= windows_ && w % 2 == 0;
  }

  /// Runs the time line on the calling thread. `on_enter(w)` runs just
  /// before window w opens (w == windows() + 1 is the stop); `on_tick()`
  /// runs about every 10 ms.
  template <typename Enter, typename Tick>
  void run(Enter&& on_enter, Tick&& on_tick) {
    using clock = std::chrono::steady_clock;
    auto opened = clock::now();
    for (int w = 1; w <= windows_ + 1; ++w) {
      const auto close = opened + std::chrono::seconds(1);
      for (auto now = clock::now(); now < close; now = clock::now()) {
        on_tick();
        std::this_thread::sleep_until(
            std::min(close, now + std::chrono::milliseconds(10)));
      }
      on_enter(w);
      cpu_.push_back(CpuTimes::read());
      const auto now = clock::now();
      w_.store(w, std::memory_order_relaxed);
      if (w >= 2) {
        seconds_.push_back(std::chrono::duration<double>(now - opened).count());
      }
      opened = now;
    }
  }

  // Valid after run(); w is a measured window (1-based).
  double seconds(int w) const { return seconds_[index(w)]; }
  double steal(int w) const {
    return CpuTimes::steal_frac(cpu_[index(w)], cpu_[index(w) + 1]);
  }
  /// Host steal over all measured windows.
  double steal() const { return CpuTimes::steal_frac(cpu_.front(), cpu_.back()); }

 private:
  static std::size_t index(int w) { return static_cast<std::size_t>(w - 1); }

  int windows_;
  bool traced_;
  std::atomic<int> w_{0};
  std::vector<double> seconds_;
  std::vector<CpuTimes> cpu_;  // at each window boundary from window 1 on
};

/// One thread's counts for one window.
struct Tally {
  std::uint64_t ops = 0;      // completed calls: map operations or requests
  std::uint64_t failed = 0;   // calls without a valid answer
  std::uint64_t gets = 0;     // lookups / GETs
  std::uint64_t hits = 0;     // ... that returned a value
  std::uint64_t puts = 0;     // inserts / PUTs
  std::uint64_t removes = 0;
  std::uint64_t run_ns = 0;   // the calling thread's runnable time
  obs::LatencyHistogram latency;  // ns per timed call

  void merge(const Tally& o) {
    ops += o.ops;
    failed += o.failed;
    gets += o.gets;
    hits += o.hits;
    puts += o.puts;
    removes += o.removes;
    run_ns += o.run_ns;
    latency.merge(o.latency);
  }
};

/// Tallies of one load thread (or generator), indexed by window.
using Tallies = std::vector<Tally>;

inline std::uint64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The calling thread's runnable time: its CPU time plus the time it
/// waited on a run queue behind other threads (the second field of
/// /proc/thread-self/schedstat). With paravirtual steal accounting, a KVM
/// guest's default, the kernel leaves the time the host stole from the
/// vCPU out of the CPU time. For a thread that never sleeps this is its
/// wall time minus host steal. Where schedstat cannot be read it is the
/// wall time.
inline std::uint64_t thread_run_ns() noexcept {
  const int fd = ::open("/proc/thread-self/schedstat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return clock_ns(CLOCK_MONOTONIC);
  const std::uint64_t cpu = clock_ns(CLOCK_THREAD_CPUTIME_ID);
  char buf[96];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  std::uint64_t on_cpu = 0, waited = 0;
  const char* end = buf + std::max<ssize_t>(n, 0);
  auto [p, ec] = std::from_chars(buf, end, on_cpu);
  if (ec == std::errc() && p != end) std::from_chars(p + 1, end, waited);
  return cpu + waited;
}

/// Charges a caller thread's runnable time to the window it worked in:
/// call at(w) with the window index each time the thread reads it, and
/// stop() when it leaves its loop (the destructor stops too). The thread's
/// ops and its run time are attributed by the same reads, so they pair up.
class RunMeter {
 public:
  explicit RunMeter(Tallies& tallies) : tallies_(tallies) {}
  RunMeter(const RunMeter&) = delete;
  RunMeter& operator=(const RunMeter&) = delete;
  ~RunMeter() { stop(); }

  void at(int w) {
    if (w == w_) return;
    const std::uint64_t now = thread_run_ns();
    if (w_ >= 0) tallies_[static_cast<std::size_t>(w_)].run_ns += now - since_;
    w_ = w;
    since_ = now;
  }
  void stop() {
    if (w_ < 0) return;
    tallies_[static_cast<std::size_t>(w_)].run_ns += thread_run_ns() - since_;
    w_ = -1;
  }

 private:
  Tallies& tallies_;
  int w_ = -1;
  std::uint64_t since_ = 0;
};

/// A window's end-to-end values, from all threads' tallies.
struct WindowRow {
  int index = 0;
  bool traced = false;
  bool used = false;          // counted in the end-to-end medians
  double seconds = 0.0;
  double steal_frac = 0.0;    // host steal during the window
  std::uint64_t samples = 0;  // timed calls behind the percentiles
  /// Completed calls per second. Where the callers never sleep (see
  /// window_rows) it is per second of their runnable time, times the
  /// number of callers: wall-clock throughput with the time the host stole
  /// from them taken out. Otherwise it is wall_ops_per_s.
  double ops_per_s = 0.0;
  double wall_ops_per_s = 0.0;  // completed calls per wall-clock second
  double run_frac = 0.0;        // callers' runnable time over callers x wall time
  double op_p50_ns = 0.0;
  double op_p99_ns = 0.0;
  double get_hit_frac = 0.0;
};

/// A window in which the host stole more than this share of the CPU time
/// measures the host, not the program (steal episodes on a shared host
/// halve served throughput), so the end-to-end medians skip it.
inline constexpr double kQuietSteal = 0.02;

/// Marks the windows the end-to-end medians use: the untraced windows with
/// at most kQuietSteal steal, or, when fewer than half of them qualify, the
/// half with the least steal.
inline void mark_used(std::vector<WindowRow>& rows) {
  std::vector<WindowRow*> plain;
  for (WindowRow& r : rows) {
    if (!r.traced) plain.push_back(&r);
  }
  std::stable_sort(plain.begin(), plain.end(), [](const WindowRow* a, const WindowRow* b) {
    return a->steal_frac < b->steal_frac;
  });
  const auto quiet = static_cast<std::size_t>(std::count_if(
      plain.begin(), plain.end(), [](const WindowRow* r) { return r->steal_frac <= kQuietSteal; }));
  const std::size_t keep = std::max(quiet, (plain.size() + 1) / 2);
  for (std::size_t i = 0; i < keep; ++i) plain[i]->used = true;
}

/// Merges per-thread tallies window by window. Returns the rows of the
/// measured windows and adds their totals to `measured`.
///
/// `callers_never_sleep`: the callers spin and never block (the map load
/// threads), so their wall time is runnable time plus host steal, and
/// ops_per_s can leave the steal out exactly. A caller that sleeps (the
/// served generator, inside socket calls) would have its sleep left out
/// with it, so there ops_per_s stays wall-clock.
inline std::vector<WindowRow> window_rows(
    const std::vector<Tallies>& per_thread, const Schedule& s,
    bool callers_never_sleep, Tally* measured) {
  std::vector<WindowRow> rows;
  const auto callers = static_cast<double>(per_thread.size());
  for (int w = 1; w <= s.windows(); ++w) {
    Tally t;
    for (const auto& th : per_thread) t.merge(th[static_cast<std::size_t>(w)]);
    WindowRow r;
    r.index = w;
    r.traced = s.traced(w);
    r.seconds = s.seconds(w);
    r.steal_frac = s.steal(w);
    r.samples = t.latency.count();
    const double run_s = static_cast<double>(t.run_ns) / 1e9;
    r.wall_ops_per_s = static_cast<double>(t.ops) / r.seconds;
    r.run_frac = run_s / (callers * r.seconds);
    r.ops_per_s = !callers_never_sleep ? r.wall_ops_per_s
                  : run_s > 0.0        ? static_cast<double>(t.ops) * callers / run_s
                                       : 0.0;
    r.op_p50_ns = t.latency.quantile(0.50);
    r.op_p99_ns = t.latency.quantile(0.99);
    r.get_hit_frac = t.gets == 0 ? 0.0
                                 : static_cast<double>(t.hits) /
                                       static_cast<double>(t.gets);
    rows.push_back(r);
    measured->merge(t);
  }
  mark_used(rows);
  return rows;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- set-up timing -----------------------------------------------------------

/// Each set-up's duration, and the CPU it was bound to (-1: not bound).
struct Setups {
  std::vector<double> seconds;
  std::vector<int> cpus;

  /// The set-up time a run reports: the median over each CPU's set-ups,
  /// averaged over the CPUs.
  double typical() const {
    std::vector<int> seen = cpus;
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    double sum = 0.0;
    for (const int c : seen) {
      std::vector<double> on_c;
      for (std::size_t i = 0; i < seconds.size(); ++i) {
        if (cpus[i] == c) on_c.push_back(seconds[i]);
      }
      sum += median(on_c);
    }
    return seen.empty() ? 0.0 : sum / static_cast<double>(seen.size());
  }
};

/// Runs `setup()` at least 5 times and until 0.3 s of set-up has
/// accumulated (at most 50 times). `teardown()` runs untimed before each
/// set-up. A set-up of a few milliseconds gets enough repetitions for a
/// steady median; the state the last set-up leaves behind is the one
/// measured.
///
/// With `cpus` given, set-up i runs bound to cpus[i % cpus.size()], and
/// the thread is unbound again afterwards. A shared host's vCPUs do not run
/// equally fast, and which one is slow changes from minute to minute: on a
/// 4-vCPU KVM guest one set-up of map_churn_small took 1.5 ms on some vCPUs
/// and 2.3 ms on others, so a run that set up on one vCPU read either.
/// Binding cut the run-to-run spread of its set-up time from 15% to 8%
/// (14 seeds), and map_read_large's from 24% to 11% (8 seeds). Only a
/// set-up that starts no threads may be bound (they would inherit it).
template <typename Teardown, typename Setup>
Setups time_setups(Teardown&& teardown, Setup&& setup,
                   const std::vector<int>& cpus = {}) {
  Setups out;
  double total = 0.0;
  while (out.seconds.size() < 5 || (total < 0.3 && out.seconds.size() < 50)) {
    // Bound before the teardown, so the memory the set-up reuses is as
    // warm in this CPU's caches as it would be without moving.
    const int cpu = cpus.empty() ? -1 : cpus[out.seconds.size() % cpus.size()];
    if (cpu >= 0) bind_thread({cpu});
    teardown();
    const auto t0 = std::chrono::steady_clock::now();
    setup();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    out.seconds.push_back(s);
    out.cpus.push_back(cpu);
    total += s;
  }
  if (!cpus.empty()) bind_thread(cpus);
  return out;
}

// --- spans (traced runs) -----------------------------------------------------

/// One timed call at a layer boundary. `id` ties a request's spans
/// together; `cause` names the span that caused this one (nullptr at the
/// top); `key` is the map key, when there is one.
struct Span {
  const char* name = nullptr;
  const char* cause = nullptr;
  std::uint64_t t0 = 0;  // tsc ticks
  std::uint64_t t1 = 0;
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  bool has_id = false;
  bool has_key = false;
};

/// In-memory span store: one buffer per recording thread, owned by the
/// log so it outlives threads that exit (shard threads). Each buffer is
/// written by its own thread only and read after every recorder joined.
class SpanLog {
 public:
  static constexpr std::size_t kMaxPerThread = std::size_t{1} << 18;

  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  void record(const Span& s) {
    Buffer& b = local();
    if (b.spans.size() < kMaxPerThread) b.spans.push_back(s);
  }

  /// Drops all spans; call only while no thread records.
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& b : buffers_) b->spans.clear();
  }

  /// Calls fn(tid, span) for every span; call only after recorders joined.
  template <typename F>
  void for_each(F&& fn) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans) fn(b->tid, s);
    }
  }

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };

  Buffer& local() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->tid = static_cast<std::uint32_t>(buffers_.size());
    }
    return *mine;
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// --- the run record ----------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  int seconds = 36;  // measured 1 s windows; BENCHMARK.json's run_seconds
  bool traced = false;
  Clock clock;
};

/// Raw per-layer inputs a traced run dumps for summarize.py.
struct LayerData {
  obs::Snapshot registry_begin, registry_end;  // edges of the measured period
  std::size_t size = 0;
  std::size_t footprint_bytes = 0;
  std::int32_t cache_level = -1;
  double level_top_pair_share = 0.0;
  std::size_t ceiling_bytes = 0;       // 0: unbounded map
  std::size_t resident_max_bytes = 0;  // sampled every 10 ms
  // Served workloads only: the server's own accounting, read after stop().
  std::optional<net::ServerTotals> totals;
  std::optional<net::PhaseLatency> phases;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<std::string> errors;  // correctness violations
  std::uint64_t attempted = 0;      // calls in the measured windows
  std::uint64_t failed = 0;
  Tally measured;                   // all measured windows, all threads
  Setups setups;
  std::vector<WindowRow> windows;
  double steal_frac = 0.0;          // host steal over the measured windows
  double mem_bytes_per_key = 0.0;
  LayerData layers;

  bool correct() const { return errors.empty(); }
};

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// The end-to-end metrics: medians over the used measured windows, the
/// median set-up time, and the memory cost per stored key.
/// The tail (`op_p99_ns`) is not among them: served tails do not repeat on
/// a shared host, so it is a per-layer metric (summarize.py).
inline std::vector<Metric> end_to_end(const RunResult& r) {
  std::vector<double> ops, p50, hit;
  for (const WindowRow& w : r.windows) {
    if (!w.used) continue;
    ops.push_back(w.ops_per_s);
    p50.push_back(w.op_p50_ns);
    hit.push_back(w.get_hit_frac);
  }
  return {{"setup_s", "s", r.setups.typical()},
          {"ops_per_s", "ops/s", median(ops)},
          {"op_p50_ns", "ns", median(p50)},
          {"get_hit_frac", "fraction", median(hit)},
          {"mem_bytes_per_key", "B/key", r.mem_bytes_per_key}};
}

// --- JSON --------------------------------------------------------------------

/// Small streaming JSON writer: tracks commas for nested objects/arrays.
class JsonOut {
 public:
  explicit JsonOut(std::ostream& os) : os_(os) {}

  JsonOut& begin_object() { return open('{'); }
  JsonOut& end_object() { return close('}'); }
  JsonOut& begin_array() { return open('['); }
  JsonOut& end_array() { return close(']'); }

  JsonOut& key(std::string_view k) {
    separate();
    string(k);
    os_ << ':';
    after_key_ = true;
    return *this;
  }

  JsonOut& value(double v) {
    separate();
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os_.write(buf, res.ptr - buf);
    return *this;
  }
  JsonOut& value(std::uint64_t v) {
    separate();
    os_ << v;
    return *this;
  }
  JsonOut& value(std::int64_t v) {
    separate();
    os_ << v;
    return *this;
  }
  JsonOut& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonOut& value(bool v) {
    separate();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonOut& value(std::string_view v) {
    separate();
    string(v);
    return *this;
  }
  JsonOut& value(const char* v) { return value(std::string_view(v)); }

  template <typename T>
  JsonOut& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

 private:
  JsonOut& open(char c) {
    separate();
    os_ << c;
    first_.push_back(true);
    return *this;
  }
  JsonOut& close(char c) {
    os_ << c;
    first_.pop_back();
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
  void string(std::string_view s) {
    os_ << '"';
    obs::detail_emit::json_escape(os_, s);
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace ctbench
