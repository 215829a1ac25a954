// kv_session_store.cpp — an in-memory session store under realistic churn:
// a mixed workload (85% lookups / 10% logins / 5% logouts, skewed towards
// hot sessions) runs on several threads while the main thread reports
// throughput, live-session count, structure footprint and the adaptive
// cache level. Shows the operational/observability side of the API
// (Config, the obs:: metrics registry, cache_level, footprint_bytes).
//
//   run: ./build/examples/kv_session_store [threads] [seconds]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

struct Session {
  std::uint64_t user_id;
  std::uint64_t login_time;
  std::uint32_t flags;
};

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const int seconds = argc > 2 ? std::atoi(argv[2]) : 3;

  // The dashboard reads the process-wide metrics registry: each count is a
  // store into the recording thread's own stripe, no shared locked add.
  cachetrie::CacheTrie<std::uint64_t, Session> store;

  constexpr std::uint64_t kSessionSpace = 1 << 20;
  // Warm the store with an initial population.
  for (std::uint64_t s = 0; s < 200000; ++s) {
    store.insert(s * 7 + 1, Session{s, 0, 0});
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      cachetrie::util::XorShift64Star rng{static_cast<std::uint64_t>(t) + 1};
      std::uint64_t local_ops = 0;
      std::uint64_t now = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Skew towards a hot subset: 3/4 of traffic hits 1/16 of the space.
        std::uint64_t sid = rng.next_below(kSessionSpace);
        if (rng.next_below(4) != 0) sid /= 16;
        sid = sid * 7 + 1;
        const std::uint64_t dice = rng.next_below(100);
        if (dice < 85) {
          (void)store.lookup(sid);
        } else if (dice < 95) {
          store.insert(sid, Session{sid >> 3, ++now, 0});
        } else {
          (void)store.remove(sid);
        }
        if ((++local_ops & 1023) == 0) {
          ops.fetch_add(1024, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int s = 0; s < seconds; ++s) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const auto st = cachetrie::obs::registry().snapshot();
    std::printf(
        "[t+%ds] ops/s=%.2fM cache_level=%d fast_hits=%llu samples=%llu "
        "expansions=%llu compressions=%llu\n",
        s + 1, static_cast<double>(ops.exchange(0)) / 1e6, store.cache_level(),
        static_cast<unsigned long long>(
            st.counter_value("cachetrie.cache.hit")),
        static_cast<unsigned long long>(
            st.counter_value("cachetrie.cache.sampling_pass")),
        static_cast<unsigned long long>(st.counter_value("cachetrie.expand")),
        static_cast<unsigned long long>(
            st.counter_value("cachetrie.compress")));
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  std::printf("live sessions : %zu\n", store.size());
  std::printf("footprint     : %.1f MiB\n",
              static_cast<double>(store.footprint_bytes()) / (1024.0 * 1024.0));
  const auto issues = store.debug_validate();
  std::printf("invariants    : %s\n", issues.empty() ? "ok" : "VIOLATED");
  return issues.empty() ? 0 : 1;
}
