// driver.hpp — multi-threaded history generation for the linearizability
// testkit.
//
// run_histories() spins up a fixed worker pool once, then runs many short
// "histories": each history gets a fresh map from the caller's factory, a
// per-history chaos seed (derived from the configured base seed and the
// history ordinal), and a deterministic per-thread workload (ops, keys,
// values all come from SplitMix64 streams seeded by (seed, history,
// thread)). Workers record every operation through the HistoryRecorder;
// between histories the main thread runs the Wing–Gong checker on the
// merged events while the workers idle at a barrier.
//
// Reproducing a failure: the printed trace carries the base seed. Re-run
// the same driver call with that seed and the identical workload + chaos
// decision streams replay; the OS may interleave differently, but a
// protocol bug reachable under that perturbation stream recurs within a
// few histories in practice (and the workload itself is bit-identical, so
// any recurrence produces the same style of trace).
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace_export.hpp"
#include "testkit/chaos.hpp"
#include "testkit/history.hpp"
#include "testkit/lin_check.hpp"
#include "util/kv_map.hpp"
#include "util/rng.hpp"

namespace cachetrie::testkit {

struct DriverConfig {
  std::uint32_t threads = 4;
  std::uint32_t ops_per_thread = 12;
  // Small key/value ranges on purpose: contention is what provokes the
  // multi-CAS protocols, and small value domains let the *_if_equals
  // comparands actually match sometimes.
  std::uint64_t key_range = 6;
  std::uint64_t value_range = 4;
  std::uint32_t histories = 1000;
  std::uint64_t seed = 1;
  bool stop_on_violation = true;
};

struct DriverResult {
  std::uint64_t histories_checked = 0;
  std::uint64_t seed = 0;
  std::optional<Violation> violation;
  std::uint64_t violating_history = 0;
  std::string trace;  // formatted interleaving dump (empty when clean)
};

/// Runs `ev.op` with its key and arguments on `map` and stores the outcome
/// in `ev` (ok, or has_result/result). The history driver and the lost-race
/// matrix share this one op switch; a conditional op the map lacks leaves
/// `ev` untouched (callers emit only the ops the map has).
template <util::KvMap Map>
void apply(Map& map, Event& ev) {
  switch (ev.op) {
    case Op::kInsert:
      ev.ok = map.insert(ev.key, ev.arg);
      break;
    case Op::kPutIfAbsent:
      if constexpr (util::HasPutIfAbsent<Map>) {
        ev.ok = map.put_if_absent(ev.key, ev.arg);
      }
      break;
    case Op::kReplace:
      if constexpr (util::HasReplace<Map>) {
        ev.ok = map.replace(ev.key, ev.arg);
      }
      break;
    case Op::kReplaceIfEquals:
      if constexpr (util::HasReplaceIfEquals<Map>) {
        ev.ok = map.replace_if_equals(ev.key, ev.expected, ev.arg);
      }
      break;
    case Op::kLookup: {
      const auto r = map.lookup(ev.key);
      ev.has_result = r.has_value();
      if (r) ev.result = *r;
      break;
    }
    case Op::kRemove: {
      const auto r = map.remove(ev.key);
      ev.has_result = r.has_value();
      if (r) ev.result = *r;
      break;
    }
    case Op::kRemoveIfEquals:
      if constexpr (util::HasRemoveIfEquals<Map>) {
        ev.ok = map.remove_if_equals(ev.key, ev.expected);
      }
      break;
  }
}

namespace driver_detail {

/// One thread's deterministic slice of one history.
template <util::KvMap Map>
void run_thread_ops(Map& map, HistoryRecorder& rec, const DriverConfig& cfg,
                    std::uint64_t history, std::uint32_t tid) {
  util::SplitMix64 rng(util::splitmix64_finalize(
      cfg.seed ^ (history * 0x9e3779b97f4a7c15ULL) ^
      (tid * 0xbf58476d1ce4e5b9ULL)));
  for (std::uint32_t i = 0; i < cfg.ops_per_thread; ++i) {
    Event ev;
    ev.thread = tid;
    ev.key = rng.next() % cfg.key_range;
    ev.arg = rng.next() % cfg.value_range;
    ev.expected = rng.next() % cfg.value_range;
    const std::uint64_t roll = rng.next() % 100;
    // Weights (conditional ops fall back to the unconditional form when
    // the structure lacks them): 30 lookup, 20 insert, 20 remove, then a
    // 30-point band split over the conditionals.
    if (roll < 30) {
      ev.op = Op::kLookup;
    } else if (roll < 50) {
      ev.op = Op::kInsert;
    } else if (roll < 70) {
      ev.op = roll < 60 || !util::HasRemoveIfEquals<Map> ? Op::kRemove
                                                         : Op::kRemoveIfEquals;
    } else if (roll < 85) {
      ev.op = util::HasPutIfAbsent<Map> ? Op::kPutIfAbsent : Op::kInsert;
    } else if (roll < 93) {
      ev.op = util::HasReplace<Map> ? Op::kReplace : Op::kInsert;
    } else {
      ev.op = util::HasReplaceIfEquals<Map> ? Op::kReplaceIfEquals
                                            : Op::kInsert;
    }
    ev.invoke = rec.ticket();
    apply(map, ev);
    ev.response = rec.ticket();
    rec.append(tid, ev);
  }
}

}  // namespace driver_detail

/// Runs cfg.histories multi-threaded histories against maps produced by
/// `make` (a callable returning something dereferenceable to a KvMap, e.g.
/// std::make_unique<Map>(...)), checking each one.
template <typename Factory>
DriverResult run_histories(Factory&& make, const DriverConfig& cfg) {
  using MapPtr = std::invoke_result_t<Factory&>;
  using Map = std::remove_reference_t<decltype(*std::declval<MapPtr&>())>;

  DriverResult out;
  out.seed = cfg.seed;
  HistoryRecorder rec(cfg.threads, cfg.ops_per_thread);
  std::barrier start(cfg.threads + 1);
  std::barrier finish(cfg.threads + 1);
  MapPtr map{};
  std::atomic<bool> stop{false};
  chaos::enable(true);

  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (std::uint32_t tid = 0; tid < cfg.threads; ++tid) {
    workers.emplace_back([&, tid] {
      for (std::uint64_t h = 0; h < cfg.histories; ++h) {
        start.arrive_and_wait();
        if (!stop.load(std::memory_order_acquire)) {
          chaos::bind_thread(tid);
          driver_detail::run_thread_ops<Map>(*map, rec, cfg, h, tid);
        }
        finish.arrive_and_wait();
      }
    });
  }

  for (std::uint64_t h = 0; h < cfg.histories; ++h) {
    const bool live = !stop.load(std::memory_order_relaxed);
    if (live) {
      // Per-history chaos seed: every history explores a different
      // perturbation stream while staying a pure function of (seed, h).
      chaos::set_global_seed(util::splitmix64_finalize(cfg.seed + h));
      rec.reset();
      map = make();
    }
    start.arrive_and_wait();
    finish.arrive_and_wait();
    if (live) {
      if (auto v = check_history(rec.merged())) {
        out.violation = std::move(v);
        out.violating_history = h;
        out.trace = format_trace(*out.violation, cfg.seed, h);
        // Post-mortem: keep the protocol-event window leading up to the
        // failing history (no-op unless tracing is enabled).
        obs::sites::lin_check_fail.record(cfg.seed, h);
        obs::trace::post_mortem_dump("lin_check_failure");
        if (cfg.stop_on_violation) {
          stop.store(true, std::memory_order_release);
        }
      }
      ++out.histories_checked;
      map = MapPtr{};  // destroy before the next history's factory call
    }
  }
  for (auto& t : workers) t.join();
  chaos::enable(false);
  return out;
}

}  // namespace cachetrie::testkit
