// served_workloads.hpp — the served-cache workload: one generator thread
// drives a 2-shard Server<BoundedCacheTrie> over loopback through
// net::Client, closed loop, so every request crosses the client, the
// kernel's socket path, a shard and the map.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cachetrie/evict.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "util/rng.hpp"

namespace ctbench {

namespace proto = cachetrie::net::proto;
using BoundedTrie = cachetrie::evict::BoundedCacheTrie<Key, Value>;

/// served_evict_churn: bounded-mode eviction on the serving path. A 2^21-key
/// zipf keyspace about 8x what the 16 MiB ceiling holds, used cache-aside
/// (get, and put on kNotFound), so the hit rate shows how well lazy
/// eviction approximates LRU. The map op is ~1% of a request, so net-layer
/// changes show here and map-only changes must not.
inline constexpr const char* kServedName = "served_evict_churn";
inline constexpr std::size_t kServedKeySpace = std::size_t{1} << 21;  // zipf ranks
inline constexpr std::size_t kServedCeiling = std::size_t{16} << 20;  // resident bytes

inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kConns = 2;
inline constexpr std::size_t kOutstandingPerConn = 4;
inline constexpr double kZipfExponent = 0.99;
/// Span sampling in traced windows: 1 in 16 requests on the generator, 1
/// in 8 map calls on each shard thread.
inline constexpr std::uint64_t kClientSpanEvery = 16;
inline constexpr std::uint64_t kShardSpanEvery = 8;
/// A request unanswered this long fails the run (the server is wedged).
inline constexpr double kRequestTimeoutNs = 5e9;

/// zipf(s) over ranks 0..n-1 by inverse CDF: a table of n doubles and a
/// binary search per draw.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t rank(std::uint64_t random) const {
    const double u = static_cast<double>(random >> 11) * 0x1.0p-53;
    const auto i = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The traced run's Map type for the Server: forwards ServeMap's surface
/// to the bounded trie and, in traced windows, records every 8th call on
/// each shard thread as a map.<wire op> span with the key as argument.
class TimedMap {
 public:
  TimedMap(BoundedTrie& map, const Schedule& sched) : map_(map), sched_(sched) {}

  std::optional<Value> lookup(Key k) const {
    return timed("map.get", k, [&] { return map_.lookup(k); });
  }
  bool insert(Key k, Value v) {
    return timed("map.put", k, [&] { return map_.insert(k, v); });
  }
  std::optional<Value> remove(Key k) {
    return timed("map.remove", k, [&] { return map_.remove(k); });
  }
  bool remove_if_equals(Key k, Value expected) {
    return timed("map.remove_if_equals", k,
                 [&] { return map_.remove_if_equals(k, expected); });
  }
  bool near_ceiling(double frac) const { return map_.near_ceiling(frac); }
  std::size_t resident_headroom_bytes() const {
    return map_.resident_headroom_bytes();
  }

 private:
  template <typename F>
  std::invoke_result_t<F&> timed(const char* name, Key k, F&& call) const {
    thread_local std::uint64_t calls = 0;
    if (!sched_.traced(sched_.current()) || ++calls % kShardSpanEvery != 0) {
      return call();
    }
    Span s;
    s.name = name;
    s.key = k;
    s.has_key = true;
    s.t0 = tsc::now();
    auto result = call();
    s.t1 = tsc::now();
    SpanLog::instance().record(s);
    return result;
  }

  BoundedTrie& map_;
  const Schedule& sched_;
};

/// What the generator saw, checked after the run.
struct ServedOutcomes {
  std::uint64_t wrong = 0;    // a value without its key's tag, or a bad echo
  std::uint64_t refused = 0;  // shed, deadline, bad request, timeout, closed
  std::string fatal;          // why the generator stopped early, if it did
};

/// The closed loop: kConns connections with kOutstandingPerConn requests
/// each in flight; a completed request's slot immediately sends the next.
inline void generator(std::vector<std::unique_ptr<net::Client>>& clients,
                      const Zipf& zipf, const Schedule& sched, const Clock& clock,
                      std::uint64_t seed, Tallies& tallies,
                      ServedOutcomes& out) {
  struct Slot {
    std::size_t conn = 0;
    std::uint64_t id = 0;
    proto::Op op = proto::Op::kGet;
    Key key = 0;
    Value value = 0;
    std::uint64_t t0 = 0;  // send() entry
    std::uint64_t t1 = 0;  // send() return
  };
  cachetrie::util::XorShift64Star rng{mix64(seed ^ 0x5e7ed5eedull)};
  std::uint32_t version = 0;
  std::uint64_t completed = 0;
  const auto timeout_ticks =
      static_cast<std::uint64_t>(kRequestTimeoutNs / clock.ns_per_tick);

  const auto draw = [&](Slot& s) {
    s.key = key_at(seed, zipf.rank(rng.next()));
    s.op = proto::Op::kGet;
    s.value = 0;
  };
  const auto send = [&](Slot& s) {
    s.t0 = tsc::now();
    const bool ok = clients[s.conn]->send(s.op, s.key, s.value, &s.id, 0);
    s.t1 = tsc::now();
    if (!ok) out.fatal = "send failed on connection " + std::to_string(s.conn);
    return ok;
  };

  std::vector<Slot> slots(kConns * kOutstandingPerConn);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].conn = i % kConns;
    draw(slots[i]);
    if (!send(slots[i])) return;
  }
  RunMeter meter(tallies);
  for (int w = sched.current(); !sched.done(w); w = sched.current()) {
    meter.at(w);
    Tally& tl = tallies[static_cast<std::size_t>(w)];
    const bool traced = sched.traced(w);
    for (Slot& s : slots) {
      net::Client::Result r;
      if (!clients[s.conn]->poll(s.id, &r)) {
        if (clients[s.conn]->closed()) {
          out.fatal = "connection " + std::to_string(s.conn) + " closed";
          return;
        }
        if (tsc::now() - s.t0 > timeout_ticks) {
          out.fatal = "request unanswered for 5 s";
          return;
        }
        continue;
      }
      const std::uint64_t t2 = tsc::now();
      ++tl.ops;
      tl.latency.record(clock.call_ns(s.t0, t2));
      bool put_next = false;
      if (s.op == proto::Op::kGet) {
        ++tl.gets;
      } else {
        ++tl.puts;
      }
      if (r.status == proto::Status::kOk) {
        const bool right = s.op == proto::Op::kGet ? carries_tag(s.key, r.value)
                                                   : r.value == s.value;
        if (s.op == proto::Op::kGet) ++tl.hits;
        if (!right) {
          ++out.wrong;
          ++tl.failed;
        }
      } else if (r.status == proto::Status::kNotFound && s.op == proto::Op::kGet) {
        put_next = true;
      } else {
        ++out.refused;
        ++tl.failed;
      }
      if (traced && ++completed % kClientSpanEvery == 0) {
        Span req;
        req.name = "client.request";
        req.t0 = s.t0;
        req.t1 = t2;
        req.id = (static_cast<std::uint64_t>(s.conn) << 48) | s.id;
        req.has_id = true;
        req.key = s.key;
        req.has_key = true;
        Span snd = req;
        snd.name = "client.send";
        snd.cause = "client.request";
        snd.t1 = s.t1;
        Span wait = snd;
        wait.name = "client.wait";
        wait.t0 = s.t1;
        wait.t1 = t2;
        SpanLog::instance().record(req);
        SpanLog::instance().record(snd);
        SpanLog::instance().record(wait);
      }
      if (put_next) {
        s.op = proto::Op::kPut;
        s.value = make_value(s.key, ++version);
      } else {
        draw(s);
      }
      if (!send(s)) return;
    }
  }
  meter.stop();
  // Let the last requests land so no reply arrives after the clients close.
  for (Slot& s : slots) {
    net::Client::Result r;
    while (!clients[s.conn]->poll(s.id, &r) && !clients[s.conn]->closed() &&
           tsc::now() - s.t0 <= timeout_ticks) {
    }
  }
}

template <bool Traced>
RunResult run_served(const Options& opt) {
  using ServedMap = std::conditional_t<Traced, TimedMap, BoundedTrie>;
  RunResult res;
  res.workload = kServedName;
  res.seed = opt.seed;
  res.traced = opt.traced;

  const Zipf zipf(kServedKeySpace, kZipfExponent);
  Schedule sched(opt.seconds, opt.traced);

  std::unique_ptr<BoundedTrie> map;
  std::unique_ptr<TimedMap> timed;
  std::unique_ptr<net::Server<ServedMap>> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::string setup_error;
  res.setups = time_setups(
      [&] {
        clients.clear();
        server.reset();
        timed.reset();
        map.reset();
      },
      [&] {
        cachetrie::evict::BoundedConfig cfg;
        cfg.ceiling_bytes = kServedCeiling;
        map = std::make_unique<BoundedTrie>(cfg);
        // Key i has zipf rank i: hottest first, so the map starts full of
        // the keys the workload asks for most.
        for (std::size_t i = 0; i < kServedKeySpace; ++i) {
          const Key k = key_at(opt.seed, i);
          map->insert(k, make_value(k, 0));
          if (map->resident_bytes() >= kServedCeiling) break;
        }
        ServedMap* target = nullptr;
        if constexpr (Traced) {
          timed = std::make_unique<TimedMap>(*map, sched);
          target = timed.get();
        } else {
          target = map.get();
        }
        net::ServerConfig scfg;
        scfg.shards = kShards;
        // Round-robin placement puts one connection on each shard every
        // time; least-loaded placement can race two quick connects onto
        // one shard and make runs bimodal.
        scfg.least_loaded = false;
        server = std::make_unique<net::Server<ServedMap>>(*target, scfg);
        if (!server->ok() || !server->start()) {
          setup_error = "server did not start";
          return;
        }
        for (std::size_t c = 0; c < kConns; ++c) {
          clients.push_back(std::make_unique<net::Client>(server->port()));
          if (!clients.back()->ok()) setup_error = "client did not connect";
        }
      });
  if (!setup_error.empty()) {
    res.errors.push_back(setup_error);
    return res;
  }

  std::vector<Tallies> tallies(1, Tallies(static_cast<std::size_t>(opt.seconds) + 1));
  ServedOutcomes out;
  std::size_t& resident_max = res.layers.resident_max_bytes;
  {
    std::jthread gen(generator, std::ref(clients), std::cref(zipf),
                     std::cref(sched),
                     std::cref(opt.clock), opt.seed, std::ref(tallies[0]),
                     std::ref(out));
    sched.run(
        [&](int w) {
          if (w == 1) res.layers.registry_begin = obs::registry().snapshot();
          if (sched.done(w)) res.layers.registry_end = obs::registry().snapshot();
        },
        [&] { resident_max = std::max(resident_max, map->resident_bytes()); });
  }  // joins the generator
  clients.clear();
  server->stop();

  res.windows = window_rows(tallies, sched, /*callers_never_sleep=*/false,
                            &res.measured);
  res.steal_frac = sched.steal();
  res.attempted = res.measured.ops;
  res.failed = res.measured.failed;

  LayerData& ly = res.layers;
  ly.totals = server->totals();
  ly.phases = server->phase_latency();
  if (!out.fatal.empty()) res.errors.push_back("generator: " + out.fatal);
  if (out.wrong != 0) {
    res.errors.push_back(std::to_string(out.wrong) +
                         " replies carried a value that is not their key's");
  }
  if (server->killed_shards() != 0) {
    res.errors.push_back(std::to_string(server->killed_shards()) +
                         " shard(s) died");
  }
  if (ly.totals->proto_errors != 0) {
    res.errors.push_back(std::to_string(ly.totals->proto_errors) +
                         " protocol errors");
  }
  if (resident_max > kServedCeiling + kServedCeiling / 2) {
    res.errors.push_back("resident bytes reached " + std::to_string(resident_max) +
                         ", over the ceiling + 50% (" +
                         std::to_string(kServedCeiling) + " + 50%)");
  }
  for (const std::string& problem : map->underlying().debug_validate()) {
    res.errors.push_back("debug_validate: " + problem);
  }

  ly.size = map->size();
  ly.footprint_bytes = map->footprint_bytes();
  ly.cache_level = map->underlying().cache_level();
  ly.level_top_pair_share = map->underlying().level_histogram().top_pair_share();
  ly.ceiling_bytes = kServedCeiling;
  res.mem_bytes_per_key = ly.size == 0 ? 0.0
                                       : static_cast<double>(ly.footprint_bytes) /
                                             static_cast<double>(ly.size);
  return res;
}

}  // namespace ctbench
