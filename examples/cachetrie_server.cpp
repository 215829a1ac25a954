// cachetrie_server.cpp — a standalone cache server over the serving layer:
// a shard-per-core epoll reactor (src/net/) fronting a bounded cache-trie,
// speaking the length-prefixed binary protocol (src/net/proto.hpp) on
// 127.0.0.1. Run it in one terminal and poke it with the built-in client
// from another, or point bench/fig15_served_load-style load at it.
//
//   run server:  ./build/examples/cachetrie_server [port] [shards] [ceiling_mb]
//                    [--stats-interval <secs>]
//                (port 0 = kernel-assigned, printed at startup;
//                 --stats-interval prints live interval deltas — op rates,
//                 gauge movement, interval latency quantiles — every pull)
//   run client:  ./build/examples/cachetrie_server --client <port> [ops]
//                (loopback smoke: put/get/remove round trips + a report)
//   introspect:  ./build/examples/cachetrie_server --stats <port>
//                (one kStats pull: the server's metrics snapshot + interval
//                 delta as JSON over the wire)
//                ./build/examples/cachetrie_server --trace-ctl <port> on|off|dump
//                (flip the server's flight recorder, or trigger a dump)
//
// Ctrl-C drains: every shard stops accepting work (late requests draw
// kShed with the draining flag), flushes buffered replies, and the process
// exits with a per-shard serve report.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cachetrie/evict.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "obs/interval.hpp"
#include "obs/metrics.hpp"

namespace {

namespace net = cachetrie::net;
namespace proto = cachetrie::net::proto;
using BoundedTrie =
    cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t>;

std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true, std::memory_order_release); }

int run_client(std::uint16_t port, std::uint64_t ops) {
  net::Client client{port};
  if (!client.ok()) {
    std::fprintf(stderr, "connect to 127.0.0.1:%u failed\n", port);
    return 1;
  }
  std::uint64_t ok = 0, shed = 0, other = 0;
  const std::uint64_t t0 = proto::now_us();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto p = client.put(i % 4096, i);
    const auto g = client.get(i % 4096);
    for (const auto& r : {p, g}) {
      if (r.ok()) {
        ++ok;
      } else if (r.status == proto::Status::kShed) {
        ++shed;
      } else {
        ++other;
      }
    }
  }
  const double secs = static_cast<double>(proto::now_us() - t0) / 1e6;
  std::printf("client: %llu ops in %.2fs (%.0f op/s) — ok=%llu shed=%llu "
              "other=%llu\n",
              static_cast<unsigned long long>(2 * ops), secs,
              static_cast<double>(2 * ops) / secs,
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(other));
  return other == 0 ? 0 : 1;
}

// One kStats pull: print the JSON document the server handed back — a
// registry snapshot plus the serving shard's interval delta. Piping it
// through `python3 -m json.tool` pretty-prints it; the document is plain
// JSON by contract (tests/net_introspect_test.cpp validates the grammar).
int run_stats(std::uint16_t port) {
  net::Client client{port};
  if (!client.ok()) {
    std::fprintf(stderr, "connect to 127.0.0.1:%u failed\n", port);
    return 1;
  }
  const auto s = client.stats();
  if (!s.ok()) {
    std::fprintf(stderr, "stats pull failed: %s\n",
                 proto::status_name(s.status));
    return 1;
  }
  std::printf("%s\n", s.json.c_str());
  return 0;
}

int run_trace_ctl(std::uint16_t port, const char* action) {
  proto::TraceCtl ctl;
  if (std::strcmp(action, "on") == 0) {
    ctl = proto::TraceCtl::kEnable;
  } else if (std::strcmp(action, "off") == 0) {
    ctl = proto::TraceCtl::kDisable;
  } else if (std::strcmp(action, "dump") == 0) {
    ctl = proto::TraceCtl::kDump;
  } else {
    std::fprintf(stderr, "trace-ctl action must be on|off|dump\n");
    return 2;
  }
  net::Client client{port};
  if (!client.ok()) {
    std::fprintf(stderr, "connect to 127.0.0.1:%u failed\n", port);
    return 1;
  }
  const auto r = client.trace_ctl(ctl);
  if (!r.ok()) {
    std::fprintf(stderr, "trace-ctl failed: %s\n",
                 proto::status_name(r.status));
    return 1;
  }
  if (ctl == proto::TraceCtl::kDump) {
    std::printf("dump %s (server writes TRACE_trace_ctl.json into "
                "$CACHETRIE_TRACE_OUT or its cwd)\n",
                r.value != 0 ? "written" : "failed — recorder off or I/O");
    return r.value != 0 ? 0 : 1;
  }
  std::printf("flight recorder %s\n", r.value != 0 ? "enabled" : "disabled");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--client") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --client <port> [ops]\n", argv[0]);
      return 2;
    }
    const auto port = static_cast<std::uint16_t>(std::atoi(argv[2]));
    const std::uint64_t ops = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                       : 10000;
    return run_client(port, ops);
  }
  if (argc > 1 && std::strcmp(argv[1], "--stats") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --stats <port>\n", argv[0]);
      return 2;
    }
    return run_stats(static_cast<std::uint16_t>(std::atoi(argv[2])));
  }
  if (argc > 1 && std::strcmp(argv[1], "--trace-ctl") == 0) {
    if (argc < 4) {
      std::fprintf(stderr, "usage: %s --trace-ctl <port> on|off|dump\n",
                   argv[0]);
      return 2;
    }
    return run_trace_ctl(static_cast<std::uint16_t>(std::atoi(argv[2])),
                         argv[3]);
  }

  // Server mode: positional [port] [shards] [ceiling_mb], plus an optional
  // --stats-interval <secs> anywhere after them.
  std::vector<const char*> pos;
  double stats_interval_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-interval") == 0 && i + 1 < argc) {
      stats_interval_s = std::atof(argv[++i]);
    } else {
      pos.push_back(argv[i]);
    }
  }
  const auto port =
      static_cast<std::uint16_t>(pos.size() > 0 ? std::atoi(pos[0]) : 0);
  const std::size_t shards =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoi(pos[1]))
                     : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t ceiling_mb =
      pos.size() > 2 ? static_cast<std::size_t>(std::atoi(pos[2])) : 64;
  if (shards == 0) {
    std::fprintf(stderr,
                 "usage: %s [port] [shards >= 1] [ceiling_mb] "
                 "[--stats-interval <secs>]\n",
                 argv[0]);
    return 2;
  }

  cachetrie::evict::BoundedConfig bcfg;
  bcfg.ceiling_bytes = ceiling_mb << 20;
  BoundedTrie map{bcfg};

  net::ServerConfig scfg;
  scfg.port = port;
  scfg.shards = shards;
  net::Server<BoundedTrie> server{map, scfg};
  if (!server.ok() || !server.start()) {
    std::fprintf(stderr, "bind/listen on 127.0.0.1:%u failed\n", port);
    return 1;
  }
  std::printf("cachetrie_server: 127.0.0.1:%u — %zu shard(s), %zu MiB "
              "ceiling (Ctrl-C drains)\n",
              server.port(), server.shard_count(), ceiling_mb);
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // --stats-interval: a local pull loop over the in-process registry — the
  // same differ the shards use to answer kStats, owned here by the main
  // thread (one differ per puller; they never share).
  cachetrie::obs::IntervalDiffer differ;
  if (stats_interval_s > 0.0) {
    (void)differ.advance(cachetrie::obs::registry().snapshot(),
                         proto::now_us());  // prime the base
  }
  std::uint64_t next_pull_us =
      proto::now_us() +
      static_cast<std::uint64_t>(stats_interval_s * 1e6);
  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (stats_interval_s > 0.0 && proto::now_us() >= next_pull_us) {
      const std::uint64_t now = proto::now_us();
      differ.advance(cachetrie::obs::registry().snapshot(), now)
          .print_table(std::cout);
      std::cout.flush();
      next_pull_us =
          now + static_cast<std::uint64_t>(stats_interval_s * 1e6);
    }
  }

  std::printf("\ndraining...\n");
  server.stop();
  const auto t = server.totals();
  std::printf("served=%llu shed=%llu deadline_expired=%llu "
              "backpressure_kills=%llu proto_errors=%llu conns=%llu "
              "resident=%zu bytes\n",
              static_cast<unsigned long long>(t.served),
              static_cast<unsigned long long>(t.shed),
              static_cast<unsigned long long>(t.deadline_expired),
              static_cast<unsigned long long>(t.backpressure_kills),
              static_cast<unsigned long long>(t.proto_errors),
              static_cast<unsigned long long>(t.conns_adopted),
              map.resident_bytes());
  return 0;
}
