// net_fault_test.cpp — connection-fault battery for the serving layer
// (ctest label `net`, RUN_SERIAL, plain + tsan).
//
// Each scenario drives one robustness path deterministically by parking or
// killing the shard thread at a net.* chaos site and controlling what is in
// the kernel socket buffers when it resumes:
//   * deadline: requests buffered behind a stalled shard are already past
//     their send-time budget when parsed, so every one draws
//     kDeadlineExceeded — none executes;
//   * shed: a post-stall flood exceeds max_inflight in one parse batch, so
//     exactly max_inflight requests execute and the rest draw kShed; a
//     sync call shed that way backs off and lands on its retry;
//   * die-mid-request: the fault engine kills a shard between admission and
//     map execution; the lock-free maps stay valid (debug_validate), the
//     surviving shard keeps serving under a progress watchdog, and the
//     server drains cleanly around the corpse — the ISSUE's acceptance
//     scenario;
//   * backpressure: a client that never reads accumulates replies to the
//     write-buffer cap and is disconnected; resident reply bytes never
//     exceed cap + one frame;
//   * drain: requests arriving after stop() draw kShed|kFlagDraining, then
//     the connection closes — the drain handshake refuses work, it does
//     not drop it silently;
//   * overload: 2x open-loop burst pressure with a 25% slow-client mix
//     sheds rather than queues — accepted-request p99 stays within 5x the
//     unloaded p99 (floored against scheduler noise on the 1-core CI box).
#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"
#include "testkit/watchdog.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using tk::Site;
namespace net = cachetrie::net;
namespace proto = cachetrie::net::proto;
using namespace std::chrono_literals;

using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;

// Chaos stream id of shard 0 (reactor.hpp).
constexpr std::uint64_t kShard0 = net::kChaosThreadBase + 1;

net::ServerConfig one_shard_config() {
  net::ServerConfig cfg;
  cfg.shards = 1;
  return cfg;
}

struct ChaosSession {
  explicit ChaosSession(std::uint64_t seed) {
    tk::chaos::set_global_seed(seed);
    tk::chaos::enable(true);
  }
  ~ChaosSession() {
    fault::clear();
    tk::chaos::enable(false);
  }
};

/// A client that sends `frames` pings and never reads a reply. The whole
/// request stream is built first and pushed from a nonblocking socket in as
/// few sends as the kernel takes. The writer stops once everything is
/// written, once the server has closed the connection (a hard send error),
/// or at `budget` with the socket still refusing bytes: a connection that
/// TCP has wedged (its peer's segments dropped unread, both ends in
/// retransmit backoff) then ends the writer instead of blocking it in
/// send(). Returns the bytes written.
std::size_t write_pings_never_reading(int fd, std::uint64_t frames,
                                      std::chrono::milliseconds budget) {
  std::vector<unsigned char> wire;
  wire.reserve(frames * proto::kRequestWire);
  proto::RequestFrame req;
  req.op = static_cast<std::uint8_t>(proto::Op::kPing);
  for (std::uint64_t i = 0; i < frames; ++i) {
    req.request_id = i + 1;
    proto::append_frame(wire, req);
  }
  if (!net::set_nonblocking(fd)) return 0;
  const auto deadline = std::chrono::steady_clock::now() + budget;
  std::size_t off = 0;
  while (off < wire.size()) {
    const long n = net::write_some(fd, wire.data() + off, wire.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n != -1) break;  // the server closed the connection
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;  // wedged: give up the rest
    pollfd p{fd, POLLOUT, 0};
    ::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left.count(), 50)));
  }
  return off;
}

void wait_parked(std::uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::parked_now() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(fault::parked_now(), n) << "victim never reached the site";
}

// Requests buffered behind a stalled shard expire against their send-time
// budget: the stall is charged to the requests, not hidden from them.
TEST(NetFault, DeadlineExpiredDeterministicallyBehindStall) {
  ChaosSession chaos{41};
  fault::install(fault::Plan(41).stall(Site::net_request_execute, 700ms,
                                       /*thread=*/kShard0));

  Trie map;
  net::Server<Trie> server{map, one_shard_config()};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 15'000'000;
  net::Client client{server.port(), ccfg};
  ASSERT_TRUE(client.ok());

  // Trips the stall at its execution chaos point.
  std::uint64_t trigger_id = 0;
  ASSERT_TRUE(client.send(proto::Op::kPing, 0, 1, &trigger_id, 0));
  wait_parked(1);

  // Sent while the shard is parked, with a 50 ms budget from send time —
  // by resume (>= ~650 ms later) every budget is long gone.
  std::uint64_t ids[3] = {};
  for (auto& id : ids) {
    ASSERT_TRUE(client.send(proto::Op::kPut, 99, 1, &id, 50'000));
  }

  // The stall sits after the trigger's exec-begin stamp, so it is execute
  // time, not queueing: queue_us must not include it.
  const auto trigger = client.wait(trigger_id);
  EXPECT_EQ(trigger.status, proto::Status::kOk);
  EXPECT_LT(trigger.queue_us, 350'000u);
  for (const auto id : ids) {
    const auto r = client.wait(id);
    EXPECT_EQ(r.status, proto::Status::kDeadlineExceeded)
        << proto::status_name(r.status);
  }
  // kDeadlineExceeded means NOT executed: the put never landed.
  EXPECT_FALSE(map.lookup(99).has_value());

  client.close();
  server.stop();
  const auto totals = server.totals();
  EXPECT_EQ(totals.deadline_expired, 3u);
  EXPECT_EQ(totals.served, 1u);
  // Refused replies carry no phase mark: only the served one is timed.
  EXPECT_EQ(server.phase_latency().total.count(), totals.served);
  EXPECT_EQ(server.killed_shards(), 0u);
  EXPECT_TRUE(map.debug_validate().empty());
}

// A post-stall flood is parsed in one batch: exactly max_inflight requests
// are admitted, the remainder is shed at admission — the queue cannot grow
// past the cap no matter how much the kernel buffered.
TEST(NetFault, ShedsDeterministicallyPastInflightCap) {
  ChaosSession chaos{42};
  fault::install(fault::Plan(42).stall(Site::net_request_execute, 500ms,
                                       /*thread=*/kShard0));

  Trie map;
  auto scfg = one_shard_config();
  scfg.shard.max_inflight = 4;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 15'000'000;
  net::Client client{server.port(), ccfg};
  ASSERT_TRUE(client.ok());

  std::uint64_t trigger_id = 0;
  ASSERT_TRUE(client.send(proto::Op::kPing, 0, 1, &trigger_id, 0));
  wait_parked(1);

  constexpr std::size_t kFlood = 12;
  std::uint64_t ids[kFlood] = {};
  for (auto& id : ids) {
    ASSERT_TRUE(client.send(proto::Op::kPing, 0, 2, &id, 0));
  }

  EXPECT_EQ(client.wait(trigger_id).status, proto::Status::kOk);
  std::size_t ok = 0, shed = 0;
  for (const auto id : ids) {
    const auto r = client.wait(id);
    if (r.status == proto::Status::kOk) ++ok;
    if (r.status == proto::Status::kShed) {
      ++shed;
      EXPECT_EQ(r.queue_us, 0u);  // refused at admission, never queued
    }
  }
  EXPECT_EQ(ok, 4u);     // exactly max_inflight admitted
  EXPECT_EQ(shed, 8u);   // the rest refused, not queued

  // With the storm over, a fresh call lands.
  EXPECT_TRUE(client.ping(3).ok());

  client.close();
  server.stop();
  const auto totals = server.totals();
  EXPECT_EQ(totals.shed, 8u);
  EXPECT_EQ(totals.served, 6u);
  EXPECT_EQ(server.phase_latency().total.count(), totals.served);
  EXPECT_LE(totals.queue_hwm, 4u);
  EXPECT_EQ(server.killed_shards(), 0u);
}

// The sync API retries a shed under jittered backoff. Behind a stalled
// shard, a queued ping and the sync call's first attempt are parsed in one
// batch: the ping fills the one-deep queue, so that attempt is shed, and
// the retry, sent after the queue drained, executes.
TEST(NetFault, SyncCallRetriesAShedAndLands) {
  ChaosSession chaos{46};
  fault::install(fault::Plan(46).stall(Site::net_request_execute, 300ms,
                                       /*thread=*/kShard0));

  Trie map;
  auto scfg = one_shard_config();
  scfg.shard.max_inflight = 1;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 15'000'000;
  net::Client client{server.port(), ccfg};
  ASSERT_TRUE(client.ok());

  std::uint64_t trigger_id = 0;
  ASSERT_TRUE(client.send(proto::Op::kPing, 0, 1, &trigger_id, 0));
  wait_parked(1);
  std::uint64_t queued_id = 0;
  ASSERT_TRUE(client.send(proto::Op::kPing, 0, 2, &queued_id, 0));

  const auto r = client.ping(3);
  EXPECT_EQ(r.status, proto::Status::kOk);
  EXPECT_EQ(r.value, 3u);
  EXPECT_EQ(client.wait(trigger_id).status, proto::Status::kOk);
  EXPECT_EQ(client.wait(queued_id).status, proto::Status::kOk);

  client.close();
  server.stop();
  const auto totals = server.totals();
  EXPECT_EQ(totals.shed, 1u) << "the sync call was never shed";
  EXPECT_EQ(totals.served, 3u);
}

// The ISSUE's acceptance scenario: die mid-request. One shard is killed
// between admission and execution; the other keeps serving under a
// watchdog, the map validates clean, and the server drains around the
// corpse.
TEST(NetFault, DieMidRequestLeavesMapValidAndSurvivorsGreen) {
  ChaosSession chaos{43};
  fault::install(fault::Plan(43).die(Site::net_request_execute,
                                     /*thread=*/kShard0));

  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 2;
  scfg.least_loaded = false;  // round-robin: conn 1 -> shard 0, conn 2 -> 1
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig doomed_cfg;
  doomed_cfg.op_timeout_us = 400'000;  // its shard is about to die
  net::Client doomed{server.port(), doomed_cfg};
  ASSERT_TRUE(doomed.ok());
  net::Client survivor{server.port()};
  ASSERT_TRUE(survivor.ok());

  // Shard 0 parks executing this (a die() victim parks until released, then
  // unwinds via ThreadKilled). No reply ever comes.
  const auto dead = doomed.put(0xdead, 1);
  EXPECT_EQ(dead.status, proto::Status::kTimeout);
  wait_parked(1);
  fault::release_all();  // now the kill lands mid-request
  const auto death_deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::injected_deaths() == 0 &&
         std::chrono::steady_clock::now() < death_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::injected_deaths(), 1u);

  // The surviving shard serves on, watched for per-tick progress.
  std::atomic<std::uint64_t> survivor_ops{0};
  tk::ProgressWatchdog watchdog(survivor_ops, 250ms);
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    std::uint64_t k = 0;
    while (!stop_churn.load(std::memory_order_acquire)) {
      if (survivor.put(1000 + (k % 256), k).ok()) {
        survivor_ops.fetch_add(1, std::memory_order_relaxed);
      }
      if (survivor.get(1000 + (k % 256)).ok()) {
        survivor_ops.fetch_add(1, std::memory_order_relaxed);
      }
      ++k;
    }
  });
  watchdog.start();
  std::this_thread::sleep_for(1200ms);
  watchdog.stop();
  stop_churn.store(true, std::memory_order_release);
  churn.join();

  EXPECT_GE(watchdog.ticks(), 3u);
  EXPECT_EQ(watchdog.violations(), 0u)
      << "survivor shard stopped making progress after the kill";
  EXPECT_GT(survivor_ops.load(), 0u);

  doomed.close();
  survivor.close();
  server.stop();
  EXPECT_EQ(server.killed_shards(), 1u);
  EXPECT_GT(server.totals().served, 0u);
  // The kill unwound through lock-free map code: structure still valid and
  // directly usable.
  EXPECT_TRUE(map.debug_validate().empty());
  EXPECT_TRUE(map.insert(0xbeef, 2));
  EXPECT_EQ(map.lookup(0xbeef).value_or(0), 2u);
}

// A client that writes requests but never reads replies hits the
// write-buffer cap and is disconnected; buffered reply bytes stay bounded
// by cap + one frame.
TEST(NetFault, BackpressureCapsAndKillsNonReadingClient) {
  Trie map;
  auto scfg = one_shard_config();
  scfg.shard.max_inflight = 4096;        // isolate backpressure from shed
  scfg.shard.max_queue_age_us = 1'000'000;
  scfg.shard.write_buf_cap = 16 * 1024;
  scfg.conn_sndbuf = 4096;               // small kernel buffers server-side
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  // Raw non-reading client with a tiny receive window, so replies back up
  // into the shard's write buffer fast.
  net::Fd conn = net::connect_loopback(server.port(), 4096, 4096);
  ASSERT_TRUE(conn.valid());

  // The server killing the connection mid-flood is the expected end.
  (void)write_pings_never_reading(conn.get(), 2000, 10s);

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.totals().backpressure_kills == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  server.stop();

  const auto totals = server.totals();
  EXPECT_EQ(totals.backpressure_kills, 1u);
  EXPECT_GT(totals.wbuf_hwm_bytes, scfg.shard.write_buf_cap);
  EXPECT_LE(totals.wbuf_hwm_bytes,
            scfg.shard.write_buf_cap + proto::kReplyWire)
      << "resident reply bytes escaped the cap by more than one frame";
  EXPECT_EQ(totals.conns_adopted, totals.conns_closed);
}

// Requests that arrive once the drain has begun are refused with
// kShed|kFlagDraining — the shutdown handshake answers, then closes.
TEST(NetFault, DrainShedsLateRequestsWithDrainingFlag) {
  ChaosSession chaos{45};
  fault::install(fault::Plan(45).stall(Site::net_drain, 400ms,
                                       /*thread=*/kShard0));

  Trie map;
  auto scfg = one_shard_config();
  scfg.shard.drain_timeout_us = 2'000'000;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 10'000'000;
  net::Client client{server.port(), ccfg};
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.ping(1).ok());  // connection is live pre-drain

  std::thread stopper([&] { server.stop(); });
  wait_parked(1);  // shard parked at the net.drain chaos point

  // Lands in the kernel buffer while parked; parsed after resume, when the
  // shard is draining. send() never retries, so the drain shed surfaces.
  std::uint64_t id = 0;
  ASSERT_TRUE(client.send(proto::Op::kPing, 0, 2, &id, 0));
  const auto r = client.wait(id);
  stopper.join();

  EXPECT_EQ(r.status, proto::Status::kShed) << proto::status_name(r.status);
  EXPECT_NE(r.flags & proto::kFlagDraining, 0u);
  for (std::size_t i = 0; i < server.shard_count(); ++i) {
    EXPECT_TRUE(server.shard(i).drained());
  }
  EXPECT_EQ(server.totals().conns_adopted, server.totals().conns_closed);
}

// The acceptance criterion: ~2x open-loop burst overload with a 25%
// slow-client mix sheds rather than queues. Accepted-request p99 stays
// within 5x the unloaded p99 (floored — on the 1-core CI box, scheduler
// quanta dwarf an unloaded loopback ping), reply bytes stay under the cap,
// and the map survives validation.
TEST(NetFault, OverloadShedsRatherThanQueues) {
  Trie map;
  auto scfg = one_shard_config();
  scfg.shard.max_inflight = 64;
  scfg.shard.write_buf_cap = 64 * 1024;
  scfg.conn_sndbuf = 4096;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  const auto percentile = [](std::vector<std::uint64_t>& v, double p) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
  };

  // Phase 1: unloaded p99 over sequential pings.
  std::vector<std::uint64_t> unloaded;
  {
    net::Client client{server.port()};
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t t0 = proto::now_us();
      ASSERT_TRUE(client.ping(i).ok());
      unloaded.push_back(proto::now_us() - t0);
    }
  }
  const std::uint64_t p99_unloaded = percentile(unloaded, 0.99);

  // Phase 2: 4 connections, 1 of them (25%) a slow client that never
  // reads; 3 normal clients fire pipelined bursts of 2x the admission cap.
  net::Fd slow = net::connect_loopback(server.port(), 4096, 4096);
  ASSERT_TRUE(slow.valid());
  std::thread slow_writer(
      [&] { (void)write_pings_never_reading(slow.get(), 3000, 10s); });

  const std::size_t kBurst = 2 * scfg.shard.max_inflight;  // the "2x"
  std::atomic<std::uint64_t> accepted{0}, shed{0}, other{0};
  std::vector<std::uint64_t> loaded;
  std::mutex loaded_mu;
  std::vector<std::thread> normals;
  for (int t = 0; t < 3; ++t) {
    normals.emplace_back([&, t] {
      net::ClientConfig ccfg;
      ccfg.op_timeout_us = 30'000'000;
      net::Client client{server.port(), ccfg};
      if (!client.ok()) return;
      std::vector<std::uint64_t> local;
      for (int burst = 0; burst < 5; ++burst) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> inflight;
        inflight.reserve(kBurst);
        for (std::size_t i = 0; i < kBurst; ++i) {
          std::uint64_t id = 0;
          if (client.send(proto::Op::kPut, (t << 16) + i, i, &id, 0)) {
            inflight.emplace_back(id, proto::now_us());
          }
        }
        for (const auto& [id, t0] : inflight) {
          const auto r = client.wait(id);
          if (r.status == proto::Status::kOk) {
            accepted.fetch_add(1);
            local.push_back(proto::now_us() - t0);
          } else if (r.status == proto::Status::kShed) {
            shed.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      }
      std::lock_guard<std::mutex> lk(loaded_mu);
      loaded.insert(loaded.end(), local.begin(), local.end());
    });
  }
  for (auto& n : normals) n.join();
  slow_writer.join();
  slow.reset();
  server.stop();

  const auto totals = server.totals();
  ASSERT_GT(loaded.size(), 100u);
  const std::uint64_t p99_loaded = percentile(loaded, 0.99);

  // Shed rather than queued: refusals happened, the queue never escaped
  // the admission cap, and reply bytes never escaped the write cap.
  EXPECT_GT(totals.shed, 0u);
  EXPECT_LE(totals.queue_hwm, scfg.shard.max_inflight);
  EXPECT_LE(totals.wbuf_hwm_bytes,
            scfg.shard.write_buf_cap + proto::kReplyWire);
  EXPECT_GE(totals.backpressure_kills, 1u);  // the slow client's fate
  EXPECT_EQ(other.load(), 0u);

  // Accepted-request tail: within 5x unloaded p99, floored at 5 ms against
  // 1-core scheduler noise (a single quantum is 4 ms).
  const std::uint64_t floor_us = 5'000;
  EXPECT_LE(p99_loaded, 5 * std::max(p99_unloaded, floor_us))
      << "p99 accepted " << p99_loaded << "us vs unloaded " << p99_unloaded
      << "us — the server queued instead of shedding";

  EXPECT_TRUE(map.debug_validate().empty());
}

}  // namespace
