// reactor.hpp — the serving-layer front end: listener + acceptor thread +
// shard-per-core epoll shards (shard.hpp) over one bounded map.
//
// The acceptor owns exactly one decision: which shard adopts a new
// connection. Routing is least-loaded by open-connection count with an
// overload penalty — a shard whose last iteration shed requests advertises
// itself via the NET_SHED_FLAG edge and new connections steer elsewhere,
// which is admission control at connection granularity on top of the
// per-request shedding inside each shard. After adoption a connection never
// migrates: all its state lives in one shard thread, which is what keeps
// the serving layer down to three ordering edges (DESIGN.md §4).
//
// Shutdown is a drain handshake (NET_DRAIN): stop() publishes the stop
// flag, wakes every shard, and joins; each shard finishes its queue,
// flushes write buffers (bounded by drain_timeout_us), closes its
// connections, and publishes its final stats with a release store the
// joiner's acquire load pairs with.
//
// Fault posture: shard and acceptor threads run under chaos stream ids
// (kChaosThreadBase + n) so fault plans can target "the shard" the same
// way they target a victim worker; a fault-engine kill unwinds the thread
// via ThreadKilled, the Server counts it, and the remaining shards keep
// serving — connections of the dead shard are closed when the Server is
// destroyed (their fds are owned by the Shard object, not the dead thread).
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/shard.hpp"
#include "net/socket.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"

namespace cachetrie::net {

/// Chaos stream ids: acceptor = kChaosThreadBase, shard i =
/// kChaosThreadBase + 1 + i. Kept far from a test's own victim indices
/// (which start at 0).
inline constexpr std::uint64_t kChaosThreadBase = 100;

struct ServerConfig {
  std::uint16_t port = 0;  // 0 = kernel-assigned; see Server::port()
  std::size_t shards = 2;
  ShardConfig shard;
  bool least_loaded = true;  // false: round-robin (deterministic tests)
  /// When > 0, shrink accepted sockets' kernel send buffers — the
  /// backpressure tests use this to make "slow client" cheap to reproduce.
  int conn_sndbuf = 0;
};

/// Aggregated view over all shards (post-join it is exact; mid-run it is a
/// monitoring snapshot).
struct ServerTotals {
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t backpressure_kills = 0;
  std::uint64_t proto_errors = 0;
  std::uint64_t conns_adopted = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t degraded_replies = 0;
  std::uint64_t wbuf_hwm_bytes = 0;  // max over shards
  std::uint64_t queue_hwm = 0;       // max over shards
};

template <typename Map>
class Server {
 public:
  /// Not ok() with zero shards: there would be nowhere to route a
  /// connection.
  Server(Map& map, const ServerConfig& cfg) : cfg_(cfg) {
    if (cfg.shards == 0) return;
    listener_ = listen_loopback(cfg.port, &port_);
    if (!listener_.valid()) return;
    for (std::size_t i = 0; i < cfg_.shards; ++i) {
      auto sh = std::make_unique<Shard<Map>>(map, cfg_.shard, i, stop_);
      if (!sh->ok()) return;
      shards_.push_back(std::move(sh));
    }
    ok_ = true;
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { stop(); }

  bool ok() const noexcept { return ok_; }
  std::uint16_t port() const noexcept { return port_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  const Shard<Map>& shard(std::size_t i) const { return *shards_[i]; }

  /// Spawns the acceptor and one thread per shard. Idempotent-hostile on
  /// purpose: call once.
  bool start() {
    if (!ok_ || started_) return false;
    started_ = true;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard<Map>* sh = shards_[i].get();
      const std::uint64_t stream = kChaosThreadBase + 1 + i;
      threads_.emplace_back([sh, stream] {
        testkit::chaos::bind_thread(stream);
        try {
          sh->run();
        } catch (const testkit::fault::ThreadKilled&) {
          // The fault engine killed this shard mid-transition. Its fds and
          // stats stay owned by the Shard object; the maps are lock-free,
          // so no shared state is wedged — the other shards keep serving.
        }
      });
    }
    threads_.emplace_back([this] {
      testkit::chaos::bind_thread(kChaosThreadBase);
      try {
        accept_loop();
      } catch (const testkit::fault::ThreadKilled&) {
      }
    });
    return true;
  }

  /// Drain handshake. Safe to call repeatedly; returns once every thread
  /// is joined.
  void stop() {
    if (!started_) return;
    // Publishes the drain request to the acceptor and every shard loop.
    stop_.store(true, std::memory_order_release);  // [publishes: NET_DRAIN]
    for (auto& sh : shards_) sh->wake();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    started_ = false;
  }

  /// Shards the fault engine killed (their drain never completed).
  std::size_t killed_shards() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) {
      if (!sh->drained()) ++n;
    }
    return n;
  }

  ServerTotals totals() const {
    ServerTotals t;
    for (const auto& sh : shards_) {
      const ShardStats& s = sh->stats();
      t.served += s.served.load(std::memory_order_relaxed);
      t.shed += s.shed.load(std::memory_order_relaxed);
      t.deadline_expired += s.deadline_expired.load(std::memory_order_relaxed);
      t.backpressure_kills +=
          s.backpressure_kills.load(std::memory_order_relaxed);
      t.proto_errors += s.proto_errors.load(std::memory_order_relaxed);
      t.conns_adopted += s.conns_adopted.load(std::memory_order_relaxed);
      t.conns_closed += s.conns_closed.load(std::memory_order_relaxed);
      t.degraded_replies +=
          s.degraded_replies.load(std::memory_order_relaxed);
      const auto wb = s.wbuf_hwm_bytes.load(std::memory_order_relaxed);
      if (wb > t.wbuf_hwm_bytes) t.wbuf_hwm_bytes = wb;
      const auto qh = s.queue_hwm.load(std::memory_order_relaxed);
      if (qh > t.queue_hwm) t.queue_hwm = qh;
    }
    return t;
  }

  /// Merged per-phase latency decomposition over all shards. Exact after
  /// stop() (the shard threads are joined); mid-run it races the shard
  /// threads' plain histograms — call it only post-drain.
  PhaseLatency phase_latency() const {
    PhaseLatency merged;
    for (const auto& sh : shards_) merged.merge(sh->phase_latency());
    return merged;
  }

 private:
  void accept_loop() {
    std::uint64_t next_conn_id = 1;  // 0 is each shard's eventfd sentinel
    std::size_t rr = 0;
    while (!stop_.load(std::memory_order_acquire)) {  // [acquires: NET_DRAIN]
      pollfd pfd{listener_.get(), POLLIN, 0};
      const int pr = ::poll(&pfd, 1, kIdlePollMs);
      if (pr <= 0) continue;
      while (true) {
        const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN (burst drained) or transient error
        testkit::chaos_point(testkit::Site::net_accept);
        set_nodelay(fd);
        set_buffer_sizes(fd, cfg_.conn_sndbuf, 0);
        const std::uint64_t id = next_conn_id++;
        const std::size_t target = pick_shard(rr++);
        obs::sites::net_accept.record(id, target);
        shards_[target]->adopt(fd, id);
      }
    }
  }

  std::size_t pick_shard(std::size_t rr) const {
    if (!cfg_.least_loaded || shards_.size() == 1) {
      return rr % shards_.size();
    }
    // Open connections plus a large penalty for a shard that shed in its
    // last iteration (the NET_SHED_FLAG acquire inside overloaded()).
    std::size_t best = 0;
    std::size_t best_score = SIZE_MAX;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::size_t score =
          shards_[i]->open_conns() + (shards_[i]->overloaded() ? 1u << 16 : 0);
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }

  ServerConfig cfg_;
  Fd listener_;
  std::uint16_t port_ = 0;
  bool ok_ = false;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Shard<Map>>> shards_;
  std::vector<std::thread> threads_;
};

}  // namespace cachetrie::net
