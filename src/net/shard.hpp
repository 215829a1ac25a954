// shard.hpp — one single-threaded epoll shard of the serving layer.
//
// A shard owns an epoll instance, every connection routed to it, and one
// pending-request queue; the maps it serves are the only state it shares
// with other shards (they are lock-free, so sharing them costs no
// cross-shard protocol). Everything else — read buffers, write buffers,
// the queue, the stats — is touched by the shard thread alone, which is why
// the serving layer adds just three edges to ordering_contracts.hpp
// (NET_REPLY_PUBLISH in the client, NET_SHED_FLAG and NET_DRAIN here)
// instead of a lock hierarchy (DESIGN.md §4).
//
// Robustness machinery, in the order a request meets it:
//   * admission control: a parsed request is SHED (kShed reply, request not
//     executed) when the pending queue is at max_inflight or its head has
//     aged past max_queue_age_us — under overload the queue cannot grow
//     without bound, so accepted requests keep a bounded queueing delay and
//     the excess is refused early while the refusal is still cheap;
//   * deadlines: a request whose budget (send_ts_us + deadline_us) expired
//     before execution gets kDeadlineExceeded and is NOT executed — time
//     spent in kernel socket buffers behind a stalled shard counts against
//     the budget (proto.hpp), so a post-stall flood expires instead of
//     executing work nobody is waiting for;
//   * write backpressure: replies buffer in a per-connection wbuf that is
//     flushed once per loop pass (one write for every reply the pass
//     produced) and again on EPOLLOUT; a client that stops reading
//     accumulates bytes until write_buf_cap and is then disconnected —
//     memory stays bounded and the pathology is *that* client's, not the
//     shard's;
//   * graceful degradation: when the bounded map is near its resident
//     ceiling, replies carry kFlagDegraded while the map's own lazy
//     eviction works the footprint down — load keeps being served;
//   * drain: on stop the shard refuses new work (kShed + kFlagDraining),
//     finishes the queue, flushes write buffers, then closes everything —
//     bounded by drain_timeout_us so a dead client cannot wedge shutdown.
//
// Every lifecycle transition crosses a chaos point (net.* sites below), so
// the PR-2 fault engine can park or kill the shard mid-request, mid-reply,
// mid-drain; net_fault_test drives each path deterministically.
#pragma once

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/proto.hpp"
#include "net/socket.hpp"
#include "obs/interval.hpp"
#include "obs/latency.hpp"
#include "obs/sites.hpp"
#include "obs/trace_export.hpp"
#include "testkit/chaos.hpp"
#include "util/kv_map.hpp"

namespace cachetrie::net {

/// Per-shard robustness knobs. The defaults suit the loopback tests; the
/// server binary and fig15 override them per scenario.
struct ShardConfig {
  std::size_t max_inflight = 256;        // pending-queue admission cap
  std::uint64_t max_queue_age_us = 50'000;   // shed when the head is older
  std::size_t write_buf_cap = 256 * 1024;    // per-conn buffered reply bytes
  std::uint64_t drain_timeout_us = 250'000;  // drain bound after stop
};

/// Replies carry kFlagDegraded while the map is past this fraction of its
/// resident ceiling (its near_ceiling(frac)).
inline constexpr double kDegradeHeadroom = 0.9;
/// Idle poll period of every blocking wait in the serving layer (a shard's
/// epoll_wait, the acceptor's poll): how late a stop flag can be noticed.
inline constexpr int kIdlePollMs = 20;

/// Why a connection closed (a1 of the net.conn.close trace event).
enum class CloseReason : std::uint8_t {
  kEof = 0,           // orderly client close
  kError = 1,         // hard socket error
  kProtoError = 2,    // bad length prefix or magic
  kBackpressure = 3,  // write buffer exceeded the cap
  kShutdown = 4,      // server drain/shutdown closed it
};

/// Monotonic per-shard totals, relaxed — test assertions and the stats
/// aggregation read them after the NET_DRAIN join edge (or best-effort
/// mid-run, which is all a monitoring poll wants).
struct ShardStats {
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  std::atomic<std::uint64_t> backpressure_kills{0};
  std::atomic<std::uint64_t> proto_errors{0};
  std::atomic<std::uint64_t> conns_adopted{0};
  std::atomic<std::uint64_t> conns_closed{0};
  std::atomic<std::uint64_t> degraded_replies{0};
  std::atomic<std::uint64_t> wbuf_hwm_bytes{0};  // max pending reply bytes
  std::atomic<std::uint64_t> queue_hwm{0};       // max pending-queue depth
};

/// Per-shard phase decomposition of served latency (DESIGN.md §4): the
/// three phases partition a request's shard-side lifetime exactly —
/// queue (admission -> dequeued-for-execution), execute (map op or
/// introspection build), flush (reply enqueued -> last byte accepted by
/// the kernel) — and every stamp reuses a clock value the serving path
/// already reads, so queue + execute + flush == total per request by
/// construction (fig15 asserts the histogram-level version of this).
/// Plain histograms: written by the shard thread alone, read after the
/// NET_DRAIN join edge.
struct PhaseLatency {
  obs::LatencyHistogram queue;
  obs::LatencyHistogram execute;
  obs::LatencyHistogram flush;
  obs::LatencyHistogram total;

  void merge(const PhaseLatency& o) noexcept {
    queue.merge(o.queue);
    execute.merge(o.execute);
    flush.merge(o.flush);
    total.merge(o.total);
  }
};

/// Executes one data request against the map. Fills `*value_out` for ops
/// that produce a value (GET, REMOVE return the stored value; PUT and PING
/// echo the request's). Never throws protocol-level errors — an unknown op
/// is a kBadRequest reply, not a closed connection.
template <typename Map>
  requires util::KvMap<Map> && util::HasRemoveIfEquals<Map>
proto::Status execute(Map& map, const proto::RequestFrame& req,
                      std::uint64_t* value_out) {
  switch (static_cast<proto::Op>(req.op)) {
    case proto::Op::kGet: {
      const auto v = map.lookup(req.key);
      if (!v.has_value()) return proto::Status::kNotFound;
      *value_out = *v;
      return proto::Status::kOk;
    }
    case proto::Op::kPut:
      map.insert(req.key, req.value);
      *value_out = req.value;
      return proto::Status::kOk;
    case proto::Op::kRemove: {
      const auto v = map.remove(req.key);
      if (!v.has_value()) return proto::Status::kNotFound;
      *value_out = *v;
      return proto::Status::kOk;
    }
    case proto::Op::kRemoveIfEquals:
      if (!map.remove_if_equals(req.key, req.value)) {
        return proto::Status::kNotFound;
      }
      *value_out = req.value;
      return proto::Status::kOk;
    case proto::Op::kPing:
      *value_out = req.value;
      return proto::Status::kOk;
    case proto::Op::kStats:
    case proto::Op::kTraceCtl:
      // Introspection ops are intercepted by the shard before execute()
      // (the shard owns the registry differ and the write buffer); one
      // reaching the bare dispatcher is a caller error.
      break;
  }
  return proto::Status::kBadRequest;
}

template <typename Map>
class Shard {
 public:
  Shard(Map& map, const ShardConfig& cfg, std::size_t index,
        const std::atomic<bool>& stop)
      : map_(map), cfg_(cfg), index_(index), stop_(stop) {
    epoll_ = Fd{::epoll_create1(EPOLL_CLOEXEC)};
    event_ = Fd{::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)};
    if (!epoll_.valid() || !event_.valid()) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // conn ids start at 1; 0 is the eventfd
    ok_ = ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, event_.get(), &ev) == 0;
  }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  bool ok() const noexcept { return ok_; }

  /// Hands a freshly accepted connection to this shard. Called from the
  /// acceptor thread; the shard thread registers it at the next wakeup.
  void adopt(int fd, std::uint64_t conn_id) {
    {
      std::lock_guard<std::mutex> lk(inbox_mu_);
      inbox_.emplace_back(fd, conn_id);
    }
    wake();
  }

  /// Pokes the eventfd so a blocked epoll_wait returns promptly (used by
  /// adopt() and by Server::stop()).
  void wake() noexcept {
    const std::uint64_t one = 1;
    (void)!::write(event_.get(), &one, sizeof(one));
  }

  /// Least-loaded routing inputs for the acceptor. `overloaded` is the
  /// NET_SHED_FLAG acquire side: it makes the pressure counters written
  /// before the flag visible to the router.
  bool overloaded() const noexcept {
    return overloaded_.load(std::memory_order_acquire);  // [acquires: NET_SHED_FLAG]
  }
  std::size_t open_conns() const noexcept {
    return open_conns_.load(std::memory_order_relaxed);
  }

  const ShardStats& stats() const noexcept { return stats_; }
  /// Valid to read after drained() observes true (the NET_DRAIN edge) or
  /// after the shard thread is joined; mid-run reads race the shard thread.
  const PhaseLatency& phase_latency() const noexcept { return phase_; }
  bool drained() const noexcept {
    return drained_.load(std::memory_order_acquire);  // [acquires: NET_DRAIN]
  }

  /// Thread body. Returns normally after drain; a fault-engine kill
  /// propagates testkit::fault::ThreadKilled out of a chaos point and is
  /// caught by the server's thread wrapper (reactor.hpp) — connection fds
  /// stay owned by this object and close with it, and the maps stay valid
  /// because every map operation is lock-free.
  void run() {
    testkit::chaos_point(testkit::Site::net_shard_start);
    std::uint64_t drain_start_us = 0;
    while (true) {
      const bool stopping =
          stop_.load(std::memory_order_acquire);  // [acquires: NET_DRAIN]
      if (stopping && drain_start_us == 0) {
        drain_start_us = proto::now_us();
        testkit::chaos_point(testkit::Site::net_drain);
        obs::sites::net_drain.record(index_, conns_.size());
      }
      shed_this_iter_ = false;

      epoll_event evs[64];
      const int timeout_ms = stopping ? 1 : kIdlePollMs;
      const int n = ::epoll_wait(epoll_.get(), evs, 64, timeout_ms);
      for (int i = 0; i < n; ++i) {
        if (evs[i].data.u64 == 0) {
          drain_eventfd();
          continue;
        }
        handle_event(evs[i].data.u64, evs[i].events, stopping);
      }
      drain_inbox(stopping);
      process_queue();
      flush_dirty();
      publish_pressure();

      if (stopping && queue_.empty() &&
          (all_flushed() ||
           proto::now_us() - drain_start_us >= cfg_.drain_timeout_us)) {
        break;
      }
    }
    shutdown();
  }

 private:
  /// One served reply awaiting its flush stamp: when the connection's
  /// flushed-byte counter reaches end_offset, this reply's last byte was
  /// accepted by the kernel and the request enters the phase histograms.
  /// All four phases are recorded then, from the stamps carried here, so
  /// the histograms cover one identical population (requests whose reply
  /// actually left) and per request queue + execute + flush == total.
  struct ReplyMark {
    std::uint64_t end_offset = 0;   // absolute reply-stream position
    std::uint64_t request_id = 0;
    std::uint64_t admit_us = 0;
    std::uint64_t exec_begin_us = 0;
    std::uint64_t exec_end_us = 0;
  };

  struct Conn {
    Fd fd;
    std::uint64_t id = 0;
    std::vector<unsigned char> rbuf;
    std::vector<unsigned char> wbuf;
    std::size_t woff = 0;  // flushed prefix of wbuf
    bool want_write = false;
    bool dirty = false;    // on dirty_: replies appended since the last flush
    // Absolute positions in the connection's reply stream — monotone even
    // as wbuf itself is cleared/compacted, so ReplyMark offsets stay valid.
    std::uint64_t enqueued_bytes = 0;
    std::uint64_t flushed_bytes = 0;
    std::deque<ReplyMark> marks;

    std::size_t pending_bytes() const noexcept { return wbuf.size() - woff; }
  };

  struct Pending {
    proto::RequestFrame req;
    std::uint64_t conn_id = 0;
    std::uint64_t admit_us = 0;
    std::uint64_t expiry_us = 0;  // 0 = no deadline
  };

  // --- connection lifecycle -------------------------------------------------

  void drain_eventfd() noexcept {
    std::uint64_t v = 0;
    (void)!::read(event_.get(), &v, sizeof(v));
  }

  void drain_inbox(bool stopping) {
    std::vector<std::pair<int, std::uint64_t>> batch;
    {
      std::lock_guard<std::mutex> lk(inbox_mu_);
      batch.swap(inbox_);
    }
    for (auto& [fd, id] : batch) {
      if (stopping) {  // adopted after stop: refuse, don't register
        ::close(fd);
        continue;
      }
      testkit::chaos_point(testkit::Site::net_conn_adopt);
      Conn c;
      c.fd = Fd{fd};
      c.id = id;
      set_nonblocking(fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = id;
      if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) continue;
      stats_.conns_adopted.fetch_add(1, std::memory_order_relaxed);
      obs::sites::net_conns_open.add(1);
      conns_.emplace(id, std::move(c));
    }
  }

  void close_conn(std::uint64_t id, CloseReason reason) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    testkit::chaos_point(testkit::Site::net_conn_close);
    obs::sites::net_conn_close.record(id, static_cast<std::uint64_t>(reason));
    obs::sites::net_conns_open.add(-1);
    stats_.conns_closed.fetch_add(1, std::memory_order_relaxed);
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, it->second.fd.get(), nullptr);
    conns_.erase(it);  // Fd destructor closes
  }

  void handle_event(std::uint64_t id, std::uint32_t events, bool stopping) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      close_conn(id, CloseReason::kError);
      return;
    }
    if ((events & EPOLLOUT) != 0) flush_conn(it->second);
    if ((events & EPOLLIN) != 0) handle_readable(id, stopping);
  }

  // --- read side: bytes -> frames -> admission ------------------------------

  void handle_readable(std::uint64_t id, bool stopping) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    bool peer_gone = false;
    CloseReason close_reason = CloseReason::kEof;
    unsigned char buf[16 * 1024];
    while (true) {
      const long r = read_some(c.fd.get(), buf, sizeof(buf));
      if (r > 0) {
        c.rbuf.insert(c.rbuf.end(), buf, buf + r);
        // A short read emptied the socket; bytes that arrive later are
        // re-reported by the level-triggered epoll, so reading on until
        // EAGAIN would only cost a syscall.
        if (static_cast<std::size_t>(r) < sizeof(buf)) break;
        continue;
      }
      if (r == -1) break;  // drained
      peer_gone = true;
      close_reason = r == 0 ? CloseReason::kEof : CloseReason::kError;
      break;
    }

    // Parse everything buffered — a request the client managed to write
    // before dying still deserves its admission decision.
    std::size_t off = 0;
    while (true) {
      proto::RequestFrame req;
      std::size_t consumed = 0;
      const auto pr = proto::parse_request(c.rbuf.data() + off,
                                           c.rbuf.size() - off, &req,
                                           &consumed);
      if (pr == proto::ParseResult::kNeedMore) break;
      if (pr == proto::ParseResult::kProtocolError) {
        obs::sites::net_proto_error.add();
        stats_.proto_errors.fetch_add(1, std::memory_order_relaxed);
        close_conn(id, CloseReason::kProtoError);
        return;
      }
      off += consumed;
      obs::sites::net_req_parsed.record(id, req.request_id);
      admit(id, req, stopping);
      if (conns_.find(id) == conns_.end()) return;  // admit killed the conn
    }
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
    if (peer_gone) close_conn(id, close_reason);
  }

  void admit(std::uint64_t conn_id, const proto::RequestFrame& req,
             bool stopping) {
    testkit::chaos_point(testkit::Site::net_request_admit);
    const std::uint64_t now = proto::now_us();
    Pending p;
    p.req = req;
    p.conn_id = conn_id;
    p.admit_us = now;
    const bool queue_full = queue_.size() >= cfg_.max_inflight;
    const bool head_stale =
        !queue_.empty() && now - queue_.front().admit_us > cfg_.max_queue_age_us;
    if (stopping || queue_full || head_stale) {
      testkit::chaos_point(testkit::Site::net_shed);
      obs::sites::net_shed.record(conn_id, req.request_id);
      stats_.shed.fetch_add(1, std::memory_order_relaxed);
      shed_this_iter_ = true;
      reply(p, proto::Status::kShed, 0,
            stopping ? proto::kFlagDraining : std::uint16_t{0}, now);
      return;
    }
    if (req.deadline_us != 0) {
      const std::uint64_t base = req.send_ts_us != 0 ? req.send_ts_us : now;
      p.expiry_us = base + req.deadline_us;
    }
    queue_.push_back(p);
    obs::sites::net_req_admitted.record(conn_id, req.request_id);
    const auto depth = static_cast<std::uint64_t>(queue_.size());
    if (depth > stats_.queue_hwm.load(std::memory_order_relaxed)) {
      stats_.queue_hwm.store(depth, std::memory_order_relaxed);
    }
  }

  // --- execution ------------------------------------------------------------

  /// Dispatches every queued request once: a map op to the free execute(),
  /// kStats/kTraceCtl to introspect(). Every executed request then leaves
  /// through the same tail, which takes the exec-end stamp, counts it
  /// served, and replies; exec-begin is the dequeue clock read, so the
  /// deadline check and the queue phase share one stamp.
  void process_queue() {
    const std::uint16_t flags =
        map_.near_ceiling(kDegradeHeadroom) ? proto::kFlagDegraded : 0;
    while (!queue_.empty()) {
      Pending p = queue_.front();
      queue_.pop_front();
      if (conns_.find(p.conn_id) == conns_.end()) continue;  // conn died
      [[maybe_unused]] auto span =
          obs::sites::net_request.span(p.conn_id, p.req.request_id);
      const std::uint64_t exec_begin = proto::now_us();
      if (p.expiry_us != 0 && exec_begin > p.expiry_us) {
        testkit::chaos_point(testkit::Site::net_deadline_expire);
        obs::sites::net_deadline_expired.record(p.conn_id, p.req.request_id);
        stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        reply(p, proto::Status::kDeadlineExceeded, 0, flags, exec_begin);
        continue;
      }
      obs::sites::net_req_dequeued.record(p.conn_id, p.req.request_id);
      const auto op = static_cast<proto::Op>(p.req.op);
      const bool introspection =
          op == proto::Op::kStats || op == proto::Op::kTraceCtl;
      testkit::chaos_point(testkit::Site::net_request_execute);
      std::uint64_t value = 0;
      std::string_view payload;
      proto::Status st;
      {
        [[maybe_unused]] auto exec =
            obs::sites::net_req_execute.span(p.conn_id, p.req.request_id);
        st = introspection ? introspect(p, exec_begin, &value, &payload)
                           : execute(map_, p.req, &value);
      }
      testkit::chaos_point(testkit::Site::net_reply_enqueue);
      const std::uint64_t exec_end = proto::now_us();
      record_served(flags);
      reply(p, st, value, flags, exec_begin, exec_end, payload);
    }
  }

  /// Counters shared by every served request (data or introspection). No
  /// phase histogram is fed here: they all record at flush time
  /// (stamp_flushed), over the flushed-reply population only.
  void record_served(std::uint16_t flags) {
    obs::sites::net_request_served.add();
    stats_.served.fetch_add(1, std::memory_order_relaxed);
    if (flags != 0) {
      obs::sites::net_degraded_replies.add();
      stats_.degraded_replies.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// kStats / kTraceCtl (DESIGN.md §4), executed in queue order like any
  /// data op (they went through the same admission and deadline gates).
  /// kStats serves a registry snapshot plus this shard's interval delta as
  /// `*payload`, the protocol's one variable-length frame; kTraceCtl flips
  /// the flight recorder or triggers a post-mortem-style dump on demand,
  /// and `*value` echoes the resulting recorder state (0/1), or whether a
  /// dump file landed.
  proto::Status introspect(const Pending& p, std::uint64_t exec_begin,
                           std::uint64_t* value, std::string_view* payload) {
    obs::sites::net_introspect_ops.add();
    if (static_cast<proto::Op>(p.req.op) == proto::Op::kStats) {
      std::ostringstream os;
      const obs::Snapshot snap = obs::registry().snapshot();
      os << "{\"shard\":" << index_ << ",\"now_us\":" << exec_begin
         << ",\"snapshot\":";
      snap.write_json(os);
      os << ",\"delta\":";
      differ_.advance(snap, exec_begin).write_json(os);
      os << "}";
      stats_json_ = os.str();
      *payload = stats_json_;
      return proto::Status::kOk;
    }
    switch (static_cast<proto::TraceCtl>(p.req.value)) {
      case proto::TraceCtl::kDisable:
        obs::trace::enable(false);
        return proto::Status::kOk;
      case proto::TraceCtl::kEnable:
        obs::trace::enable(true);
        *value = 1;
        return proto::Status::kOk;
      case proto::TraceCtl::kDump:
        *value = obs::trace::dump_to_file("trace_ctl").empty() ? 0 : 1;
        return proto::Status::kOk;
    }
    return proto::Status::kBadRequest;
  }

  // --- write side: replies, flushing, backpressure --------------------------

  /// The one reply writer: every reply — served, shed, or expired — is
  /// framed, buffered and capped here, then flushed with the rest of its
  /// connection's replies at the end of the pass (flush_dirty). A
  /// non-empty `payload` is a kStats reply and goes out as the "CDP2"
  /// frame (an over-cap payload downgrades to a fixed kBadRequest reply
  /// rather than emitting a frame the parser is contracted to reject);
  /// every other reply is a fixed "CDP1" frame whose queue_us is
  /// exec_begin_us - admit_us. A served reply passes its exec-end stamp
  /// and pushes a ReplyMark, whose flush/total phases complete when the
  /// kernel accepts its last byte; shed and deadline replies pass none —
  /// they were refused, not served, so they advance the stream counters
  /// without entering the phase histograms. An append that takes the
  /// unflushed bytes past write_buf_cap flushes at once, and kills the
  /// connection if the kernel still leaves more than the cap — so the
  /// backlog never exceeds cap + one frame. May erase the connection (the
  /// backpressure kill).
  void reply(const Pending& p, proto::Status st, std::uint64_t value,
             std::uint16_t flags, std::uint64_t exec_begin_us,
             std::uint64_t exec_end_us = 0, std::string_view payload = {}) {
    auto it = conns_.find(p.conn_id);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    if (payload.size() > proto::kMaxStatsPayload) {
      st = proto::Status::kBadRequest;
      payload = {};
    }
    const std::size_t before = c.wbuf.size();
    if (payload.empty()) {
      proto::ReplyFrame rep;
      rep.status = static_cast<std::uint8_t>(st);
      rep.op = p.req.op;
      rep.flags = flags;
      rep.request_id = p.req.request_id;
      rep.value = value;
      rep.queue_us = static_cast<std::uint32_t>(exec_begin_us - p.admit_us);
      proto::append_frame(c.wbuf, rep);
    } else {
      proto::StatsReplyHeader h;
      h.status = static_cast<std::uint8_t>(st);
      h.flags = flags;
      h.request_id = p.req.request_id;
      proto::append_stats_frame(c.wbuf, h, payload);
    }
    c.enqueued_bytes += c.wbuf.size() - before;
    if (exec_end_us != 0) {
      c.marks.push_back({c.enqueued_bytes, p.req.request_id, p.admit_us,
                         exec_begin_us, exec_end_us});
    }
    if (c.pending_bytes() <= cfg_.write_buf_cap) {
      if (!c.dirty) {
        c.dirty = true;
        dirty_.push_back(c.id);
      }
      return;
    }
    flush_conn(c);
    // flush_conn never erases, so `c` is still valid here.
    const auto pending = static_cast<std::uint64_t>(c.pending_bytes());
    if (pending > cfg_.write_buf_cap) {
      testkit::chaos_point(testkit::Site::net_backpressure_kill);
      obs::sites::net_backpressure_kill.record(p.conn_id, pending);
      stats_.backpressure_kills.fetch_add(1, std::memory_order_relaxed);
      close_conn(p.conn_id, CloseReason::kBackpressure);
    }
  }

  /// One write per connection per pass: flushes every connection that
  /// reply() appended to since the last pass.
  void flush_dirty() {
    for (const std::uint64_t id : dirty_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed since it was marked
      it->second.dirty = false;
      flush_conn(it->second);
    }
    dirty_.clear();
  }

  /// Writes as much of the pending wbuf as the kernel accepts; arms or
  /// disarms EPOLLOUT to match, and records what the kernel refused as the
  /// write-buffer high-water mark. Never erases the connection (hard write
  /// errors are left for the EPOLLERR wakeup so callers keep a valid ref).
  void flush_conn(Conn& c) {
    if (c.pending_bytes() == 0) return;
    testkit::chaos_point(testkit::Site::net_reply_flush);
    while (c.pending_bytes() > 0) {
      const long w =
          write_some(c.fd.get(), c.wbuf.data() + c.woff, c.pending_bytes());
      if (w > 0) {
        c.woff += static_cast<std::size_t>(w);
        c.flushed_bytes += static_cast<std::uint64_t>(w);
        continue;
      }
      break;  // -1: kernel full (arm EPOLLOUT); -2: EPOLLERR will fire
    }
    stamp_flushed(c);
    const auto pending = static_cast<std::uint64_t>(c.pending_bytes());
    if (pending > stats_.wbuf_hwm_bytes.load(std::memory_order_relaxed)) {
      stats_.wbuf_hwm_bytes.store(pending, std::memory_order_relaxed);
    }
    if (c.pending_bytes() == 0) {
      c.wbuf.clear();
      c.woff = 0;
      set_want_write(c, false);
    } else {
      if (c.woff > 64 * 1024) {  // compact the flushed prefix
        c.wbuf.erase(c.wbuf.begin(),
                     c.wbuf.begin() + static_cast<std::ptrdiff_t>(c.woff));
        c.woff = 0;
      }
      set_want_write(c, true);
    }
  }

  /// Completes the phase decomposition for every served reply whose last
  /// byte the kernel just accepted: flush = now - exec_end, total =
  /// now - admit, so queue + execute + flush == total per request. One
  /// clock read covers the whole batch — replies flushed together share a
  /// stamp, which is also the truth (they left in one writev-style burst).
  void stamp_flushed(Conn& c) {
    if (c.marks.empty() || c.flushed_bytes < c.marks.front().end_offset) {
      return;
    }
    const std::uint64_t now = proto::now_us();
    while (!c.marks.empty() && c.flushed_bytes >= c.marks.front().end_offset) {
      const ReplyMark& m = c.marks.front();
      obs::sites::net_req_flushed.record(c.id, m.request_id);
      const std::uint64_t queue_us = m.exec_begin_us - m.admit_us;
      const std::uint64_t execute_us = m.exec_end_us - m.exec_begin_us;
      const std::uint64_t flush_us =
          now >= m.exec_end_us ? now - m.exec_end_us : 0;
      obs::sites::net_phase_queue_us.record(queue_us);
      obs::sites::net_phase_execute_us.record(execute_us);
      obs::sites::net_phase_flush_us.record(flush_us);
      phase_.queue.record(queue_us);
      phase_.execute.record(execute_us);
      phase_.flush.record(flush_us);
      phase_.total.record(now >= m.admit_us ? now - m.admit_us : 0);
      c.marks.pop_front();
    }
  }

  void set_want_write(Conn& c, bool on) {
    if (c.want_write == on) return;
    c.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = c.id;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
  }

  bool all_flushed() const {
    for (const auto& [id, c] : conns_) {
      (void)id;
      if (c.pending_bytes() != 0) return false;
    }
    return true;
  }

  // --- pressure publication and shutdown ------------------------------------

  void publish_pressure() {
    open_conns_.store(conns_.size(), std::memory_order_relaxed);
    // Relaxed stats above are sequenced before this release store; the
    // acceptor's acquire load pairs with it for least-loaded routing.
    // [publishes: NET_SHED_FLAG]
    overloaded_.store(shed_this_iter_, std::memory_order_release);
  }

  void shutdown() {
    drain_inbox(/*stopping=*/true);  // close anything adopted post-stop
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, c] : conns_) {
      (void)c;
      ids.push_back(id);
    }
    for (const std::uint64_t id : ids) {
      close_conn(id, CloseReason::kShutdown);
    }
    testkit::chaos_point(testkit::Site::net_shutdown);
    obs::sites::net_shutdown.record(
        index_, stats_.served.load(std::memory_order_relaxed));
    open_conns_.store(0, std::memory_order_relaxed);
    // Publishes the final stats to whoever joins the shard thread.
    drained_.store(true, std::memory_order_release);  // [publishes: NET_DRAIN]
  }

  Map& map_;
  ShardConfig cfg_;
  std::size_t index_;
  const std::atomic<bool>& stop_;

  Fd epoll_;
  Fd event_;
  bool ok_ = false;

  std::mutex inbox_mu_;
  std::vector<std::pair<int, std::uint64_t>> inbox_;

  std::unordered_map<std::uint64_t, Conn> conns_;
  std::deque<Pending> queue_;
  std::vector<std::uint64_t> dirty_;  // conns with unflushed replies
  bool shed_this_iter_ = false;

  ShardStats stats_;
  PhaseLatency phase_;             // shard-thread-only; read after NET_DRAIN
  obs::IntervalDiffer differ_;     // per-shard kStats pull state
  std::string stats_json_;         // the last kStats payload, reused
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<bool> overloaded_{false};
  std::atomic<bool> drained_{false};
};

}  // namespace cachetrie::net
