// client.hpp — the serving layer's client library: a pipelined loopback
// connection with deadline stamping and shed-aware retry.
//
// One Client = one TCP connection + one receiver thread. Senders (any
// thread) serialize requests under a small mutex and stamp send_ts_us /
// deadline_us (proto.hpp's deadline time base); the receiver thread parses
// replies and publishes each into a slot table indexed by request id. The
// publication is the NET_REPLY_PUBLISH edge: payload fields are relaxed
// atomic stores sequenced before a release store of the request id into the
// slot's done-word; a waiter's acquire load of the done-word makes the
// payload visible. Slots recycle every kSlots requests — callers keep at
// most kSlots requests in flight (the sync API trivially does; the
// pipelined bench enforces its own window).
//
// Shed handling is where client and server cooperate on overload: a kShed
// reply means "not executed, try later", and call() retries it under
// jittered exponential backoff (retry_backoff_us) up to max_retries — the
// jitter half of the delay decorrelates colliding retries so a shed burst
// does not resynchronize into the next burst.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/proto.hpp"
#include "net/socket.hpp"

namespace cachetrie::net {

/// Deterministic jittered exponential backoff: attempt 0, 1, 2... yield
/// base, 2*base, 4*base... capped at cap_us; half the delay is fixed, half
/// scaled by the caller-supplied jitter word (so tests can pin it). Pure —
/// unit-tested in net_proto_test.
inline std::uint64_t retry_backoff_us(std::size_t attempt,
                                      std::uint64_t base_us,
                                      std::uint64_t cap_us,
                                      std::uint64_t jitter_word) noexcept {
  if (base_us == 0) return 0;
  const std::size_t shift = attempt < 20 ? attempt : 20;
  std::uint64_t full = base_us << shift;
  if (full > cap_us || full < base_us) full = cap_us;  // cap + overflow guard
  const std::uint64_t half = full / 2;
  return half + (half > 0 ? jitter_word % half : 0);
}

/// call()'s shed backoff: the first retry waits about kRetryBaseUs, and no
/// retry waits more than kRetryCapUs.
inline constexpr std::uint64_t kRetryBaseUs = 200;
inline constexpr std::uint64_t kRetryCapUs = 50'000;

struct ClientConfig {
  std::uint64_t op_timeout_us = 2'000'000;  // client-side wait bound
  std::size_t max_retries = 6;    // kShed retry attempts in call()
  std::uint64_t seed = 0x5eed;    // jitter stream
};

class Client {
 public:
  static constexpr std::size_t kSlotBits = 10;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // in-flight window

  struct Result {
    proto::Status status = proto::Status::kClosed;
    std::uint64_t value = 0;
    std::uint16_t flags = 0;
    std::uint32_t queue_us = 0;

    bool ok() const noexcept { return status == proto::Status::kOk; }
  };

  explicit Client(std::uint16_t port, ClientConfig cfg = {})
      : cfg_(cfg), rng_(cfg.seed | 1), slots_(kSlots) {
    fd_ = connect_loopback(port);
    if (!fd_.valid()) return;
    receiver_ = std::thread([this] { receive_loop(); });
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  ~Client() { close(); }

  bool ok() const noexcept { return fd_.valid(); }

  /// Severs the connection and joins the receiver. Waiters unblock with
  /// kClosed.
  void close() {
    if (fd_.valid()) {
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
    if (receiver_.joinable()) receiver_.join();
    fd_.reset();
  }

  // --- sync API (retries sheds) --------------------------------------------

  Result get(std::uint64_t key) { return call(proto::Op::kGet, key, 0); }
  Result put(std::uint64_t key, std::uint64_t value) {
    return call(proto::Op::kPut, key, value);
  }
  Result remove(std::uint64_t key) {
    return call(proto::Op::kRemove, key, 0);
  }
  Result remove_if_equals(std::uint64_t key, std::uint64_t expected) {
    return call(proto::Op::kRemoveIfEquals, key, expected);
  }
  Result ping(std::uint64_t token = 0) {
    return call(proto::Op::kPing, 0, token);
  }

  // --- introspection API (DESIGN.md §4) -------------------------------------

  /// A kStats reply: the server-side metrics snapshot plus the serving
  /// shard's interval delta, as the JSON the wire carried.
  struct StatsResult {
    proto::Status status = proto::Status::kClosed;
    std::uint16_t flags = 0;
    std::string json;

    bool ok() const noexcept { return status == proto::Status::kOk; }
  };

  /// Pulls a live stats snapshot. A kStats request rides the same admission
  /// queue as data ops, so it can be shed under overload — call() retries
  /// it like any data op.
  StatsResult stats() {
    StatsResult out;
    const Result r = call(proto::Op::kStats, 0, 0, &out.json);
    out.status = r.status;
    out.flags = r.flags;
    return out;
  }

  /// Flips the server's flight recorder or triggers a dump (proto::TraceCtl).
  /// The reply's value echoes the resulting recorder state (0/1), or for
  /// kDump whether a dump file was written.
  Result trace_ctl(proto::TraceCtl action) {
    return call(proto::Op::kTraceCtl, 0, static_cast<std::uint64_t>(action));
  }

  /// One operation, retried under jittered exponential backoff while the
  /// server sheds it. Every retry is a fresh request id (the shed reply
  /// already consumed the old one). When `payload` is set, the final
  /// reply's stats JSON, if it carried any, is moved into it.
  Result call(proto::Op op, std::uint64_t key, std::uint64_t value,
              std::string* payload = nullptr) {
    for (std::size_t attempt = 0;; ++attempt) {
      std::uint64_t id = 0;
      if (!send(op, key, value, &id, 0)) {
        return Result{proto::Status::kSendFailed, 0, 0, 0};
      }
      const Result r = wait(id);
      if (r.status != proto::Status::kShed || attempt >= cfg_.max_retries) {
        if (payload != nullptr) {
          std::lock_guard<std::mutex> lk(stats_mu_);
          if (auto node = stats_payloads_.extract(id)) {
            *payload = std::move(node.mapped());
          }
        }
        return r;
      }
      const std::uint64_t delay =
          retry_backoff_us(attempt, kRetryBaseUs, kRetryCapUs, next_jitter());
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
    }
  }

  // --- pipelined API (the bench's open-loop sender) -------------------------

  /// Fire one request without waiting. The caller must keep fewer than
  /// kSlots requests outstanding and eventually wait()/poll() each id.
  bool send(proto::Op op, std::uint64_t key, std::uint64_t value,
            std::uint64_t* id_out, std::uint32_t deadline_us) {
    proto::RequestFrame req;
    req.op = static_cast<std::uint8_t>(op);
    req.key = key;
    req.value = value;
    req.send_ts_us = proto::now_us();
    req.deadline_us = deadline_us;
    std::vector<unsigned char> wire;
    wire.reserve(proto::kRequestWire);
    std::lock_guard<std::mutex> lk(send_mu_);
    req.request_id = next_id_++;
    proto::append_frame(wire, req);
    if (!fd_.valid() || !write_all(fd_.get(), wire.data(), wire.size())) {
      return false;
    }
    *id_out = req.request_id;
    return true;
  }

  /// Non-blocking check: true once the reply for `id` landed.
  bool poll(std::uint64_t id, Result* out) {
    Slot& s = slot(id);
    // [acquires: NET_REPLY_PUBLISH]
    if (s.done.load(std::memory_order_acquire) != id) return false;
    out->status = static_cast<proto::Status>(
        s.status.load(std::memory_order_relaxed));
    out->value = s.value.load(std::memory_order_relaxed);
    out->flags = s.flags.load(std::memory_order_relaxed);
    out->queue_us = s.queue_us.load(std::memory_order_relaxed);
    return true;
  }

  /// Blocks (bounded by op_timeout_us) until the reply for `id` lands.
  Result wait(std::uint64_t id) {
    const std::uint64_t deadline = proto::now_us() + cfg_.op_timeout_us;
    Result r;
    std::size_t spins = 0;
    while (!poll(id, &r)) {
      if (closed_.load(std::memory_order_acquire)) {
        return Result{proto::Status::kClosed, 0, 0, 0};
      }
      if (proto::now_us() > deadline) {
        return Result{proto::Status::kTimeout, 0, 0, 0};
      }
      if (++spins > 64) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return r;
  }

  /// True once the server (or close()) severed the connection.
  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> done{0};  // NET_REPLY_PUBLISH done-word
    std::atomic<std::uint8_t> status{0};
    std::atomic<std::uint16_t> flags{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint32_t> queue_us{0};
  };

  Slot& slot(std::uint64_t id) noexcept {
    return slots_[id & (kSlots - 1)];
  }

  std::uint64_t next_jitter() noexcept {  // xorshift64, sender-local
    std::uint64_t x = rng_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rng_ = x;
    return x;
  }

  void receive_loop() {
    std::vector<unsigned char> buf;
    unsigned char chunk[16 * 1024];
    bool proto_error = false;
    while (!proto_error) {
      const long r = read_some(fd_.get(), chunk, sizeof(chunk));
      if (r == -1) continue;  // blocking socket: only under SO_RCVTIMEO
      if (r <= 0) break;      // EOF or hard error
      buf.insert(buf.end(), chunk, chunk + r);
      std::size_t off = 0;
      while (true) {
        proto::ReplyFrame rep;
        proto::StatsReplyHeader stats;
        const unsigned char* payload = nullptr;
        bool is_stats = false;
        std::size_t consumed = 0;
        const auto pr = proto::parse_reply_stream(
            buf.data() + off, buf.size() - off, &rep, &stats, &payload,
            &is_stats, &consumed);
        if (pr == proto::ParseResult::kNeedMore) break;
        if (pr == proto::ParseResult::kProtocolError) {
          // Framing is lost — no later byte can be trusted. Sever the
          // connection (waiters unblock with kClosed) instead of scanning
          // a corrupt stream forever.
          ::shutdown(fd_.get(), SHUT_RDWR);
          proto_error = true;
          break;
        }
        off += consumed;
        if (is_stats) {
          // Payload lands in the side table before the done-word release
          // below, so a stats() waiter that observes done also sees it.
          std::lock_guard<std::mutex> lk(stats_mu_);
          stats_payloads_[stats.request_id].assign(
              reinterpret_cast<const char*>(payload), stats.payload_len);
        }
        const std::uint64_t req_id =
            is_stats ? stats.request_id : rep.request_id;
        Slot& s = slot(req_id);
        s.status.store(is_stats ? stats.status : rep.status,
                       std::memory_order_relaxed);
        s.flags.store(is_stats ? stats.flags : rep.flags,
                      std::memory_order_relaxed);
        s.value.store(is_stats ? 0 : rep.value, std::memory_order_relaxed);
        s.queue_us.store(is_stats ? 0 : rep.queue_us,
                         std::memory_order_relaxed);
        // Publishes the relaxed payload stores above to poll()'s acquire.
        // [publishes: NET_REPLY_PUBLISH]
        s.done.store(req_id, std::memory_order_release);
      }
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    }
    closed_.store(true, std::memory_order_release);
  }

  ClientConfig cfg_;
  Fd fd_;
  std::uint64_t rng_;
  std::mutex send_mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Slot> slots_;
  std::thread receiver_;
  std::atomic<bool> closed_{false};
  // Variable-length stats payloads, keyed by request id: the Slot table
  // carries only fixed fields, so the JSON rides on the side. call()
  // erases its entry after wait(); an entry whose waiter timed out first
  // lingers — bounded by the number of abandoned stats calls, which the
  // sync API keeps at zero.
  std::mutex stats_mu_;
  std::unordered_map<std::uint64_t, std::string> stats_payloads_;
};

}  // namespace cachetrie::net
