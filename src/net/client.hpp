// client.hpp — the serving layer's client library: a pipelined loopback
// connection with deadline stamping and shed-aware retry.
//
// One Client = one nonblocking TCP connection + one I/O thread, the only
// writer and the only reader of the socket. Senders (any thread) stamp
// send_ts_us / deadline_us (proto.hpp's deadline time base) and frame each
// request into an out-buffer under a small mutex; no sender makes a
// syscall except the eventfd kick, and only a send that finds the
// out-buffer empty while the I/O thread is parked kicks.
//
// The I/O thread blocks in exactly one place, poll(), and makes at most
// one send and one read per wake (more reads only while each fills its
// 16 KiB chunk). It reads the socket only when poll() reported it
// readable, and stops at a short read (poll is level-triggered, so bytes
// that arrive later are reported again). After publishing N replies it
// lingers: it spins until its caller has re-queued N requests or
// kResendLingerUs passed, then writes everything queued in one send()
// without going back through poll(). A closed-loop caller answers each
// reply within microseconds, so the linger turns a park, a kick and a
// second wake into one spin. Only then does it park: it sets parked_,
// rechecks the out-buffer under the send mutex and polls. Whatever the
// kernel refused waits for POLLOUT. The in-flight window (callers keep at
// most kSlots requests outstanding; the sync API trivially does, the
// pipelined bench enforces its own window) bounds the out-buffer, so it,
// not the kernel send buffer, is the client's flow control. A write or
// read error, EOF, or a corrupt reply stream closes the connection: the
// I/O thread exits, send() returns false from then on, and waiters see
// kClosed.
//
// Parking is the NET_CLIENT_PARK edge, a store-buffering pair that
// send_mu_ closes: the I/O thread stores parked_ before it rechecks the
// queued count under the mutex, and send() stores the queued count under
// the mutex before it loads parked_. Whichever critical section runs
// second sees the other side's store, so either the I/O thread finds the
// request and does not block, or the sender sees parked_ and kicks.
//
// Reply publication is the NET_REPLY_PUBLISH edge: payload fields are
// relaxed atomic stores sequenced before a release store of the request id
// into the slot's done-word; a waiter's acquire load of the done-word makes
// the payload visible. Slots recycle every kSlots requests. Every reply is
// one proto::ReplyFrame; a kStats reply's JSON, which follows it inside the
// same frame, goes into a mutexed side table before that release store.
//
// Shed handling is where client and server cooperate on overload: a kShed
// reply means "not executed, try later", and call() retries it under
// jittered exponential backoff (retry_backoff_us) up to kMaxRetries — the
// jitter half of the delay decorrelates colliding retries so a shed burst
// does not resynchronize into the next burst.
#pragma once

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/proto.hpp"
#include "net/socket.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "util/rng.hpp"
#include "util/spinwait.hpp"

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

/// call()'s shed backoff: the first retry waits about kRetryBaseUs, no
/// retry waits more than kRetryCapUs, and a request shed kMaxRetries + 1
/// times returns kShed. kJitterSeed starts every client's jitter stream.
inline constexpr std::uint64_t kRetryBaseUs = 200;
inline constexpr std::uint64_t kRetryCapUs = 50'000;
inline constexpr std::size_t kMaxRetries = 6;
inline constexpr std::uint64_t kJitterSeed = 0x5eed;

/// How long the I/O thread spins for its caller's re-sends after
/// publishing replies before it parks in poll(). The spin ends as soon as
/// they are queued, so the full bound is spent only when none come
/// (EXPERIMENTS.md "One wake per hop" has the sweep).
inline constexpr std::uint64_t kResendLingerUs = 20;

struct ClientConfig {
  std::uint64_t op_timeout_us = 2'000'000;  // client-side wait bound
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
      : cfg_(cfg), slots_(kSlots) {
    fd_ = connect_loopback(port);
    wake_ = Fd{::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)};
    if (!fd_.valid() || !wake_.valid() || !set_nonblocking(fd_.get())) {
      fd_.reset();
      closed_.store(true, std::memory_order_release);
      return;
    }
    io_ = std::thread([this] { io_loop(); });
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  ~Client() { close(); }

  bool ok() const noexcept { return fd_.valid(); }

  /// Severs the connection and joins the I/O thread; requests still in the
  /// out-buffer are dropped. Waiters unblock with kClosed.
  void close() {
    if (fd_.valid()) {
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
    if (io_.joinable()) io_.join();
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
      if (r.status != proto::Status::kShed || attempt >= kMaxRetries) {
        if (payload != nullptr) {
          std::lock_guard<std::mutex> lk(stats_mu_);
          if (auto node = stats_payloads_.extract(id)) {
            *payload = std::move(node.mapped());
          }
        }
        return r;
      }
      const std::uint64_t delay = retry_backoff_us(
          attempt, kRetryBaseUs, kRetryCapUs, jitter_.next());
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
    }
  }

  // --- pipelined API (the bench's open-loop sender) -------------------------

  /// Queue one request for the I/O thread without waiting. No syscall,
  /// unless the I/O thread is parked in poll() and this request is the
  /// first it will find: then one eventfd write wakes it. The caller must
  /// keep fewer than kSlots requests outstanding and eventually
  /// wait()/poll() each id. False once the connection is known closed; a
  /// request queued just before it closed is answered kClosed by wait().
  bool send(proto::Op op, std::uint64_t key, std::uint64_t value,
            std::uint64_t* id_out, std::uint32_t deadline_us) {
    proto::RequestFrame req;
    req.op = static_cast<std::uint8_t>(op);
    req.key = key;
    req.value = value;
    req.send_ts_us = proto::now_us();
    req.deadline_us = deadline_us;
    bool kick = false;
    {
      std::lock_guard<std::mutex> lk(send_mu_);
      if (closed_.load(std::memory_order_acquire)) return false;
      req.request_id = next_id_++;
      proto::append_frame(out_, req);
      const std::size_t queued = queued_.load(std::memory_order_relaxed) + 1;
      // [publishes: NET_CLIENT_PARK]
      queued_.store(queued, std::memory_order_release);
      // Only the send that fills the empty out-buffer of a parked I/O
      // thread kicks: an awake one takes this request before it parks, and
      // a later send rides the first one's kick.
      // [acquires: NET_CLIENT_PARK]
      kick = queued == 1 && parked_.load(std::memory_order_acquire);
    }
    if (kick) {
      const std::uint64_t one = 1;
      (void)!::write(wake_.get(), &one, sizeof(one));
      obs::sites::net_client_kicks.add();
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

  /// True once the server, an I/O error or close() severed the connection,
  /// or if it never connected.
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

  /// The connection's one writer and one reader. Each round lingers for
  /// the re-sends the last read's replies will bring, writes everything
  /// queued in one send() (the rest waits for POLLOUT), parks, and blocks
  /// in poll(); a readable socket is read once and its replies published.
  /// Any socket error, EOF or corrupt reply stream ends the loop, which
  /// closes the connection for senders and waiters alike.
  void io_loop() {
    std::vector<unsigned char> rbuf;
    std::vector<unsigned char> wbuf;  // the batch being written
    std::size_t woff = 0;             // written prefix of wbuf
    std::size_t published = 0;        // replies the last read published
    while (true) {
      linger(published);
      if (!write_queued(wbuf, woff)) break;
      pollfd fds[2] = {};
      fds[0].fd = fd_.get();
      fds[0].events = POLLIN | (woff < wbuf.size() ? POLLOUT : 0);
      fds[1].fd = wake_.get();
      fds[1].events = POLLIN;
      // Between the last write and the park: where a send must not be lost.
      testkit::chaos_point(testkit::Site::net_client_park);
      const int n = ::poll(fds, 2, park() ? -1 : 0);
      parked_.store(false, std::memory_order_relaxed);
      published = 0;
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if ((fds[1].revents & POLLIN) != 0) {
        std::uint64_t kicks = 0;
        (void)!::read(wake_.get(), &kicks, sizeof(kicks));
      }
      if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
          !read_replies(rbuf, &published)) {
        break;
      }
    }
    ::shutdown(fd_.get(), SHUT_RDWR);
    closed_.store(true, std::memory_order_release);
  }

  /// Spins until the caller has re-queued `replies` requests or
  /// kResendLingerUs passed. A closed-loop caller answers each reply with
  /// its next request within microseconds; catching those here costs one
  /// send(), where parking first would cost a kick and a second wake.
  void linger(std::size_t replies) const noexcept {
    if (replies == 0) return;
    const std::uint64_t until = proto::now_us() + kResendLingerUs;
    while (queued_.load(std::memory_order_relaxed) < replies &&
           proto::now_us() < until) {
      util::cpu_relax();
    }
  }

  /// Announces the coming poll() to senders and rechecks the out-buffer
  /// under send_mu_: true when it is empty, so the I/O thread may block
  /// until a kick; false when a send slipped in after write_queued, which
  /// the next round writes without blocking.
  bool park() {
    // [publishes: NET_CLIENT_PARK]
    parked_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lk(send_mu_);
    // [acquires: NET_CLIENT_PARK]
    return queued_.load(std::memory_order_acquire) == 0;
  }

  /// Appends the out-buffer to the batch and writes as much as the kernel
  /// accepts. False on a hard write error.
  bool write_queued(std::vector<unsigned char>& wbuf, std::size_t& woff) {
    {
      std::lock_guard<std::mutex> lk(send_mu_);
      if (woff == wbuf.size()) {
        wbuf.swap(out_);  // the common case: the last batch left whole
        woff = 0;
      } else {
        wbuf.insert(wbuf.end(), out_.begin(), out_.end());
      }
      out_.clear();
      queued_.store(0, std::memory_order_relaxed);
    }
    while (woff < wbuf.size()) {
      const long w = write_some(fd_.get(), wbuf.data() + woff,
                                wbuf.size() - woff);
      if (w == -1) return true;  // kernel full: resume on POLLOUT
      if (w < 0) return false;
      woff += static_cast<std::size_t>(w);
    }
    wbuf.clear();
    woff = 0;
    return true;
  }

  /// Reads what the socket holds, stopping at a short read (poll() is
  /// level-triggered, so bytes that arrive later re-report), and publishes
  /// every complete reply, counting them into *published. False on EOF, a
  /// hard read error, or a corrupt reply stream.
  bool read_replies(std::vector<unsigned char>& buf, std::size_t* published) {
    unsigned char chunk[16 * 1024];
    while (true) {
      const long r = read_some(fd_.get(), chunk, sizeof(chunk));
      if (r == -1) return true;  // drained
      if (r <= 0) return false;  // EOF or hard error
      buf.insert(buf.end(), chunk, chunk + r);
      std::size_t off = 0;
      while (true) {
        proto::ReplyFrame rep;
        std::string_view payload;
        std::size_t consumed = 0;
        const auto pr = proto::parse_reply(buf.data() + off, buf.size() - off,
                                           &rep, &payload, &consumed);
        if (pr == proto::ParseResult::kNeedMore) break;
        // Framing is lost — no later byte can be trusted. Sever the
        // connection (waiters unblock with kClosed) instead of scanning a
        // corrupt stream forever.
        if (pr == proto::ParseResult::kProtocolError) return false;
        off += consumed;
        if (!payload.empty()) {
          // Payload lands in the side table before the done-word release
          // below, so a stats() waiter that observes done also sees it.
          std::lock_guard<std::mutex> lk(stats_mu_);
          stats_payloads_[rep.request_id].assign(payload);
        }
        Slot& s = slot(rep.request_id);
        s.status.store(rep.status, std::memory_order_relaxed);
        s.flags.store(rep.flags, std::memory_order_relaxed);
        s.value.store(rep.value, std::memory_order_relaxed);
        s.queue_us.store(rep.queue_us, std::memory_order_relaxed);
        // Publishes the relaxed payload stores above to poll()'s acquire.
        // [publishes: NET_REPLY_PUBLISH]
        s.done.store(rep.request_id, std::memory_order_release);
        ++*published;
      }
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
      if (static_cast<std::size_t>(r) < sizeof(chunk)) return true;
    }
  }

  ClientConfig cfg_;
  Fd fd_;
  util::XorShift64Star jitter_{kJitterSeed};  // call()'s shed backoff
  Fd wake_;  // eventfd: send() kicks it to wake a parked I/O thread
  std::mutex send_mu_;
  std::uint64_t next_id_ = 1;               // guarded by send_mu_
  std::vector<unsigned char> out_;          // guarded by send_mu_
  // Frames in out_. Written under send_mu_; the linger reads it unlocked.
  std::atomic<std::size_t> queued_{0};
  // True from the I/O thread's park() until its poll() returns.
  std::atomic<bool> parked_{false};
  std::vector<Slot> slots_;
  std::atomic<bool> closed_{false};
  // Variable-length stats payloads, keyed by request id: the Slot table
  // carries only fixed fields, so the JSON rides on the side. call()
  // erases its entry after wait(); an entry whose waiter timed out first
  // lingers — bounded by the number of abandoned stats calls, which the
  // sync API keeps at zero.
  std::mutex stats_mu_;
  std::unordered_map<std::uint64_t, std::string> stats_payloads_;
  std::thread io_;  // last: it uses every member above
};

}  // namespace cachetrie::net
