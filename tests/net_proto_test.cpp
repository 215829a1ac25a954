// net_proto_test.cpp — serving-layer unit coverage that kills no thread:
// wire-format round trips and stream discipline (proto.hpp), the retry
// backoff curve and the client's I/O thread (client.hpp), the op dispatch
// of the free execute() (shard.hpp), and end-to-end loopback serve passes.
// The end-to-end tests live here, in the fast label, deliberately: check.sh
// runs `fast` under ASan while the `net` fault label is plain+tsan only
// (killed-victim tests leak by design), so this is the pass that sweeps
// the reactor, shard, and client under ASan. The client tests park the
// shard with a fault-plan stall (never a death), so nothing here leaks.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "cachetrie/evict.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"

namespace {

namespace net = cachetrie::net;
namespace proto = cachetrie::net::proto;
namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;
using BoundedTrie =
    cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t>;
using namespace std::chrono_literals;

// Chaos stream id of shard 0 (reactor.hpp).
constexpr std::uint64_t kShard0 = net::kChaosThreadBase + 1;

/// Arms a fault plan that parks shard 0 at its first request execution
/// for `stall`, and lifts it (releasing any parked thread) on scope exit.
struct ParkedShard {
  ParkedShard(std::uint64_t seed, std::chrono::nanoseconds stall) {
    tk::chaos::set_global_seed(seed);
    tk::chaos::enable(true);
    fault::install(fault::Plan(seed).stall(tk::Site::net_request_execute,
                                           stall, kShard0));
  }
  ~ParkedShard() {
    fault::clear();
    tk::chaos::enable(false);
  }

  /// Blocks until the shard is parked at the stall (bounded).
  static bool wait_parked() {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (fault::parked_now() == 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }
};

/// Shrinks the send buffer of this process's socket connected to
/// 127.0.0.1:`port` — the Client's, which it does not expose — and returns
/// the size the kernel settled on (0 if no such socket). Loopback sockets
/// otherwise autotune their send buffer to megabytes, far past any burst
/// the kSlots window allows.
int shrink_client_sndbuf(std::uint16_t port) {
  for (int fd = 3; fd < 4096; ++fd) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0 ||
        peer.sin_family != AF_INET || ntohs(peer.sin_port) != port) {
      continue;
    }
    net::set_buffer_sizes(fd, 4096, 0);
    int sndbuf = 0;
    len = sizeof(sndbuf);
    ::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len);
    return sndbuf;
  }
  return 0;
}

/// A one-shard server that admits a whole pipelined burst: no shed, no
/// stale-head shed behind the stall.
net::ServerConfig burst_server_config() {
  net::ServerConfig cfg;
  cfg.shards = 1;
  cfg.shard.max_inflight = 4 * net::Client::kSlots;
  cfg.shard.max_queue_age_us = 30'000'000;
  return cfg;
}

TEST(NetProto, RequestRoundTrip) {
  proto::RequestFrame req;
  req.op = static_cast<std::uint8_t>(proto::Op::kPut);
  req.request_id = 42;
  req.key = 7;
  req.value = 99;
  req.send_ts_us = 123456;
  req.deadline_us = 5000;

  std::vector<unsigned char> wire;
  proto::append_frame(wire, req);
  ASSERT_EQ(wire.size(), proto::kRequestWire);

  proto::RequestFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(proto::parse_request(wire.data(), wire.size(), &out, &consumed),
            proto::ParseResult::kFrame);
  EXPECT_EQ(consumed, proto::kRequestWire);
  EXPECT_EQ(out.op, req.op);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.key, 7u);
  EXPECT_EQ(out.value, 99u);
  EXPECT_EQ(out.send_ts_us, 123456u);
  EXPECT_EQ(out.deadline_us, 5000u);
}

TEST(NetProto, StatusNamesAreDistinct) {
  // Failure messages and the example server print these; two statuses
  // that printed alike, or as "unknown", would mislead whoever reads them.
  using proto::Status;
  const Status all[] = {Status::kOk,         Status::kNotFound,
                        Status::kShed,       Status::kDeadlineExceeded,
                        Status::kBadRequest, Status::kTimeout,
                        Status::kClosed,     Status::kSendFailed};
  std::vector<std::string> names;
  for (Status s : all) {
    names.emplace_back(proto::status_name(s));
    EXPECT_NE(names.back(), "unknown");
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_STREQ(proto::status_name(static_cast<Status>(99)), "unknown");
}

TEST(NetProto, ReplyRoundTrip) {
  proto::ReplyFrame rep;
  rep.status = static_cast<std::uint8_t>(proto::Status::kShed);
  rep.flags = proto::kFlagDegraded | proto::kFlagDraining;
  rep.request_id = 17;
  rep.value = 3;
  rep.queue_us = 250;

  std::vector<unsigned char> wire;
  proto::append_frame(wire, rep);
  ASSERT_EQ(wire.size(), proto::kReplyWire);

  proto::ReplyFrame out;
  std::string_view payload = "not empty";
  std::size_t consumed = 0;
  ASSERT_EQ(proto::parse_reply(wire.data(), wire.size(), &out, &payload,
                               &consumed),
            proto::ParseResult::kFrame);
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(consumed, proto::kReplyWire);
  EXPECT_EQ(static_cast<proto::Status>(out.status), proto::Status::kShed);
  EXPECT_EQ(out.flags, proto::kFlagDegraded | proto::kFlagDraining);
  EXPECT_EQ(out.request_id, 17u);
  EXPECT_EQ(out.queue_us, 250u);
}

TEST(NetProto, TruncatedStreamNeedsMore) {
  proto::RequestFrame req;
  std::vector<unsigned char> wire;
  proto::append_frame(wire, req);
  proto::RequestFrame out;
  std::size_t consumed = 0;
  // Every strict prefix of a frame parses as kNeedMore, never as an error.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_EQ(proto::parse_request(wire.data(), n, &out, &consumed),
              proto::ParseResult::kNeedMore)
        << "prefix " << n;
  }
}

TEST(NetProto, TwoFramesParseBackToBack) {
  proto::RequestFrame a, b;
  a.request_id = 1;
  b.request_id = 2;
  std::vector<unsigned char> wire;
  proto::append_frame(wire, a);
  proto::append_frame(wire, b);

  proto::RequestFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(proto::parse_request(wire.data(), wire.size(), &out, &consumed),
            proto::ParseResult::kFrame);
  EXPECT_EQ(out.request_id, 1u);
  ASSERT_EQ(proto::parse_request(wire.data() + consumed,
                                 wire.size() - consumed, &out, &consumed),
            proto::ParseResult::kFrame);
  EXPECT_EQ(out.request_id, 2u);
}

TEST(NetProto, BadMagicAndBadLengthAreProtocolErrors) {
  proto::RequestFrame req;
  std::vector<unsigned char> wire;
  proto::append_frame(wire, req);

  auto corrupted = wire;
  corrupted[proto::kLenPrefix] ^= 0xff;  // first magic byte
  proto::RequestFrame out;
  std::size_t consumed = 0;
  EXPECT_EQ(proto::parse_request(corrupted.data(), corrupted.size(), &out,
                                 &consumed),
            proto::ParseResult::kProtocolError);

  auto huge = wire;
  huge[0] = 0xff;  // length prefix now absurd — must not buffer 4 GiB
  huge[3] = 0xff;
  EXPECT_EQ(proto::parse_request(huge.data(), huge.size(), &out, &consumed),
            proto::ParseResult::kProtocolError);
}

// ---- stats replies: a ReplyFrame followed by its JSON ------------------

// Convenience: run the reply parser over a buffer.
struct ReplyParse {
  proto::ParseResult result = proto::ParseResult::kNeedMore;
  proto::ReplyFrame rep;
  std::string_view payload;
  std::size_t consumed = 0;
};

ReplyParse parse_buf(const unsigned char* data, std::size_t size) {
  ReplyParse p;
  p.result = proto::parse_reply(data, size, &p.rep, &p.payload, &p.consumed);
  return p;
}

proto::ReplyFrame stats_reply(std::uint64_t request_id) {
  proto::ReplyFrame rep;
  rep.op = static_cast<std::uint8_t>(proto::Op::kStats);
  rep.request_id = request_id;
  return rep;
}

TEST(NetProto, StatsReplyRoundTrip) {
  proto::ReplyFrame rep = stats_reply(91);
  rep.status = static_cast<std::uint8_t>(proto::Status::kOk);
  rep.flags = proto::kFlagDegraded;
  rep.queue_us = 12;
  const std::string json = R"({"shard":0,"counters":{"a":1}})";

  std::vector<unsigned char> wire;
  proto::append_frame(wire, rep, json);
  ASSERT_EQ(wire.size(), proto::kReplyWire + json.size());

  const auto p = parse_buf(wire.data(), wire.size());
  ASSERT_EQ(p.result, proto::ParseResult::kFrame);
  EXPECT_EQ(p.consumed, wire.size());
  EXPECT_EQ(static_cast<proto::Op>(p.rep.op), proto::Op::kStats);
  EXPECT_EQ(static_cast<proto::Status>(p.rep.status), proto::Status::kOk);
  EXPECT_EQ(p.rep.flags, proto::kFlagDegraded);
  EXPECT_EQ(p.rep.request_id, 91u);
  EXPECT_EQ(p.rep.queue_us, 12u);
  EXPECT_EQ(p.payload, json);
}

TEST(NetProto, ReplyStreamMixesFixedAndStatsFrames) {
  // Fixed reply, stats reply, fixed reply — back to back on one stream, the
  // way a pipelined connection interleaves them. The length prefix alone
  // says where each frame ends.
  proto::ReplyFrame a;
  a.request_id = 1;
  const proto::ReplyFrame s = stats_reply(2);
  const std::string json = "{}";
  proto::ReplyFrame b;
  b.request_id = 3;

  std::vector<unsigned char> wire;
  proto::append_frame(wire, a);
  proto::append_frame(wire, s, json);
  proto::append_frame(wire, b);

  std::size_t off = 0;
  auto p = parse_buf(wire.data() + off, wire.size() - off);
  ASSERT_EQ(p.result, proto::ParseResult::kFrame);
  EXPECT_TRUE(p.payload.empty());
  EXPECT_EQ(p.rep.request_id, 1u);
  off += p.consumed;

  p = parse_buf(wire.data() + off, wire.size() - off);
  ASSERT_EQ(p.result, proto::ParseResult::kFrame);
  EXPECT_EQ(p.rep.request_id, 2u);
  EXPECT_EQ(p.payload, json);
  off += p.consumed;

  p = parse_buf(wire.data() + off, wire.size() - off);
  ASSERT_EQ(p.result, proto::ParseResult::kFrame);
  EXPECT_TRUE(p.payload.empty());
  EXPECT_EQ(p.rep.request_id, 3u);
  off += p.consumed;
  EXPECT_EQ(off, wire.size());
}

TEST(NetProto, StatsReplyIncrementalNeedsMore) {
  const std::string json = R"({"gauges":{"g":42},"histograms":{}})";
  std::vector<unsigned char> wire;
  proto::append_frame(wire, stats_reply(5), json);

  // Every strict prefix — mid-prefix, mid-header, mid-payload — parses as
  // kNeedMore, never as an error and never as a short frame.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const auto p = parse_buf(wire.data(), n);
    EXPECT_EQ(p.result, proto::ParseResult::kNeedMore) << "prefix " << n;
  }
  const auto p = parse_buf(wire.data(), wire.size());
  EXPECT_EQ(p.result, proto::ParseResult::kFrame);
}

TEST(NetProto, TruncatedStatsFrameIsRejected) {
  const std::string json = "{\"x\":1}";
  std::vector<unsigned char> wire;
  proto::append_frame(wire, stats_reply(0), json);

  // An unknown magic on the reply stream is a protocol error.
  auto garbage = wire;
  garbage[proto::kLenPrefix] ^= 0xff;
  auto p = parse_buf(garbage.data(), garbage.size());
  EXPECT_EQ(p.result, proto::ParseResult::kProtocolError);

  // A non-kStats reply whose prefix announces 33 bytes carries a trailing
  // byte no reply but kStats may have: the stream is mis-framed.
  proto::ReplyFrame get;
  get.op = static_cast<std::uint8_t>(proto::Op::kGet);
  std::vector<unsigned char> bad;
  proto::append_frame(bad, get);
  bad[0] += 1;  // length prefix now 33
  bad.push_back(0);
  p = parse_buf(bad.data(), bad.size());
  EXPECT_EQ(p.result, proto::ParseResult::kProtocolError);

  // The same 33 bytes under op kStats are a frame with a one-byte payload.
  bad[proto::kLenPrefix + 5] = static_cast<std::uint8_t>(proto::Op::kStats);
  p = parse_buf(bad.data(), bad.size());
  ASSERT_EQ(p.result, proto::ParseResult::kFrame);
  EXPECT_EQ(p.payload.size(), 1u);
}

TEST(NetProto, OversizedStatsPayloadRejectedOnPrefixAlone) {
  // The cap must fire before the peer can make us buffer the body it
  // announces: four prefix bytes are enough to reject.
  const std::uint32_t len =
      static_cast<std::uint32_t>(proto::kMaxReplyBody) + 1;
  unsigned char prefix[proto::kLenPrefix];
  std::memcpy(prefix, &len, sizeof(len));
  const auto p = parse_buf(prefix, sizeof(prefix));
  EXPECT_EQ(p.result, proto::ParseResult::kProtocolError);

  // And a prefix below one ReplyFrame is equally dead on arrival.
  const std::uint32_t tiny =
      static_cast<std::uint32_t>(sizeof(proto::ReplyFrame)) - 1;
  std::memcpy(prefix, &tiny, sizeof(tiny));
  EXPECT_EQ(parse_buf(prefix, sizeof(prefix)).result,
            proto::ParseResult::kProtocolError);
}

TEST(NetClient, SeversConnectionOnCorruptReplyStream) {
  // A bare listener stands in for a malicious/broken server: it accepts the
  // client and answers with an oversized length prefix. The client must
  // classify that as a protocol error, sever the connection, and fail
  // waiters with kClosed — not buffer 1 MiB+ or spin forever.
  std::uint16_t port = 0;
  net::Fd lst = net::listen_loopback(0, &port);
  ASSERT_TRUE(lst.valid());

  net::Client client{port};
  ASSERT_TRUE(client.ok());

  int sfd = -1;
  for (int i = 0; i < 2000 && sfd < 0; ++i) {
    sfd = ::accept(lst.get(), nullptr, nullptr);
    if (sfd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(sfd, 0);

  const std::uint32_t len =
      static_cast<std::uint32_t>(proto::kMaxReplyBody) + 1;
  ASSERT_TRUE(net::write_all(sfd, &len, sizeof(len)));

  for (int i = 0; i < 5000 && !client.closed(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(client.closed());
  // The severed socket refuses further traffic outright.
  EXPECT_EQ(client.get(1).status, proto::Status::kSendFailed);
  ::close(sfd);
}

TEST(NetClient, BackoffCurveIsCappedExponentialWithJitter) {
  // Zero jitter word: exactly half the exponential step.
  EXPECT_EQ(net::retry_backoff_us(0, 200, 50'000, 0), 100u);
  EXPECT_EQ(net::retry_backoff_us(1, 200, 50'000, 0), 200u);
  EXPECT_EQ(net::retry_backoff_us(2, 200, 50'000, 0), 400u);
  // Cap: huge attempts saturate at cap/2 + jitter%(cap/2) < cap.
  for (std::size_t a = 0; a < 64; ++a) {
    const std::uint64_t d = net::retry_backoff_us(a, 200, 50'000, 0x123456);
    EXPECT_LT(d, 50'000u);
  }
  // Jitter moves the delay but stays within [half, full).
  const std::uint64_t j = net::retry_backoff_us(3, 200, 50'000, 777);
  EXPECT_GE(j, 800u);
  EXPECT_LT(j, 1600u);
  // Degenerate base: no sleep.
  EXPECT_EQ(net::retry_backoff_us(5, 0, 50'000, 999), 0u);
}

TEST(NetServeMap, DispatchesOpsAndSensesCeiling) {
  cachetrie::evict::BoundedConfig cfg;
  cfg.ceiling_bytes = 1u << 20;
  BoundedTrie map{cfg};

  proto::RequestFrame req;
  std::uint64_t v = 0;

  req.op = static_cast<std::uint8_t>(proto::Op::kPut);
  req.key = 5;
  req.value = 50;
  EXPECT_EQ(net::execute(map, req, &v), proto::Status::kOk);

  req.op = static_cast<std::uint8_t>(proto::Op::kGet);
  EXPECT_EQ(net::execute(map, req, &v), proto::Status::kOk);
  EXPECT_EQ(v, 50u);

  req.op = static_cast<std::uint8_t>(proto::Op::kRemoveIfEquals);
  req.value = 49;  // wrong expected value
  EXPECT_EQ(net::execute(map, req, &v), proto::Status::kNotFound);
  req.value = 50;
  EXPECT_EQ(net::execute(map, req, &v), proto::Status::kOk);

  req.op = static_cast<std::uint8_t>(proto::Op::kRemove);
  EXPECT_EQ(net::execute(map, req, &v), proto::Status::kNotFound);

  req.op = static_cast<std::uint8_t>(proto::Op::kPing);
  req.value = 1234;
  EXPECT_EQ(net::execute(map, req, &v), proto::Status::kOk);
  EXPECT_EQ(v, 1234u);

  // Introspection ops belong to the shard; the bare dispatcher refuses them.
  for (const proto::Op op : {proto::Op::kStats, proto::Op::kTraceCtl}) {
    req.op = static_cast<std::uint8_t>(op);
    EXPECT_EQ(net::execute(map, req, &v), proto::Status::kBadRequest);
  }

  req.op = 0xee;  // unknown op — reply, don't kill the connection
  EXPECT_EQ(net::execute(map, req, &v), proto::Status::kBadRequest);

  EXPECT_FALSE(map.near_ceiling(0.9));
  EXPECT_GT(map.resident_headroom_bytes(), 0u);
}

// One full serve pass over a real loopback socket: every op, both outcome
// statuses, bad-request survival, and a clean drain. This is the ASan
// sweep of the reactor (see file comment).
TEST(NetServe, EndToEndBasics) {
  cachetrie::evict::BoundedConfig bcfg;
  bcfg.ceiling_bytes = 8u << 20;
  BoundedTrie map{bcfg};

  net::ServerConfig scfg;
  scfg.shards = 2;
  net::Server<BoundedTrie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  {
    net::Client client{server.port()};
    ASSERT_TRUE(client.ok());

    EXPECT_EQ(client.get(1).status, proto::Status::kNotFound);
    EXPECT_TRUE(client.put(1, 100).ok());
    const auto g = client.get(1);
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.value, 100u);
    EXPECT_EQ(client.remove_if_equals(1, 99).status,
              proto::Status::kNotFound);
    EXPECT_TRUE(client.remove_if_equals(1, 100).ok());
    EXPECT_EQ(client.remove(1).status, proto::Status::kNotFound);
    EXPECT_TRUE(client.ping(7).ok());

    // An unknown op draws kBadRequest and the connection keeps working.
    std::uint64_t id = 0;
    ASSERT_TRUE(client.send(static_cast<proto::Op>(0x7e), 0, 0, &id, 0));
    EXPECT_EQ(client.wait(id).status, proto::Status::kBadRequest);
    EXPECT_TRUE(client.ping(8).ok());

    // Live introspection over the same connection: kStats hands back the
    // shard's JSON snapshot+delta and the stream keeps its discipline —
    // data ops after the JSON-carrying reply still work.
    const auto s = client.stats();
    EXPECT_TRUE(s.ok());
    ASSERT_FALSE(s.json.empty());
    EXPECT_EQ(s.json.front(), '{');
    EXPECT_EQ(s.json.back(), '}');
    EXPECT_NE(s.json.find("\"snapshot\""), std::string::npos);
    EXPECT_NE(s.json.find("\"delta\""), std::string::npos);
    EXPECT_TRUE(client.ping(9).ok());

    // The map the server serves is the caller's map.
    EXPECT_TRUE(client.put(2, 222).ok());
    EXPECT_EQ(map.lookup(2).value_or(0), 222u);
  }

  server.stop();
  const auto totals = server.totals();
  EXPECT_GE(totals.served, 10u);
  EXPECT_EQ(totals.proto_errors, 0u);
  EXPECT_EQ(server.killed_shards(), 0u);
  EXPECT_EQ(totals.conns_adopted, totals.conns_closed);
  EXPECT_TRUE(map.debug_validate().empty());
}

// An unbounded trie is a servable map as it is: no ceiling, so no reply
// may carry the near-ceiling hint.
TEST(NetServe, UnboundedTrieServesWithoutDegradedFlag) {
  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 2;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());
  {
    net::Client client{server.port()};
    ASSERT_TRUE(client.ok());
    for (std::uint64_t k = 0; k < 100; ++k) {
      const auto put = client.put(k, k * 3);
      EXPECT_TRUE(put.ok()) << "put " << k;
      EXPECT_EQ(put.flags & proto::kFlagDegraded, 0u) << "put " << k;
      const auto get = client.get(k);
      EXPECT_TRUE(get.ok()) << "get " << k;
      EXPECT_EQ(get.value, k * 3);
      EXPECT_EQ(get.flags & proto::kFlagDegraded, 0u) << "get " << k;
    }
  }
  server.stop();
  EXPECT_EQ(server.totals().proto_errors, 0u);
  EXPECT_EQ(map.size(), 100u);
  static_assert(!cachetrie::util::HasCeiling<Trie>);
}

// A trie that always reports itself near its ceiling, so the shard must
// set the degraded hint on every reply it serves.
class AlwaysNearCeiling {
 public:
  bool insert(std::uint64_t k, std::uint64_t v) { return trie_.insert(k, v); }
  std::optional<std::uint64_t> lookup(std::uint64_t k) const {
    return trie_.lookup(k);
  }
  std::optional<std::uint64_t> remove(std::uint64_t k) {
    return trie_.remove(k);
  }
  bool remove_if_equals(std::uint64_t k, std::uint64_t expected) {
    return trie_.remove_if_equals(k, expected);
  }
  bool near_ceiling(double /*frac*/) const { return true; }

 private:
  Trie trie_;
};

// Every request kind that is served — data ops with each outcome status,
// an unknown op, kStats and kTraceCtl — leaves through the same reply
// path: each carries kFlagDegraded, is counted once as served and as
// degraded, and enters the phase histograms once.
TEST(NetServe, DegradedFlagRidesEveryServedReply) {
  AlwaysNearCeiling map;
  net::ServerConfig scfg;
  scfg.shards = 1;
  net::Server<AlwaysNearCeiling> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());
  {
    net::Client client{server.port()};
    ASSERT_TRUE(client.ok());
    std::vector<std::pair<const char*, net::Client::Result>> replies;
    replies.emplace_back("put", client.put(1, 100));
    replies.emplace_back("get hit", client.get(1));
    replies.emplace_back("get miss", client.get(2));
    replies.emplace_back("remove_if_equals", client.remove_if_equals(1, 99));
    replies.emplace_back("remove", client.remove(1));
    replies.emplace_back("ping", client.ping(5));
    std::uint64_t id = 0;
    ASSERT_TRUE(client.send(static_cast<proto::Op>(0x7e), 0, 0, &id, 0));
    replies.emplace_back("unknown op", client.wait(id));
    EXPECT_EQ(replies[0].second.status, proto::Status::kOk);
    EXPECT_EQ(replies[1].second.value, 100u);
    EXPECT_EQ(replies[2].second.status, proto::Status::kNotFound);
    EXPECT_EQ(replies[3].second.status, proto::Status::kNotFound);
    EXPECT_EQ(replies[4].second.status, proto::Status::kOk);
    EXPECT_EQ(replies[6].second.status, proto::Status::kBadRequest);

    const auto s = client.stats();
    EXPECT_TRUE(s.ok());
    EXPECT_NE(s.flags & proto::kFlagDegraded, 0u) << "stats";
    replies.emplace_back("trace_ctl enable",
                         client.trace_ctl(proto::TraceCtl::kEnable));
    replies.emplace_back("trace_ctl disable",
                         client.trace_ctl(proto::TraceCtl::kDisable));
    for (const auto& [what, r] : replies) {
      EXPECT_NE(r.status, proto::Status::kShed) << what;
      EXPECT_NE(r.flags & proto::kFlagDegraded, 0u) << what;
    }
  }
  server.stop();
  const auto totals = server.totals();
  EXPECT_EQ(totals.served, 10u);
  EXPECT_EQ(totals.degraded_replies, 10u);
  EXPECT_EQ(server.phase_latency().total.count(), 10u);
  EXPECT_EQ(totals.shed, 0u);
}

// A server with no shards has nowhere to route a connection: it must refuse
// to start rather than accept one.
TEST(NetServe, ZeroShardsIsRejected) {
  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 0;
  net::Server<Trie> server{map, scfg};
  EXPECT_FALSE(server.ok());
  EXPECT_FALSE(server.start());
}

// Multiple client threads through one server, each on its own connection —
// the shard-per-core claim is that this needs no cross-shard coordination.
TEST(NetServe, ConcurrentClients) {
  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 2;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  constexpr std::size_t kThreads = 3;
  constexpr std::uint64_t kOps = 200;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      net::Client c{server.port()};
      if (!c.ok()) {
        failures.fetch_add(1000);
        return;
      }
      const std::uint64_t base = (t + 1) << 20;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        if (!c.put(base + i, i).ok()) failures.fetch_add(1);
      }
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const auto r = c.get(base + i);
        if (!r.ok() || r.value != i) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(map.size(), kThreads * kOps);
  EXPECT_TRUE(map.debug_validate().empty());
}

// While the shard is parked, one client pipelines a burst bigger than its
// kernel send buffer: send() only queues, and the I/O thread writes the
// batches. After the stall lifts, every reply lands on its own request id
// with its own value.
TEST(NetClient, PipelinedBurstPastKernelSendBufferLandsAfterStall) {
  ParkedShard parked{61, 500ms};
  Trie map;
  net::Server<Trie> server{map, burst_server_config()};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 15'000'000;
  net::Client client{server.port(), ccfg};
  ASSERT_TRUE(client.ok());

  constexpr std::size_t kBurst = net::Client::kSlots - 2;
  const int sndbuf = shrink_client_sndbuf(server.port());
  ASSERT_GT(sndbuf, 0);
  ASSERT_GT(kBurst * proto::kRequestWire, static_cast<std::size_t>(sndbuf));

  std::uint64_t trigger = 0;
  ASSERT_TRUE(client.send(proto::Op::kPing, 0, 1, &trigger, 0));
  ASSERT_TRUE(ParkedShard::wait_parked()) << "shard never parked";
  std::vector<std::uint64_t> ids(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.send(proto::Op::kPut, i, i * 7 + 3, &ids[i], 0));
  }

  EXPECT_EQ(client.wait(trigger).status, proto::Status::kOk);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto r = client.wait(ids[i]);
    ASSERT_EQ(r.status, proto::Status::kOk)
        << "request " << i << ": " << proto::status_name(r.status);
    EXPECT_EQ(r.value, i * 7 + 3) << "request " << i;
  }
  for (std::size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(map.lookup(i).value_or(0), i * 7 + 3) << "key " << i;
  }
  server.stop();
  EXPECT_EQ(server.totals().shed, 0u);
  EXPECT_EQ(server.totals().proto_errors, 0u);
}

// The same burst against a peer whose receive buffer is as small as the
// client's send buffer and which reads nothing until the burst is queued:
// the kernel refuses most of it, so the I/O thread must keep the refused
// tail and finish it on POLLOUT while it also reads the replies that start
// coming back.
TEST(NetClient, BurstPastBothKernelBuffersFinishesOnPollout) {
  std::uint16_t port = 0;
  net::Fd lst = net::listen_loopback(0, &port);
  ASSERT_TRUE(lst.valid());
  net::set_buffer_sizes(lst.get(), 0, 4096);  // inherited by the accepted fd

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 15'000'000;
  net::Client client{port, ccfg};
  ASSERT_TRUE(client.ok());
  int sfd = -1;
  for (int i = 0; i < 2000 && sfd < 0; ++i) {
    sfd = ::accept(lst.get(), nullptr, nullptr);
    if (sfd < 0) std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(sfd, 0);
  net::Fd peer{sfd};
  const timeval read_bound{5, 0};  // a lost request fails, not hangs
  ::setsockopt(sfd, SOL_SOCKET, SO_RCVTIMEO, &read_bound, sizeof(read_bound));
  ASSERT_GT(shrink_client_sndbuf(port), 0);

  constexpr std::size_t kBurst = net::Client::kSlots - 2;
  std::vector<std::uint64_t> ids(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.send(proto::Op::kPing, 0, i + 11, &ids[i], 0));
  }

  // A minimal echo server: parse every request, answer each with its own
  // id and value, one reply write per read.
  std::vector<unsigned char> in;
  std::vector<unsigned char> out;
  unsigned char chunk[4096];
  std::size_t answered = 0;
  while (answered < kBurst) {
    const long r = net::read_some(peer.get(), chunk, sizeof(chunk));
    ASSERT_GT(r, 0) << "requests lost after " << answered << " replies";
    in.insert(in.end(), chunk, chunk + r);
    std::size_t off = 0;
    proto::RequestFrame req;
    std::size_t consumed = 0;
    out.clear();
    while (proto::parse_request(in.data() + off, in.size() - off, &req,
                                &consumed) == proto::ParseResult::kFrame) {
      off += consumed;
      proto::ReplyFrame rep;
      rep.op = req.op;
      rep.request_id = req.request_id;
      rep.value = req.value;
      proto::append_frame(out, rep);
      ++answered;
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(off));
    ASSERT_TRUE(net::write_all(peer.get(), out.data(), out.size()));
  }

  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto r = client.wait(ids[i]);
    ASSERT_EQ(r.status, proto::Status::kOk)
        << "request " << i << ": " << proto::status_name(r.status);
    EXPECT_EQ(r.value, i + 11) << "request " << i;
  }
}

// close() drops whatever is still queued for the I/O thread and returns
// without waiting on the (parked) server; every outstanding waiter, and
// every later send, sees the connection closed.
TEST(NetClient, CloseWithQueuedRequestsReturnsPromptlyAndFailsWaiters) {
  ParkedShard parked{62, 2s};
  Trie map;
  net::Server<Trie> server{map, burst_server_config()};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 15'000'000;
  net::Client client{server.port(), ccfg};
  ASSERT_TRUE(client.ok());

  std::vector<std::uint64_t> ids(1);
  ASSERT_TRUE(client.send(proto::Op::kPing, 0, 1, &ids[0], 0));
  ASSERT_TRUE(ParkedShard::wait_parked()) << "shard never parked";
  for (std::size_t i = 0; i < net::Client::kSlots - 2; ++i) {
    std::uint64_t id = 0;
    ASSERT_TRUE(client.send(proto::Op::kPut, i, i, &id, 0));
    ids.push_back(id);
  }

  const auto t0 = std::chrono::steady_clock::now();
  client.close();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, 500ms) << "close() waited on the parked server";
  EXPECT_TRUE(client.closed());

  for (const std::uint64_t id : ids) {
    EXPECT_EQ(client.wait(id).status, proto::Status::kClosed) << "id " << id;
  }
  std::uint64_t late = 0;
  EXPECT_FALSE(client.send(proto::Op::kPing, 0, 2, &late, 0));

  fault::release_all();
  server.stop();
}

// Once the server has severed the connection, a send either fails outright
// or its wait() reports kClosed — it never hangs until the op timeout —
// and once closed() is observed, send() refuses.
TEST(NetClient, SendAfterServerSeveredFailsOrReportsClosed) {
  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 1;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 10'000'000;
  net::Client client{server.port(), ccfg};
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.ping(1).ok());

  server.stop();  // the drain closes every connection
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t id = 0;
  if (client.send(proto::Op::kPing, 0, 2, &id, 0)) {
    EXPECT_EQ(client.wait(id).status, proto::Status::kClosed);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);

  for (int i = 0; i < 5000 && !client.closed(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(client.closed());
  EXPECT_FALSE(client.send(proto::Op::kPing, 0, 3, &id, 0));
  EXPECT_EQ(client.ping(4).status, proto::Status::kSendFailed);
}

// A send can land before the I/O thread's linger, inside it, or after it,
// when the thread is on its way into poll(). Whatever the timing, the
// request must go out: a lost wakeup would leave it queued behind a parked
// I/O thread until op_timeout_us. The second half arms a stall at
// net.client_park, between the I/O thread's last write and its park, so
// that most sends land in exactly that window.
TEST(NetClient, SendRacingParkNeverLosesWakeup) {
  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 1;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());
  net::Client client{server.port()};  // default op_timeout_us: 2 s
  ASSERT_TRUE(client.ok());

  constexpr std::size_t kRounds = 2000;
  constexpr std::size_t kStalledRounds = 500;
  constexpr std::uint64_t kMaxGapNs = 3 * net::kResendLingerUs * 1000;
  constexpr auto kReplyBound = 250ms;  // far inside op_timeout_us
  const auto one_round = [&](std::size_t i, std::uint64_t gap_ns) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(gap_ns);
    while (std::chrono::steady_clock::now() < until) {
    }
    std::uint64_t id = 0;
    ASSERT_TRUE(client.send(proto::Op::kPing, 0, i, &id, 0));
    // Spin on poll() so the next gap starts when the reply lands.
    const auto deadline = std::chrono::steady_clock::now() + kReplyBound;
    net::Client::Result r;
    while (!client.poll(id, &r)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "round " << i << ": no reply after a " << gap_ns
          << " ns gap (lost wakeup)";
    }
    ASSERT_EQ(r.status, proto::Status::kOk) << "round " << i;
    ASSERT_EQ(r.value, i) << "round " << i;
  };

  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next_gap = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % (kMaxGapNs + 1);
  };
  for (std::size_t i = 0; i < kRounds; ++i) {
    one_round(i, next_gap());
    if (HasFatalFailure()) return;
  }

  tk::chaos::set_global_seed(63);
  tk::chaos::reset_counters();
  tk::chaos::enable(true);
  fault::install(fault::Plan(63).stall(
      tk::Site::net_client_park,
      std::chrono::microseconds(2 * net::kResendLingerUs), fault::kAnyThread,
      1, UINT32_MAX));
  for (std::size_t i = kRounds; i < kRounds + kStalledRounds; ++i) {
    one_round(i, next_gap());
    if (HasFatalFailure()) break;
  }
  fault::clear();
  tk::chaos::enable(false);
  EXPECT_GE(tk::chaos::site_hits(tk::Site::net_client_park), kStalledRounds);
}

// The shard reads a connection once per readiness report and stops at a
// short read, trusting the level-triggered epoll to report whatever
// arrives later. A frame written in two parts 5 ms apart must still be
// answered, and a pipelined run whose bytes straddle the shard's 16 KiB
// read chunk must get exactly one reply per request.
TEST(NetServe, ShortReadStrandsNoRequest) {
  Trie map;
  net::Server<Trie> server{map, burst_server_config()};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());
  net::Fd raw = net::connect_loopback(server.port());
  ASSERT_TRUE(raw.valid());
  const timeval read_bound{5, 0};  // a stranded request fails, not hangs
  ::setsockopt(raw.get(), SOL_SOCKET, SO_RCVTIMEO, &read_bound,
               sizeof(read_bound));

  constexpr std::size_t kChunk = 16 * 1024;  // Shard::handle_readable's
  constexpr std::size_t kRun = 2 * kChunk / proto::kRequestWire + 7;
  static_assert(kChunk % proto::kRequestWire != 0,
                "the run must split a frame at the chunk boundary");
  std::vector<unsigned char> wire;
  const auto frame = [&](std::uint64_t id) {
    proto::RequestFrame req;
    req.op = static_cast<std::uint8_t>(proto::Op::kPing);
    req.request_id = id;
    req.value = id * 3 + 1;
    proto::append_frame(wire, req);
  };
  frame(1);
  ASSERT_TRUE(net::write_all(raw.get(), wire.data(), 20));
  std::this_thread::sleep_for(5ms);
  ASSERT_TRUE(net::write_all(raw.get(), wire.data() + 20, wire.size() - 20));
  wire.clear();
  for (std::uint64_t id = 2; id <= kRun + 1; ++id) frame(id);
  ASSERT_GT(wire.size(), 2 * kChunk);
  ASSERT_TRUE(net::write_all(raw.get(), wire.data(), wire.size()));

  std::vector<int> replies(kRun + 2, 0);
  std::vector<unsigned char> in;
  unsigned char chunk[4096];
  std::size_t got = 0;
  while (got < kRun + 1) {
    const long r = net::read_some(raw.get(), chunk, sizeof(chunk));
    ASSERT_GT(r, 0) << "requests stranded after " << got << " replies";
    in.insert(in.end(), chunk, chunk + r);
    std::size_t off = 0;
    while (true) {
      proto::ReplyFrame rep;
      std::string_view payload;
      std::size_t consumed = 0;
      const auto pr = proto::parse_reply(in.data() + off, in.size() - off,
                                         &rep, &payload, &consumed);
      if (pr == proto::ParseResult::kNeedMore) break;
      ASSERT_EQ(pr, proto::ParseResult::kFrame);
      ASSERT_TRUE(payload.empty());
      off += consumed;
      ASSERT_GE(rep.request_id, 1u);
      ASSERT_LE(rep.request_id, kRun + 1);
      EXPECT_EQ(rep.status, static_cast<std::uint8_t>(proto::Status::kOk));
      EXPECT_EQ(rep.value, rep.request_id * 3 + 1);
      ++replies[rep.request_id];
      ++got;
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(off));
  }
  for (std::uint64_t id = 1; id <= kRun + 1; ++id) {
    EXPECT_EQ(replies[id], 1) << "request " << id;
  }
  EXPECT_TRUE(in.empty());
  const timeval quiet{0, 20'000};  // nothing more may follow
  ::setsockopt(raw.get(), SOL_SOCKET, SO_RCVTIMEO, &quiet, sizeof(quiet));
  EXPECT_EQ(net::read_some(raw.get(), chunk, sizeof(chunk)), -1);
  server.stop();
  EXPECT_EQ(server.totals().shed, 0u);
}

}  // namespace
