// net_introspect_test.cpp — live wire introspection (net label, RUN_SERIAL):
// kStats must hand back a parse-valid JSON document (registry snapshot +
// the shard's interval delta) while data traffic hammers the same server,
// and kTraceCtl must flip the flight recorder and trigger a dump over the
// wire, and the registry's phase histograms must describe the requests
// PhaseLatency does; a raw socket pins how the server frames a kStats
// reply. Lives in the net label because it wants the machine
// to itself — the concurrent-load pass makes latency-ish claims about a
// shared server.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

namespace net = cachetrie::net;
namespace proto = cachetrie::net::proto;
using Trie = cachetrie::CacheTrie<std::uint64_t, std::uint64_t>;

// ---- a deliberately tiny JSON validator ----------------------------------
// Recursive-descent over the full grammar (objects, arrays, strings with
// escapes, numbers, literals). Accepts iff the whole input is exactly one
// JSON value. ~60 lines so the test does not grow a dependency; this is a
// validator, not a parser — it keeps no tree.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}
  bool valid() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;
  const std::string& s_;
  std::size_t i_ = 0;

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) { ++i_; return true; }
    return false;
  }
  bool lit(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (i_ >= s_.size() || s_[i_] != *p) return false;
      ++i_;
    }
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') { ++i_; return true; }
      if (c < 0x20) return false;  // raw control byte — must be escaped
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        const char e = s_[i_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[i_]))) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++i_;
    }
    return false;  // unterminated
  }
  bool digits() {
    if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_])))
      return false;
    while (i_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return true;
  }
  bool number() {
    eat('-');
    if (!digits()) return false;
    if (eat('.') && !digits()) return false;
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digits()) return false;
    }
    return true;
  }
  bool value(int depth) {
    if (depth > kMaxDepth || i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      ws();
      if (eat('}')) return true;
      while (true) {
        ws();
        if (!string()) return false;
        ws();
        if (!eat(':')) return false;
        ws();
        if (!value(depth + 1)) return false;
        ws();
        if (eat('}')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '[') {
      ++i_;
      ws();
      if (eat(']')) return true;
      while (true) {
        ws();
        if (!value(depth + 1)) return false;
        ws();
        if (eat(']')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '"') return string();
    if (c == 't') return lit("true");
    if (c == 'f') return lit("false");
    if (c == 'n') return lit("null");
    return number();
  }
};

bool json_valid(const std::string& s) { return JsonValidator{s}.valid(); }

TEST(JsonValidator, SelfTest) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid(R"({"a":[1,2.5,-3e+2],"b":{"c":"x\n\"yé"}})"));
  EXPECT_TRUE(json_valid("[true,false,null]"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid(R"({"a":})"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid(R"({"a":01x})"));
  EXPECT_FALSE(json_valid("\"unterminated"));
  EXPECT_FALSE(json_valid("{\"raw\":\"\x01\"}"));
}

// kStats under concurrent data load: every pull must come back kOk with a
// document that parses, names this PR's envelope keys, and embeds the
// registry snapshot sections — while writers churn the same shards.
TEST(NetIntrospect, StatsParseValidUnderConcurrentLoad) {
  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 2;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> data_failures{0};
  constexpr std::size_t kWriters = 2;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      net::Client c{server.port()};
      if (!c.ok()) {
        data_failures.fetch_add(1000);
        return;
      }
      const std::uint64_t base = (t + 1) << 24;
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (!c.put(base + (i & 1023), i).ok()) data_failures.fetch_add(1);
        if (!c.get(base + (i & 1023)).ok()) data_failures.fetch_add(1);
      }
    });
  }

  {
    net::Client puller{server.port()};
    ASSERT_TRUE(puller.ok());
    constexpr int kPulls = 40;
    for (int i = 0; i < kPulls; ++i) {
      const auto s = puller.stats();
      ASSERT_TRUE(s.ok()) << "pull " << i << " status "
                          << proto::status_name(s.status);
      EXPECT_TRUE(json_valid(s.json)) << "pull " << i << ": " << s.json;
      EXPECT_NE(s.json.find("\"shard\":"), std::string::npos);
      EXPECT_NE(s.json.find("\"snapshot\":"), std::string::npos);
      EXPECT_NE(s.json.find("\"delta\":"), std::string::npos);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  stop.store(true);
  for (auto& w : writers) w.join();
  server.stop();
  EXPECT_EQ(data_failures.load(), 0u);
  EXPECT_EQ(server.totals().proto_errors, 0u);
  EXPECT_EQ(server.killed_shards(), 0u);
}

// Reads one reply off a blocking raw socket: the length prefix, then as
// many body bytes as it announces. Returns every byte that arrived, so a
// caller sees a second frame or a short one as a size mismatch.
std::vector<unsigned char> read_reply(int fd) {
  std::vector<unsigned char> in;
  unsigned char chunk[4096];
  std::uint32_t len = 0;
  while (in.size() < proto::kLenPrefix || in.size() < proto::kLenPrefix + len) {
    const long r = net::read_some(fd, chunk, sizeof(chunk));
    if (r <= 0) break;
    in.insert(in.end(), chunk, chunk + r);
    if (in.size() >= proto::kLenPrefix) {
      std::memcpy(&len, in.data(), proto::kLenPrefix);
    }
  }
  return in;
}

// How the server frames a kStats reply, seen from a raw socket instead of
// through the client's parser: an expired kStats is a bare ReplyFrame, and
// a served one is a ReplyFrame whose length prefix also covers its JSON.
TEST(NetIntrospect, StatsReplyFramingOnTheWire) {
  Trie map;
  net::Server<Trie> server{map, {}};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());
  net::Fd raw = net::connect_loopback(server.port());
  ASSERT_TRUE(raw.valid());
  const timeval read_bound{5, 0};  // a missing reply fails, not hangs
  ::setsockopt(raw.get(), SOL_SOCKET, SO_RCVTIMEO, &read_bound,
               sizeof(read_bound));
  const auto request = [&](std::uint64_t id, std::uint64_t send_ts_us,
                           std::uint32_t deadline_us) {
    proto::RequestFrame req;
    req.op = static_cast<std::uint8_t>(proto::Op::kStats);
    req.request_id = id;
    req.send_ts_us = send_ts_us;
    req.deadline_us = deadline_us;
    std::vector<unsigned char> wire;
    proto::append_frame(wire, req);
    return net::write_all(raw.get(), wire.data(), wire.size());
  };
  const auto header = [](const std::vector<unsigned char>& frame,
                         std::uint32_t* len, proto::ReplyFrame* rep) {
    std::memcpy(len, frame.data(), proto::kLenPrefix);
    std::memcpy(rep, frame.data() + proto::kLenPrefix, sizeof(*rep));
  };
  std::uint32_t len = 0;
  proto::ReplyFrame rep;

  // A 1 us budget from send_ts_us = 1 expired long before admission.
  ASSERT_TRUE(request(1, 1, 1));
  auto frame = read_reply(raw.get());
  ASSERT_EQ(frame.size(), proto::kReplyWire);
  header(frame, &len, &rep);
  EXPECT_EQ(len, sizeof(proto::ReplyFrame));
  EXPECT_EQ(rep.magic, proto::kReplyMagic);
  EXPECT_EQ(rep.op, static_cast<std::uint8_t>(proto::Op::kStats));
  EXPECT_EQ(rep.status,
            static_cast<std::uint8_t>(proto::Status::kDeadlineExceeded));
  EXPECT_EQ(rep.request_id, 1u);

  ASSERT_TRUE(request(2, 0, 0));
  frame = read_reply(raw.get());
  ASSERT_GT(frame.size(), proto::kReplyWire);
  header(frame, &len, &rep);
  const std::string json(frame.begin() + proto::kReplyWire, frame.end());
  EXPECT_EQ(len, sizeof(proto::ReplyFrame) + json.size());
  EXPECT_EQ(rep.magic, proto::kReplyMagic);
  EXPECT_EQ(rep.op, static_cast<std::uint8_t>(proto::Op::kStats));
  EXPECT_EQ(rep.status, static_cast<std::uint8_t>(proto::Status::kOk));
  EXPECT_EQ(rep.request_id, 2u);
  EXPECT_TRUE(json_valid(json)) << json;

  const timeval quiet{0, 20'000};  // nothing more may follow
  ::setsockopt(raw.get(), SOL_SOCKET, SO_RCVTIMEO, &quiet, sizeof(quiet));
  unsigned char extra[64];
  EXPECT_EQ(net::read_some(raw.get(), extra, sizeof(extra)), -1);
  server.stop();
}

// kTraceCtl over the wire: enable → the recorder is live and the reply
// echoes 1; dump → a TRACE_trace_ctl.json lands where $CACHETRIE_TRACE_OUT
// points and the reply echoes 1; disable → recorder off, echo 0. An
// out-of-range action draws kBadRequest without disturbing the state.
TEST(NetIntrospect, TraceCtlRoundTrip) {
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "flight recorder compiled out";
  }
  const std::string out_dir =
      ::testing::TempDir() + "net_introspect_trace_out";
  ::mkdir(out_dir.c_str(), 0755);
  // Set before the server spawns a dump: the shard thread reads this
  // environment variable only inside dump_to_file(), which we alone
  // trigger below — no concurrent getenv in flight.
  ::setenv("CACHETRIE_TRACE_OUT", out_dir.c_str(), 1);
  cachetrie::obs::trace::enable(false);

  Trie map;
  net::Server<Trie> server{map, {}};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());
  {
    net::Client client{server.port()};
    ASSERT_TRUE(client.ok());

    auto r = client.trace_ctl(proto::TraceCtl::kEnable);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, 1u);
    EXPECT_TRUE(cachetrie::obs::trace::enabled());

    // Put some traffic through so the rings have events to dump.
    for (std::uint64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(client.put(i, i * 3).ok());
    }

    r = client.trace_ctl(proto::TraceCtl::kDump);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, 1u) << "dump reported failure";
    struct ::stat st{};
    const std::string dumped = out_dir + "/TRACE_trace_ctl.json";
    EXPECT_EQ(::stat(dumped.c_str(), &st), 0) << dumped << " missing";
    EXPECT_GT(st.st_size, 0);

    r = client.trace_ctl(proto::TraceCtl::kDisable);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, 0u);
    EXPECT_FALSE(cachetrie::obs::trace::enabled());

    // Unknown action: rejected, recorder state untouched.
    std::uint64_t id = 0;
    ASSERT_TRUE(client.send(proto::Op::kTraceCtl, 0, 0xdead, &id, 0));
    EXPECT_EQ(client.wait(id).status, proto::Status::kBadRequest);
    EXPECT_FALSE(cachetrie::obs::trace::enabled());
  }
  server.stop();
  ::unsetenv("CACHETRIE_TRACE_OUT");
}

// The registry's net.phase.*_us rows (what a kStats pull reports) and the
// server's PhaseLatency (what fig15 reports) record the same flushed
// replies from the same stamps in the same geometry, so after a drain
// their counts and quantiles are equal.
TEST(NetIntrospect, RegistryPhaseHistogramsMatchPhaseLatency) {
  if (!cachetrie::obs::kMetricsCompiled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  cachetrie::obs::registry().reset();
  Trie map;
  net::ServerConfig scfg;
  scfg.shards = 2;
  net::Server<Trie> server{map, scfg};
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.start());
  {
    net::Client client{server.port()};
    ASSERT_TRUE(client.ok());
    for (std::uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(client.put(i, i).ok());
      ASSERT_TRUE(client.get(i).ok());
    }
    ASSERT_TRUE(client.stats().ok());
  }
  server.stop();

  const auto snap = cachetrie::obs::registry().snapshot();
  const net::PhaseLatency phases = server.phase_latency();
  const std::pair<const char*, const cachetrie::obs::LatencyHistogram*>
      rows[] = {{"net.phase.queue_us", &phases.queue},
                {"net.phase.execute_us", &phases.execute},
                {"net.phase.flush_us", &phases.flush}};
  for (const auto& [name, lat] : rows) {
    const auto* reg = snap.find_histogram(name);
    ASSERT_NE(reg, nullptr) << name;
    EXPECT_GE(reg->count, 601u) << name;
    EXPECT_EQ(reg->count, lat->count()) << name;
    for (const double p : {0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(reg->quantile(p), lat->quantile(p))
          << name << " p=" << p;
    }
  }
}

}  // namespace
