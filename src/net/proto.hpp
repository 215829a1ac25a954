// proto.hpp — the serving layer's length-prefixed binary wire protocol.
//
// One frame = a u32 byte length followed by a fixed-size body. Requests
// carry (op, key, value, deadline); replies carry (status, value, flags).
// A kStats reply's length also covers the JSON that follows its body.
// Keys and values are u64, matching the map instantiations every bench in
// this repo serves — the protocol's job is to put the four maps behind real
// sockets, not to be a general serialization format (DESIGN.md §4).
//
// Deadline semantics: `send_ts_us` is the client's steady-clock stamp at
// send time and `deadline_us` the budget measured from it, so a request
// that sat in a kernel socket buffer behind a stalled shard is *already
// expired* when the shard finally parses it — queueing delay counts
// against the budget, the same honesty rule the open-loop load generator
// applies to latency (coordinated omission is measured, not hidden).
// Steady clocks are system-wide on one host, which is the deployment this
// repo measures; a cross-host deployment would re-stamp budgets at ingress
// (see DESIGN.md §4). send_ts_us == 0 means "stamp on admission" and
// deadline_us == 0 means "no deadline".
//
// Byte order is host order (x86-64 little-endian, the only platform this
// repo targets — nodes_layout_test pins the same assumption).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cachetrie::net::proto {

inline constexpr std::uint32_t kRequestMagic = 0x31525443u;  // "CTR1"
inline constexpr std::uint32_t kReplyMagic = 0x31504443u;    // "CDP1"

enum class Op : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kRemove = 3,
  kRemoveIfEquals = 4,
  kPing = 5,

  // Introspection ops (DESIGN.md §4). Requests are ordinary fixed frames;
  // they ride the same admission queue as data ops so a stats poll sees the
  // server exactly as a data request would (it can be shed, it can expire).
  kStats = 6,     // reply is a ReplyFrame followed by its JSON
  kTraceCtl = 7,  // request.value = TraceCtl action; fixed reply
};

/// kTraceCtl actions (carried in RequestFrame::value). The reply's value
/// echoes the resulting recorder state (0/1) for kDisable/kEnable, and
/// 1/0 for kDump depending on whether a dump file was written.
enum class TraceCtl : std::uint64_t {
  kDisable = 0,  // trace::enable(false)
  kEnable = 1,   // trace::enable(true)
  kDump = 2,     // drain rings to TRACE_trace_ctl.json (trace_export.hpp)
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,        // GET/REMOVE on an absent key (still a served reply)
  kShed = 2,            // admission control refused the request; retryable
  kDeadlineExceeded = 3,  // budget expired before execution; NOT executed
  kBadRequest = 4,      // unknown op — the connection survives

  // Client-side synthetic statuses; never on the wire.
  kTimeout = 240,       // no reply within the client's op timeout
  kClosed = 241,        // connection closed/reset under the operation
  kSendFailed = 242,    // could not write the request
};

/// Reply flags: advisory bits clients use to modulate behaviour.
inline constexpr std::uint16_t kFlagDegraded = 1u << 0;  // map near ceiling
inline constexpr std::uint16_t kFlagDraining = 1u << 1;  // server draining

struct RequestFrame {
  std::uint32_t magic = kRequestMagic;
  std::uint8_t op = 0;
  std::uint8_t reserved8 = 0;
  std::uint16_t reserved16 = 0;
  std::uint64_t request_id = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;    // PUT: stored value; REMOVE_IF_EQUALS: expected
  std::uint64_t send_ts_us = 0;
  std::uint32_t deadline_us = 0;
  std::uint32_t reserved32 = 0;
};

struct ReplyFrame {
  std::uint32_t magic = kReplyMagic;
  std::uint8_t status = 0;
  std::uint8_t op = 0;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint64_t value = 0;
  std::uint32_t queue_us = 0;  // admission-to-execution delay, for clients
  std::uint32_t reserved32 = 0;
};

static_assert(sizeof(RequestFrame) == 48 && sizeof(ReplyFrame) == 32,
              "wire frames must be padding-free");
static_assert(std::is_trivially_copyable_v<RequestFrame> &&
              std::is_trivially_copyable_v<ReplyFrame>);

/// Length prefix + the body bounds this protocol version defines. A length
/// outside the valid range is a protocol error and closes the connection —
/// a garbage prefix must never make the server buffer "one 4 GiB frame".
/// Requests are fixed-size; a reply is one ReplyFrame, which only a kStats
/// reply follows with its JSON, capped at kMaxStatsPayload.
inline constexpr std::size_t kLenPrefix = sizeof(std::uint32_t);
inline constexpr std::size_t kMaxStatsPayload = 1u << 20;  // 1 MiB of JSON
inline constexpr std::size_t kMaxReplyBody =
    sizeof(ReplyFrame) + kMaxStatsPayload;
inline constexpr std::size_t kRequestWire = kLenPrefix + sizeof(RequestFrame);
inline constexpr std::size_t kReplyWire = kLenPrefix + sizeof(ReplyFrame);

/// Microseconds on the host-wide steady clock (the deadline time base).
inline std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Serializes one frame: the length prefix, the fixed body, then
/// `payload` (a kStats reply's JSON; empty for every other frame). The
/// caller guarantees payload.size() <= kMaxStatsPayload (the shard
/// downgrades an oversized snapshot to a payload-free kBadRequest reply).
template <typename Frame>
inline void append_frame(std::vector<unsigned char>& out, const Frame& f,
                         std::string_view payload = {}) {
  const std::uint32_t len =
      static_cast<std::uint32_t>(sizeof(Frame) + payload.size());
  const std::size_t base = out.size();
  out.resize(base + kLenPrefix + len);
  unsigned char* p = out.data() + base;
  std::memcpy(p, &len, kLenPrefix);
  std::memcpy(p + kLenPrefix, &f, sizeof(Frame));
  if (!payload.empty()) {
    std::memcpy(p + kLenPrefix + sizeof(Frame), payload.data(),
                payload.size());
  }
}

/// Outcome of pulling one frame out of a byte stream.
enum class ParseResult : std::uint8_t {
  kFrame,       // *out holds a frame; *consumed bytes were eaten
  kNeedMore,    // the buffer holds a partial frame; read more bytes
  kProtocolError,  // bad length or magic — close the connection
};

/// Parses one request frame from `data[0..size)`. On kFrame, `*consumed`
/// is the total wire bytes of the frame (prefix + body).
inline ParseResult parse_request(const unsigned char* data, std::size_t size,
                                 RequestFrame* out,
                                 std::size_t* consumed) noexcept {
  if (size < kLenPrefix) return ParseResult::kNeedMore;
  std::uint32_t len = 0;
  std::memcpy(&len, data, kLenPrefix);
  if (len != sizeof(RequestFrame)) return ParseResult::kProtocolError;
  if (size < kLenPrefix + len) return ParseResult::kNeedMore;
  std::memcpy(out, data + kLenPrefix, sizeof(RequestFrame));
  if (out->magic != kRequestMagic) return ParseResult::kProtocolError;
  *consumed = kLenPrefix + len;
  return ParseResult::kFrame;
}

/// Parses one reply from `data[0..size)`. On kFrame, `*consumed` is the
/// total wire bytes of the frame and `*payload` views the bytes after the
/// ReplyFrame inside `data` (a kStats reply's JSON, valid until the caller
/// consumes the buffer; empty for every other reply).
inline ParseResult parse_reply(const unsigned char* data, std::size_t size,
                               ReplyFrame* out, std::string_view* payload,
                               std::size_t* consumed) noexcept {
  if (size < kLenPrefix) return ParseResult::kNeedMore;
  std::uint32_t len = 0;
  std::memcpy(&len, data, kLenPrefix);
  // The oversize cap fires on the prefix alone — before the peer can make
  // us buffer the body it announces.
  if (len < sizeof(ReplyFrame) || len > kMaxReplyBody) {
    return ParseResult::kProtocolError;
  }
  if (size < kLenPrefix + len) return ParseResult::kNeedMore;
  std::memcpy(out, data + kLenPrefix, sizeof(ReplyFrame));
  if (out->magic != kReplyMagic) return ParseResult::kProtocolError;
  // Only a kStats reply carries bytes past its ReplyFrame: trailing bytes
  // on any other reply mean the stream is mis-framed.
  if (len != sizeof(ReplyFrame) &&
      out->op != static_cast<std::uint8_t>(Op::kStats)) {
    return ParseResult::kProtocolError;
  }
  *payload = std::string_view(
      reinterpret_cast<const char*>(data + kLenPrefix + sizeof(ReplyFrame)),
      len - sizeof(ReplyFrame));
  *consumed = kLenPrefix + len;
  return ParseResult::kFrame;
}

inline const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kShed: return "shed";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kBadRequest: return "bad_request";
    case Status::kTimeout: return "timeout";
    case Status::kClosed: return "closed";
    case Status::kSendFailed: return "send_failed";
  }
  return "unknown";
}

}  // namespace cachetrie::net::proto
