// proto.hpp — the serving layer's length-prefixed binary wire protocol.
//
// One frame = a u32 byte length followed by a fixed-size body. Requests
// carry (op, key, value, deadline); replies carry (status, value, flags).
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
#include <optional>
#include <string_view>
#include <vector>

namespace cachetrie::net::proto {

inline constexpr std::uint32_t kRequestMagic = 0x31525443u;  // "CTR1"
inline constexpr std::uint32_t kReplyMagic = 0x31504443u;    // "CDP1"
inline constexpr std::uint32_t kStatsMagic = 0x32504443u;    // "CDP2"

enum class Op : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kRemove = 3,
  kRemoveIfEquals = 4,
  kPing = 5,

  // Introspection ops (DESIGN.md §4). Requests are ordinary fixed frames;
  // they ride the same admission queue as data ops so a stats poll sees the
  // server exactly as a data request would (it can be shed, it can expire).
  kStats = 6,     // reply is a variable-length StatsReplyHeader + JSON
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

/// The one variable-length frame in the protocol: the reply to a kStats
/// request. A fixed header (kStatsMagic disambiguates it from ReplyFrame —
/// frames are told apart by magic, not by length) followed by payload_len
/// bytes of UTF-8 JSON: the metrics registry snapshot plus the shard's
/// interval delta (obs/interval.hpp). Capped at kMaxStatsPayload so the
/// no-4-GiB-buffer rule survives the variable-length extension: a length
/// prefix over the cap is rejected before any body byte is buffered.
struct StatsReplyHeader {
  std::uint32_t magic = kStatsMagic;
  std::uint8_t status = 0;
  std::uint8_t op = static_cast<std::uint8_t>(Op::kStats);
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;  // JSON bytes following this header
  std::uint32_t reserved32 = 0;
};

static_assert(sizeof(RequestFrame) == 48 && sizeof(ReplyFrame) == 32 &&
                  sizeof(StatsReplyHeader) == 24,
              "wire frames must be padding-free");
static_assert(std::is_trivially_copyable_v<RequestFrame> &&
              std::is_trivially_copyable_v<ReplyFrame> &&
              std::is_trivially_copyable_v<StatsReplyHeader>);

/// Length prefix + the body bounds this protocol version defines. A length
/// outside the valid range is a protocol error and closes the connection —
/// a garbage prefix must never make the server buffer "one 4 GiB frame".
/// Requests stay fixed-size; the reply stream's upper bound is the stats
/// header plus its payload cap.
inline constexpr std::size_t kLenPrefix = sizeof(std::uint32_t);
inline constexpr std::size_t kMinBody = sizeof(StatsReplyHeader);
inline constexpr std::size_t kMaxBody = sizeof(RequestFrame);
inline constexpr std::size_t kMaxStatsPayload = 1u << 20;  // 1 MiB of JSON
inline constexpr std::size_t kMaxReplyBody =
    sizeof(StatsReplyHeader) + kMaxStatsPayload;
inline constexpr std::size_t kRequestWire = kLenPrefix + sizeof(RequestFrame);
inline constexpr std::size_t kReplyWire = kLenPrefix + sizeof(ReplyFrame);

/// Microseconds on the host-wide steady clock (the deadline time base).
inline std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

template <typename Frame>
inline void append_frame(std::vector<unsigned char>& out, const Frame& f) {
  const std::uint32_t len = sizeof(Frame);
  const std::size_t base = out.size();
  out.resize(base + kLenPrefix + sizeof(Frame));
  std::memcpy(out.data() + base, &len, kLenPrefix);
  std::memcpy(out.data() + base + kLenPrefix, &f, sizeof(Frame));
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

/// Serializes one stats reply: length prefix, header, then the JSON bytes.
/// The caller guarantees payload.size() <= kMaxStatsPayload (the shard
/// downgrades an oversized snapshot to a fixed kBadRequest reply instead).
inline void append_stats_frame(std::vector<unsigned char>& out,
                               StatsReplyHeader header,
                               std::string_view payload) {
  header.magic = kStatsMagic;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t len =
      static_cast<std::uint32_t>(sizeof(StatsReplyHeader) + payload.size());
  const std::size_t base = out.size();
  out.resize(base + kLenPrefix + len);
  std::memcpy(out.data() + base, &len, kLenPrefix);
  std::memcpy(out.data() + base + kLenPrefix, &header,
              sizeof(StatsReplyHeader));
  std::memcpy(out.data() + base + kLenPrefix + sizeof(StatsReplyHeader),
              payload.data(), payload.size());
}

/// Parses one frame off the *reply* stream, which carries two frame kinds:
/// fixed ReplyFrames and variable-length stats replies. Dispatch is by
/// magic (peeked as soon as the first four body bytes arrive, so garbage
/// fails fast); lengths are validated against each kind's contract before
/// any further buffering. On kFrame exactly one of the two outputs is
/// filled: `*is_stats` says which, and for stats frames `*payload_out`
/// points at the JSON bytes inside `data` (valid until the caller consumes
/// the buffer; `stats_out->payload_len` is its length).
inline ParseResult parse_reply_stream(const unsigned char* data,
                                      std::size_t size, ReplyFrame* out,
                                      StatsReplyHeader* stats_out,
                                      const unsigned char** payload_out,
                                      bool* is_stats,
                                      std::size_t* consumed) noexcept {
  if (size < kLenPrefix) return ParseResult::kNeedMore;
  std::uint32_t len = 0;
  std::memcpy(&len, data, kLenPrefix);
  // The oversize cap fires on the prefix alone — before the peer can make
  // us buffer the body it announces.
  if (len < kMinBody || len > kMaxReplyBody) return ParseResult::kProtocolError;
  if (size >= kLenPrefix + sizeof(std::uint32_t)) {
    std::uint32_t magic = 0;
    std::memcpy(&magic, data + kLenPrefix, sizeof(magic));
    if (magic == kReplyMagic) {
      if (len != sizeof(ReplyFrame)) return ParseResult::kProtocolError;
    } else if (magic == kStatsMagic) {
      if (len < sizeof(StatsReplyHeader)) return ParseResult::kProtocolError;
    } else {
      return ParseResult::kProtocolError;
    }
  }
  if (size < kLenPrefix + len) return ParseResult::kNeedMore;
  std::uint32_t magic = 0;
  std::memcpy(&magic, data + kLenPrefix, sizeof(magic));
  if (magic == kReplyMagic) {
    std::memcpy(out, data + kLenPrefix, sizeof(ReplyFrame));
    *is_stats = false;
  } else {
    std::memcpy(stats_out, data + kLenPrefix, sizeof(StatsReplyHeader));
    // A header whose payload_len disagrees with the frame length is a
    // truncated (or padded) frame — reject it rather than mis-split the
    // stream.
    if (sizeof(StatsReplyHeader) + stats_out->payload_len != len) {
      return ParseResult::kProtocolError;
    }
    *payload_out = data + kLenPrefix + sizeof(StatsReplyHeader);
    *is_stats = true;
  }
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
