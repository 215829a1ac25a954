// lin_check.hpp — Wing–Gong linearizability checking for recorded map
// histories.
//
// A history is linearizable iff every operation can be assigned a single
// linearization point inside its [invoke, response] ticket interval such
// that the resulting sequential history is legal for the map ADT. The
// checker searches for such an assignment with the Wing & Gong (1993)
// recursion as refined by Lowe ("Testing for linearizability", 2017):
// repeatedly pick a *minimal* pending operation — one whose invocation
// precedes the response of every other pending operation, so it may
// legally go first — apply it to the model state, and recurse, memoizing
// (linearized-set, model-state) configurations so revisited search states
// prune instead of exploding.
//
// Tractability comes from partitioning: linearizability is compositional
// (Herlihy & Wing, Theorem: a history is linearizable iff its per-object
// subhistories are), and every operation of the map ADT touches exactly one
// key, so each key is an independent object — a single-value register with
// conditional updates. The search therefore runs per key over subhistories
// of tens of events instead of once over thousands, and its state is just
// (bitmask of linearized ops, present?, value), which memoizes densely.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "testkit/history.hpp"
#include "util/hashing.hpp"

namespace cachetrie::testkit {

/// A non-linearizable per-key subhistory, with enough context to print a
/// human-readable interleaving trace.
struct Violation {
  std::uint64_t key = 0;
  std::string message;
  std::vector<Event> subhistory;  // all events on `key`, invoke order
};

namespace lin_detail {

/// The sequential model of one key: a register that may be absent.
struct RegState {
  bool present = false;
  std::uint64_t value = 0;
};

/// Applies `ev` to `st`, returning false when the recorded outcome is
/// impossible from that state (the op cannot be linearized here).
inline bool apply(const Event& ev, RegState& st) noexcept {
  switch (ev.op) {
    case Op::kInsert:  // upsert; ok must report "was new"
      if (ev.ok != !st.present) return false;
      st.present = true;
      st.value = ev.arg;
      return true;
    case Op::kPutIfAbsent:
      if (ev.ok != !st.present) return false;
      if (ev.ok) {
        st.present = true;
        st.value = ev.arg;
      }
      return true;
    case Op::kReplace:
      if (ev.ok != st.present) return false;
      if (ev.ok) st.value = ev.arg;
      return true;
    case Op::kReplaceIfEquals: {
      const bool can = st.present && st.value == ev.expected;
      if (ev.ok != can) return false;
      if (ev.ok) st.value = ev.arg;
      return true;
    }
    case Op::kLookup:
      if (ev.has_result != st.present) return false;
      if (st.present && ev.result != st.value) return false;
      return true;
    case Op::kRemove:
      if (ev.has_result != st.present) return false;
      if (st.present && ev.result != st.value) return false;
      st.present = false;
      return true;
    case Op::kRemoveIfEquals: {
      const bool can = st.present && st.value == ev.expected;
      if (ev.ok != can) return false;
      if (ev.ok) st.present = false;
      return true;
    }
  }
  return false;
}

/// A search configuration: which ops are linearized plus the model state
/// they produced. Exact equality (no hash shortcuts) — a spurious memo hit
/// could make the checker reject a linearizable history.
struct Config {
  std::vector<std::uint64_t> mask;
  bool present = false;
  std::uint64_t value = 0;

  bool operator==(const Config&) const = default;
};

struct ConfigHash {
  std::size_t operator()(const Config& c) const noexcept {
    std::uint64_t h = c.present ? 0x9e3779b97f4a7c15ULL : 0xbf58476d1ce4e5b9ULL;
    h = util::splitmix64_finalize(h ^ c.value);
    for (std::uint64_t w : c.mask) h = util::splitmix64_finalize(h ^ w);
    return static_cast<std::size_t>(h);
  }
};

inline bool bit(const std::vector<std::uint64_t>& mask, std::size_t i) {
  return (mask[i >> 6] >> (i & 63)) & 1;
}

inline void set_bit(std::vector<std::uint64_t>& mask, std::size_t i) {
  mask[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// Wing–Gong search over one key's subhistory (`evs` in invoke order).
inline bool linearizable_key(const std::vector<Event>& evs) {
  const std::size_t n = evs.size();
  if (n == 0) return true;
  const std::size_t words = (n + 63) / 64;
  std::unordered_set<Config, ConfigHash> seen;

  struct Frame {
    Config config;
    std::size_t linearized;
  };
  std::vector<Frame> stack;
  stack.push_back({Config{std::vector<std::uint64_t>(words, 0), false, 0}, 0});

  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.linearized == n) return true;
    if (!seen.insert(f.config).second) continue;  // already explored
    // The frontier: an op may linearize next only if its invocation
    // precedes every pending op's response (otherwise some completed op
    // would be ordered after one that started later than it finished).
    std::uint64_t min_resp = ~std::uint64_t{0};
    for (std::size_t i = 0; i < n; ++i) {
      if (!bit(f.config.mask, i)) min_resp = std::min(min_resp, evs[i].response);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (bit(f.config.mask, i)) continue;
      if (evs[i].invoke > min_resp) break;  // sorted by invoke: none further fit
      RegState st{f.config.present, f.config.value};
      if (!apply(evs[i], st)) continue;
      Config next = f.config;
      set_bit(next.mask, i);
      next.present = st.present;
      next.value = st.value;
      stack.push_back({std::move(next), f.linearized + 1});
    }
  }
  return false;
}

inline std::string format_event(const Event& ev) {
  std::ostringstream os;
  os << "[T" << ev.thread << "] " << ev.invoke << ".." << ev.response << "  "
     << op_name(ev.op) << "(k=" << ev.key;
  switch (ev.op) {
    case Op::kInsert:
    case Op::kPutIfAbsent:
    case Op::kReplace:
      os << ", v=" << ev.arg;
      break;
    case Op::kReplaceIfEquals:
      os << ", expected=" << ev.expected << ", v=" << ev.arg;
      break;
    case Op::kRemoveIfEquals:
      os << ", expected=" << ev.expected;
      break;
    case Op::kLookup:
    case Op::kRemove:
      break;
  }
  os << ") -> ";
  switch (ev.op) {
    case Op::kInsert:
      os << (ev.ok ? "new" : "replaced");
      break;
    case Op::kPutIfAbsent:
      os << (ev.ok ? "inserted" : "exists");
      break;
    case Op::kReplace:
    case Op::kReplaceIfEquals:
      os << (ev.ok ? "replaced" : "no-op");
      break;
    case Op::kRemoveIfEquals:
      os << (ev.ok ? "removed" : "no-op");
      break;
    case Op::kLookup:
    case Op::kRemove:
      if (ev.has_result) {
        os << ev.result;
      } else {
        os << "absent";
      }
      break;
  }
  return os.str();
}

}  // namespace lin_detail

/// Checks a full recorded history. Returns the first per-key violation
/// found, or nullopt when every key's subhistory is linearizable.
inline std::optional<Violation> check_history(const std::vector<Event>& events) {
  std::unordered_map<std::uint64_t, std::vector<Event>> by_key;
  for (const Event& ev : events) by_key[ev.key].push_back(ev);
  for (auto& [key, evs] : by_key) {
    std::sort(evs.begin(), evs.end(), [](const Event& a, const Event& b) {
      return a.invoke < b.invoke;
    });
    if (!lin_detail::linearizable_key(evs)) {
      Violation v;
      v.key = key;
      std::ostringstream os;
      os << "history of key " << key << " (" << evs.size()
         << " ops) is non-linearizable: no order of linearization points "
            "inside the ops' [invoke, response] intervals yields a legal "
            "sequential execution";
      v.message = os.str();
      v.subhistory = evs;
      return v;
    }
  }
  return std::nullopt;
}

/// Renders a violation as a human-readable interleaving trace, headed by
/// everything needed to reproduce it (chaos seed + history ordinal).
inline std::string format_trace(const Violation& v, std::uint64_t seed,
                                std::uint64_t history_index) {
  std::ostringstream os;
  os << "=== non-linearizable history ===\n"
     << "chaos seed: " << seed << "   history #" << history_index
     << "   key: " << v.key << "\n"
     << v.message << "\n"
     << "per-key subhistory (invoke order; intervals overlap where the ops "
        "ran concurrently):\n";
  for (const Event& ev : v.subhistory) {
    os << "  " << lin_detail::format_event(ev) << "\n";
  }
  return os.str();
}

}  // namespace cachetrie::testkit
