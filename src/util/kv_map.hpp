// kv_map.hpp — the one map surface the testkit driver and the server's
// request dispatch are written against.
//
// Every map in this repo speaks insert/lookup/remove over (uint64, uint64);
// that is KvMap. The conditional ops (put_if_absent, replace,
// replace_if_equals, remove_if_equals) and a ceiling exist only on some
// maps, so each is its own capability concept. Callers test the capability
// on the map type itself and emit only ops the structure actually has — no
// emulation (an emulated op would have its own linearization holes, and the
// lin-check would be testing the emulation, not the structure).
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>

namespace cachetrie::util {

template <typename M>
concept KvMap = requires(M& m, const M& cm, std::uint64_t k, std::uint64_t v) {
  { m.insert(k, v) } -> std::convertible_to<bool>;
  { cm.lookup(k) } -> std::same_as<std::optional<std::uint64_t>>;
  { m.remove(k) } -> std::same_as<std::optional<std::uint64_t>>;
};

/// A map with a resident ceiling it can be near: a bounded map. The serving
/// layer flags its replies degraded past a fraction of it (net/shard.hpp).
template <typename M>
concept HasCeiling = requires(const M& cm, double frac) {
  { cm.near_ceiling(frac) } -> std::convertible_to<bool>;
};

template <typename M>
concept HasPutIfAbsent = requires(M& m, std::uint64_t k, std::uint64_t v) {
  { m.put_if_absent(k, v) } -> std::convertible_to<bool>;
};

template <typename M>
concept HasReplace = requires(M& m, std::uint64_t k, std::uint64_t v) {
  { m.replace(k, v) } -> std::convertible_to<bool>;
};

template <typename M>
concept HasReplaceIfEquals = requires(M& m, std::uint64_t k, std::uint64_t v) {
  { m.replace_if_equals(k, v, v) } -> std::convertible_to<bool>;
};

template <typename M>
concept HasRemoveIfEquals = requires(M& m, std::uint64_t k, std::uint64_t v) {
  { m.remove_if_equals(k, v) } -> std::convertible_to<bool>;
};

}  // namespace cachetrie::util
