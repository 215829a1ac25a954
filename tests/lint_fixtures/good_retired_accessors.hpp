// Fixture: only calls to `retire`, `retire_raw`, `retire_raw_sized` and
// `retire_<word>` wrappers are retire sites. Reading the `retired*`
// accessors or a `retire_<word>` field needs no guard -- must pass clean.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fixture {

struct Domain {
  struct Guard {};
  Guard pin();
  std::size_t retired_bytes() const;
  std::uint64_t retired_count() const;
  std::uint32_t retire_pulse = 0;
};

inline bool over_cap(const Domain& dom, std::size_t cap) {
  return dom.retired_bytes() > cap;  // clean: an accessor, not a retire
}

inline std::uint64_t retirements(const Domain& dom) {
  return dom.retired_count();  // clean
}

inline bool pulse_due(Domain& dom) {
  return ++dom.retire_pulse >= 64;  // clean: a field, never called
}

}  // namespace fixture
