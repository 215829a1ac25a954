// reclaimer.hpp — common vocabulary for safe memory reclamation policies.
//
// The paper's artifact runs on the JVM, where the garbage collector silently
// guarantees that a node a reader still holds is never recycled. A native
// reproduction must provide that guarantee manually; this directory supplies
// two interchangeable policies:
//
//   * mr::EpochReclaimer  — epoch-based reclamation (EBR); the default for
//                           every data structure in this repo. Readers pin a
//                           global epoch for the duration of one operation;
//                           retired nodes are freed two epochs later. Has a
//                           stall-tolerant degraded mode (byte-capped limbo
//                           + hazard-style fallback sweep; see epoch.hpp and
//                           DESIGN.md "Reclamation under faults").
//   * mr::LeakReclaimer   — never frees; isolates reclamation overhead in
//                           the ablation benches and simplifies some tests.
//
// A policy P provides:
//   typename P::Guard          RAII critical-section token
//   P::pin() -> Guard          enter a read-side critical section
//   P::retire<T>(T* p)         schedule `delete p` after a grace period
//   P::retire_raw(p, deleter)  same, with an explicit type-erased deleter
//   P::retire_raw_sized(p, deleter, bytes)
//                              same, and report the allocation size so the
//                              reclaimer's garbage accounting (limbo caps,
//                              footprint reporting) is exact. retire<T> does
//                              this automatically with sizeof(T); the _raw
//                              form falls back to kUnknownRetiredBytes.
//
// Contract — retire must be called inside a Guard. The retiring operation
// is itself a reader of the structure it just unlinked from: the guard is
// what proves the unlink happened in a well-defined epoch. Calling any
// retire variant outside a pin is undefined: with EBR the item would be
// tagged with an epoch no reader handshake protects, so it can be freed
// while a concurrent reader still dereferences it. EpochDomain asserts the
// precondition (guard nesting > 0) in debug builds; release builds do not
// pay for the check.
//
// All data structures are templated on the policy, so the ablation benches
// can swap reclamation backends without touching algorithm code.
#pragma once

#include <cstddef>

namespace cachetrie::mr {

/// Type-erased deleter invoked once the grace period for a retired object
/// has elapsed. Must not touch any shared structure (it may run long after
/// the owning container died).
using Deleter = void (*)(void*);

/// Byte size charged to the limbo accounting when the caller does not know
/// the allocation size (plain retire_raw). One cache line is a deliberate
/// under-estimate-resistant default for the node sizes in this repo.
inline constexpr std::size_t kUnknownRetiredBytes = 64;

/// Canonical deleter for objects allocated with plain `new`.
template <typename T>
void delete_as(void* p) {
  delete static_cast<T*>(p);
}

}  // namespace cachetrie::mr
