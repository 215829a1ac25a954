// node_pool.hpp — the size-class allocator every map node comes from.
//
// A cache-trie lookup is a constant number of dependent loads (paper
// §3.4–3.6), and on a large trie each of them also pays a page walk when the
// node sits on a 4 KiB page the TLB does not cover. The pool carves nodes out
// of 2 MiB-aligned chunks marked MADV_HUGEPAGE, so a 2^20-key trie spans
// tens of TLB entries instead of tens of thousands of pages (DESIGN.md
// "Node memory").
//
//   * Size classes are kGranule (16 B) apart, up to kMaxBytes (256 B). Larger
//     or over-aligned requests go to ::operator new; callers pass sizeof and
//     alignof, so the choice folds away at compile time for fixed-size nodes.
//   * Blocks of an even number of granules are carved up from the bottom of
//     a span, the others down from its top. The bottom stays 32 B aligned,
//     so a 32 B block (an unbounded cache-trie leaf) never straddles a line
//     and no granule is skipped to get there; a 64 B block starts on a line.
//   * Each thread keeps one free list per class plus a bump span carved from
//     its current chunk. A list that grows past 2 * kBatch hands kBatch
//     blocks to the class's depot; an empty list takes a batch from the
//     depot before carving new memory. Without the depot a thread that only
//     inserts and one that only removes would grow memory without bound:
//     the inserter keeps carving while the remover's list only grows.
//   * A pop from a free list prefetches the new list head for write. The
//     class's next allocation reads that block's link, and a block that has
//     sat freed for a while (say, one a map's teardown released) is cold:
//     the prefetch overlaps its miss with the caller's work.
//   * An exiting thread donates its lists and the rest of its span. Frees
//     that run later on the same thread (EBR limbo drained during thread
//     exit) go through a shared, mutex-guarded cache, so they land safely.
//   * Memory is reused, never returned to the OS: mapped_bytes() only grows.
//   * Any thread may free any block. EBR deleters run on whichever thread
//     collects the limbo, so a node is often freed far from where it was
//     allocated; the depot is what moves it back.
//
// Large arrays (cache arrays, hash tables) do not fit a class. At or above
// kChunkBytes, allocate_array() maps them on their own 2 MiB-aligned,
// MADV_HUGEPAGE region and deallocate_array() unmaps it; below that they
// use ::operator new.
//
// Under AddressSanitizer and ThreadSanitizer allocate()/deallocate() forward
// every request to ::operator new/delete; the class allocator stays
// callable. ASan keeps its quarantine and use-after-free reports. TSan
// cannot see a recycled block as new memory: once the stall-tolerant
// reclaimer frees what a declared-dead reader last read (DESIGN.md §2c),
// that old read would race with the block's next owner, a report that with
// malloc lands in the suppressed free path instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace cachetrie::mr {

namespace detail {
// Compiler-defined only: no build switch turns the pool off.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif
}  // namespace detail

class NodePool {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxBytes = 256;
  static constexpr std::size_t kClasses = kMaxBytes / kGranule;
  static constexpr std::size_t kChunkBytes = std::size_t{2} << 20;
  /// Blocks per depot hand-off; a thread list holds at most 2 * kBatch.
  static constexpr std::uint32_t kBatch = 64;
  /// False under ASan and TSan: allocate() then sends every request to
  /// ::operator new. The class allocator below works either way.
  static constexpr bool kEnabled = !detail::kSanitized;

  /// True when a request of `bytes` aligned to `align` is served from a class.
  static constexpr bool pooled(std::size_t bytes,
                               std::size_t align = kGranule) noexcept {
    return kEnabled && bytes != 0 && bytes <= kMaxBytes && align <= kGranule;
  }

  static void* allocate(std::size_t bytes, std::size_t align = kGranule) {
    if (!pooled(bytes, align)) return system_allocate(bytes, align);
    return allocate_class(class_of(bytes));
  }
  /// `bytes` and `align` must be the values the block was allocated with.
  static void deallocate(void* p, std::size_t bytes,
                         std::size_t align = kGranule) noexcept {
    if (!pooled(bytes, align)) {
      system_deallocate(p, bytes, align);
      return;
    }
    deallocate_class(p, class_of(bytes));
  }

  /// Storage for a large array: its own 2 MiB-aligned huge-page mapping at
  /// or above kChunkBytes, ::operator new below.
  static void* allocate_array(std::size_t bytes, std::size_t align);
  static void deallocate_array(void* p, std::size_t bytes,
                               std::size_t align) noexcept;

  /// The class allocator itself, which allocate() routes to when pooled().
  /// Callable directly, so its cross-thread paths also run under sanitizers.
  static constexpr std::size_t class_of(std::size_t bytes) noexcept {
    return (bytes - 1) / kGranule;
  }
  static void* allocate_class(std::size_t cls);
  static void deallocate_class(void* p, std::size_t cls) noexcept;

  /// Bytes of chunk memory the pool has mapped for node classes. Never
  /// shrinks: freed blocks are reused, not returned.
  static std::size_t mapped_bytes() noexcept {
    return mapped_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static void* system_allocate(std::size_t bytes, std::size_t align) {
    if (align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return ::operator new(bytes);
    }
    return ::operator new(bytes, std::align_val_t{align});
  }
  static void system_deallocate(void* p, std::size_t bytes,
                                std::size_t align) noexcept {
    if (align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(p, bytes);
    } else {
      ::operator delete(p, bytes, std::align_val_t{align});
    }
  }

  friend struct PoolInternals;
  static inline std::atomic<std::size_t> mapped_bytes_{0};
};

/// Empty base whose class-scope allocation functions route `new T{...}` and
/// `delete t` of every derived node type through the pool. The sized delete
/// sees sizeof of the static type, so deletes must name the exact node type
/// (protocol code never deletes through a base pointer).
struct PoolAllocated {
  static void* operator new(std::size_t n) { return NodePool::allocate(n); }
  static void* operator new(std::size_t n, std::align_val_t a) {
    return NodePool::allocate(n, static_cast<std::size_t>(a));
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    NodePool::deallocate(p, n);
  }
  static void operator delete(void* p, std::size_t n,
                              std::align_val_t a) noexcept {
    NodePool::deallocate(p, n, static_cast<std::size_t>(a));
  }
  /// Placement form for variable-size nodes built on pool storage (the
  /// class-scope declarations above would otherwise hide it).
  static void* operator new(std::size_t, void* where) noexcept {
    return where;
  }
};

}  // namespace cachetrie::mr
