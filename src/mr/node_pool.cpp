#include "mr/node_pool.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "util/padded.hpp"

namespace cachetrie::mr {

namespace {

/// A free block; its first word links it into a list.
struct Block {
  Block* next;
};

/// A thread's list for one class, and a batch handed through the depot.
struct FreeList {
  Block* head = nullptr;
  std::uint32_t count = 0;
};

/// The unused middle of a chunk: [cur, end).
struct Span {
  char* cur;
  char* end;
};

/// A span shorter than this is dropped instead of donated at thread exit.
constexpr std::size_t kSpareSpanMin = 4096;

/// Two granules. A span's bottom is kept aligned to it (see refill).
constexpr std::size_t kPair = 2 * NodePool::kGranule;

constexpr std::size_t round_to_chunk(std::size_t bytes) noexcept {
  return (bytes + NodePool::kChunkBytes - 1) & ~(NodePool::kChunkBytes - 1);
}

/// Maps `bytes` (a multiple of kChunkBytes) at a 2 MiB boundary and marks it
/// for transparent huge pages. Over-maps by one chunk and trims both ends.
void* map_huge(std::size_t bytes) {
  const std::size_t span = bytes + NodePool::kChunkBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t base =
      (start + NodePool::kChunkBytes - 1) & ~(NodePool::kChunkBytes - 1);
  const std::size_t head = base - start;
  const std::size_t tail = span - head - bytes;
  if (head != 0) ::munmap(raw, head);
  if (tail != 0) ::munmap(reinterpret_cast<char*>(base + bytes), tail);
  // Advisory: under THP mode `never` the region simply stays on 4 KiB pages.
  ::madvise(reinterpret_cast<void*>(base), bytes, MADV_HUGEPAGE);
  return reinterpret_cast<void*>(base);
}

}  // namespace

/// Everything behind NodePool's class entry points. One ThreadCache per
/// thread, plus one shared cache (under its own mutex) for threads whose
/// cache was already donated at exit; all of them trade through the depot.
struct PoolInternals {
  static constexpr std::size_t kClasses = NodePool::kClasses;
  static constexpr std::uint32_t kBatch = NodePool::kBatch;

  /// Trivially destructible, so it stays valid for frees that run during
  /// this thread's exit after its lists were donated.
  struct ThreadCache {
    FreeList lists[kClasses] = {};
    char* cur = nullptr;  // bump span in the current chunk: even-granule
    char* end = nullptr;  // blocks carve up from cur, odd ones down from end
    bool armed = false;   // the exit-time donor is registered
    bool exited = false;  // lists donated; route through the shared cache

    void* allocate(std::size_t cls) {
      FreeList& l = lists[cls];
      if (Block* b = l.head; b != nullptr) {
        l.head = b->next;
        // The class's next allocation reads the new head's link: fetch its
        // line now, so a cold block (say, one a teardown freed) does not
        // stall that allocation. Prefetching null is harmless.
        __builtin_prefetch(l.head, 1);
        --l.count;
        return b;
      }
      return refill(cls);
    }

    void deallocate(void* p, std::size_t cls) {
      FreeList& l = lists[cls];
      auto* b = static_cast<Block*>(p);
      b->next = l.head;
      l.head = b;
      if (++l.count >= 2 * kBatch) hand_off(cls);
    }

    /// Empty list: take a depot batch, else carve from the span.
    void* refill(std::size_t cls) {
      Depot& d = depot();
      if (d.batch_count[cls].load(std::memory_order_relaxed) != 0) {
        FreeList b;
        {
          std::lock_guard<std::mutex> lock(d.mu);
          auto& v = d.batches[cls];
          if (!v.empty()) {
            b = v.back();
            v.pop_back();
            d.batch_count[cls].store(v.size(), std::memory_order_relaxed);
          }
        }
        if (Block* head = b.head; head != nullptr) {
          b.head = head->next;
          --b.count;
          lists[cls] = b;
          return head;
        }
      }
      const std::size_t size = (cls + 1) * NodePool::kGranule;
      if (size % kPair != 0) {
        if (static_cast<std::size_t>(end - cur) < size) next_span();
        end -= size;
        return end;
      }
      // Even-granule blocks go up from the span's bottom, which thus stays
      // kPair-aligned: a 32 B block never straddles a line. A 64 B block
      // that finds the bottom half a line off gives that half to the 32 B
      // list.
      const std::size_t align = util::kCacheLineSize % size == 0 ? size : kPair;
      if (static_cast<std::size_t>(end - cur) < size + align - kPair) {
        next_span();
      }
      if (reinterpret_cast<std::uintptr_t>(cur) % align != 0) {
        deallocate(cur, NodePool::class_of(kPair));
        cur += kPair;
      }
      void* p = cur;
      cur += size;
      return p;
    }

    /// Current span exhausted: adopt a donated one, else map a chunk.
    void next_span() {
      Depot& d = depot();
      if (d.span_count.load(std::memory_order_relaxed) != 0) {
        std::lock_guard<std::mutex> lock(d.mu);
        if (!d.spans.empty()) {
          const Span s = d.spans.back();
          d.spans.pop_back();
          d.span_count.store(d.spans.size(), std::memory_order_relaxed);
          cur = s.cur;
          end = s.end;
          return;
        }
      }
      cur = static_cast<char*>(map_huge(NodePool::kChunkBytes));
      end = cur + NodePool::kChunkBytes;
      NodePool::mapped_bytes_.fetch_add(NodePool::kChunkBytes,
                                        std::memory_order_relaxed);
    }

    /// The list reached 2 * kBatch: move its first kBatch blocks to the depot.
    void hand_off(std::size_t cls) {
      FreeList& l = lists[cls];
      Block* first = l.head;
      Block* last = first;
      for (std::uint32_t i = 1; i < kBatch; ++i) last = last->next;
      l.head = last->next;
      l.count -= kBatch;
      last->next = nullptr;
      push_batch(cls, FreeList{first, kBatch});
    }

    /// Thread exit: every list and the span's usable tail go to the depot.
    void donate() {
      for (std::size_t cls = 0; cls < kClasses; ++cls) {
        if (lists[cls].head != nullptr) push_batch(cls, lists[cls]);
        lists[cls] = FreeList{};
      }
      if (static_cast<std::size_t>(end - cur) >= kSpareSpanMin) {
        Depot& d = depot();
        std::lock_guard<std::mutex> lock(d.mu);
        d.spans.push_back(Span{cur, end});
        d.span_count.store(d.spans.size(), std::memory_order_relaxed);
      }
      cur = end = nullptr;
    }

    static void push_batch(std::size_t cls, FreeList b) {
      Depot& d = depot();
      std::lock_guard<std::mutex> lock(d.mu);
      d.batches[cls].push_back(b);
      d.batch_count[cls].store(d.batches[cls].size(),
                               std::memory_order_relaxed);
    }
  };

  struct Depot {
    std::mutex mu;
    std::vector<FreeList> batches[kClasses];
    std::vector<Span> spans;
    // Sizes of the vectors above, written under `mu`. The hot path reads
    // them without the lock only to skip it when the depot is empty; the
    // real check is repeated under the lock.
    std::atomic<std::size_t> batch_count[kClasses] = {};
    std::atomic<std::size_t> span_count{0};

    /// Serves threads whose own cache was donated at exit.
    std::mutex exited_mu;
    ThreadCache exited{};
  };

  /// Immortal: threads and static destructors may free nodes during
  /// process exit, after any ordinary static would have been destroyed.
  static Depot& depot() {
    static Depot* d = new Depot();
    return *d;
  }

  /// Registered on a thread's first pool use; donates at thread exit.
  struct Donor {
    ThreadCache* cache = nullptr;
    ~Donor() {
      cache->donate();
      cache->armed = false;
      cache->exited = true;
    }
  };

  /// True when the calling thread's own cache may be used; the first call
  /// on a thread registers its donor. False once the cache was donated.
  static bool usable(ThreadCache& tc) {
    if (tc.armed) return true;
    if (tc.exited) return false;
    thread_local Donor donor;
    donor.cache = &tc;
    tc.armed = true;
    return true;
  }
};

namespace {
constinit thread_local PoolInternals::ThreadCache tls_cache;
}  // namespace

void* NodePool::allocate_class(std::size_t cls) {
  PoolInternals::ThreadCache& tc = tls_cache;
  if (PoolInternals::usable(tc)) return tc.allocate(cls);
  PoolInternals::Depot& d = PoolInternals::depot();
  std::lock_guard<std::mutex> lock(d.exited_mu);
  return d.exited.allocate(cls);
}

void NodePool::deallocate_class(void* p, std::size_t cls) noexcept {
  PoolInternals::ThreadCache& tc = tls_cache;
  if (PoolInternals::usable(tc)) {
    tc.deallocate(p, cls);
    return;
  }
  PoolInternals::Depot& d = PoolInternals::depot();
  std::lock_guard<std::mutex> lock(d.exited_mu);
  d.exited.deallocate(p, cls);
}

void* NodePool::allocate_array(std::size_t bytes, std::size_t align) {
  if (!kEnabled || bytes < kChunkBytes) return system_allocate(bytes, align);
  return map_huge(round_to_chunk(bytes));
}

void NodePool::deallocate_array(void* p, std::size_t bytes,
                                std::size_t align) noexcept {
  if (!kEnabled || bytes < kChunkBytes) {
    system_deallocate(p, bytes, align);
    return;
  }
  ::munmap(p, round_to_chunk(bytes));
}

}  // namespace cachetrie::mr
