// chashmap.hpp — concurrent closed-addressing hash table, modeled on the
// JDK 8 ConcurrentHashMap redesign (Lea, 2014) that the cache-trie paper
// uses as its baseline ("the most efficient and scalable concurrent
// dictionary that we are aware of").
//
// Faithfully reproduced properties:
//   * wait-free lock-free lookups: readers walk bucket chains with no locks
//     and no helping;
//   * fine-grained writes: an insert into an empty bin is a single CAS; a
//     collision takes a per-bin spinlock (the JDK synchronizes on the bin's
//     first node — same granularity);
//   * cooperative incremental resize: when the load factor is exceeded,
//     writers allocate a double-size table and transfer bins in strides,
//     planting forwarding markers so concurrent operations redirect; any
//     writer arriving during a resize helps finish it;
//   * striped element counters (LongAdder-style) so size bookkeeping does
//     not serialize writers.
//
// Deviations (documented in DESIGN.md): no treeification of long chains
// (the JDK's red-black bins only matter under adversarial hashing, which
// the mix64 finalizer prevents), and value updates replace the node rather
// than writing a volatile field (C++ values are inline, not references).
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "mr/epoch.hpp"
#include "mr/node_pool.hpp"
#include "obs/sites.hpp"
#include "testkit/chaos.hpp"
#include "util/hashing.hpp"
#include "util/padded.hpp"
#include "util/spinwait.hpp"
#include "util/thread_id.hpp"

namespace cachetrie::chm {

/// A node is the JDK's hash, key, value and next.
template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class ConcurrentHashMap {
  struct Node;

  /// The hash of the sentinel planted in a transferred bin; searches
  /// restart in the next table. adjust_hash keeps real hashes off it.
  static constexpr std::uint64_t kForwardHash = ~std::uint64_t{0};

  /// Allocated from the node pool (mr/node_pool.hpp), like the tries' nodes.
  struct Node : mr::PoolAllocated {
    std::uint64_t hash;
    K key;
    V value;
    std::atomic<Node*> next;

    static Node* make(std::uint64_t h, const K& k, const V& v, Node* nxt) {
      auto* n = new Node{{}, h, k, v, {}};
      n->next.store(nxt, std::memory_order_relaxed);
      return n;
    }
  };

  struct Table {
    std::size_t nbins;
    std::atomic<Table*> next{nullptr};           // set when a resize starts
    std::atomic<void*> marker{nullptr};          // shared ForwardNode
    std::atomic<std::size_t> transfer_index{0};  // next bin range to claim
    std::atomic<std::size_t> transferred{0};     // bins fully moved
    // bins + one spinlock byte per bin follow the header
    std::atomic<Node*>* bins() noexcept {
      return reinterpret_cast<std::atomic<Node*>*>(this + 1);
    }
    std::atomic<std::uint8_t>* locks() noexcept {
      return reinterpret_cast<std::atomic<std::uint8_t>*>(bins() + nbins);
    }

    static std::size_t alloc_size(std::size_t nbins) noexcept {
      return sizeof(Table) + nbins * (sizeof(std::atomic<Node*>) + 1);
    }

    static Table* make(std::size_t nbins) {
      // Tables of 2 MiB or more land on their own huge-page mapping.
      void* raw =
          mr::NodePool::allocate_array(alloc_size(nbins), alignof(Table));
      auto* t = new (raw) Table{};
      t->nbins = nbins;
      for (std::size_t i = 0; i < nbins; ++i) {
        std::construct_at(t->bins() + i, nullptr);
        std::construct_at(t->locks() + i, std::uint8_t{0});
      }
      return t;
    }

    static void destroy(Table* t) noexcept {
      const std::size_t bytes = alloc_size(t->nbins);
      t->~Table();
      mr::NodePool::deallocate_array(t, bytes, alignof(Table));
    }
    static void destroy_erased(void* t) { destroy(static_cast<Table*>(t)); }
  };

  /// The forwarding marker: a Node whose hash is kForwardHash, carrying
  /// the next table in `fwd` (table_ flips only once a transfer ends).
  struct ForwardNode {
    Node node;  // node.hash == kForwardHash; key/value default
    Table* fwd;

    /// Designated allocator (SMR rule: raw `new` of protocol nodes lives
    /// only in make/destroy helpers).
    static ForwardNode* make(Table* next) {
      auto* f = new ForwardNode{};
      f->node.hash = kForwardHash;
      f->fwd = next;
      return f;
    }
  };

 public:
  /// Bytes of one node; the header sweep checks it fits a pool size class.
  static constexpr std::size_t kNodeBytes = sizeof(Node);

  explicit ConcurrentHashMap(std::size_t initial_bins = 16) {
    std::size_t n = 16;
    while (n < initial_bins) n <<= 1;
    table_.store(Table::make(n), std::memory_order_relaxed);
  }

  ConcurrentHashMap(const ConcurrentHashMap&) = delete;
  ConcurrentHashMap& operator=(const ConcurrentHashMap&) = delete;

  ~ConcurrentHashMap() {
    Table* t = table_.load(std::memory_order_relaxed);
    // A quiescent map has a single table (transfers complete before the
    // table pointer advances past them).
    for (std::size_t i = 0; i < t->nbins; ++i) {
      Node* n = t->bins()[i].load(std::memory_order_relaxed);
      while (n != nullptr) {
        Node* nx = n->next.load(std::memory_order_relaxed);
        // The final table never holds forwarding markers (transfers finish
        // before the table pointer advances); defensive break regardless.
        if (n->hash == kForwardHash) break;
        delete n;
        n = nx;
      }
    }
    Table::destroy(t);
  }

  /// Inserts or replaces; true iff the key was new.
  bool insert(const K& key, const V& value) {
    return do_insert(key, value, /*only_if_absent=*/false);
  }

  bool put_if_absent(const K& key, const V& value) {
    return do_insert(key, value, /*only_if_absent=*/true);
  }

  /// Lock-free: walks key's bin and follows forwarding markers into the
  /// next table.
  std::optional<V> lookup(const K& key) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point(testkit::Site::chm_pinned);
    const std::uint64_t h = adjust_hash(hasher_(key));
    // [acquires: CHM_TABLE_PUBLISH]
    Table* t = table_.load(std::memory_order_acquire);
    while (true) {
      // [acquires: CHM_BIN_LINK]
      Node* n = t->bins()[h & (t->nbins - 1)].load(std::memory_order_acquire);
      while (n != nullptr) {
        if (n->hash == kForwardHash) {
          t = reinterpret_cast<ForwardNode*>(n)->fwd;
          break;  // retry in the next table
        }
        if (n->hash == h && n->key == key) return n->value;
        n = n->next.load(std::memory_order_acquire);
      }
      if (n == nullptr) return std::nullopt;
    }
  }

  bool contains(const K& key) const { return lookup(key).has_value(); }

  /// JDK's 2-argument remove: unlink only while the value equals `expected`.
  /// The bin lock pins the value for the compare (values are inline and
  /// replaced by node swap, so the node seen under the lock cannot change).
  bool remove_if_equals(const K& key, const V& expected)
    requires std::equality_comparable<V>
  {
    return unlink_if(key, [&](const Node& n) { return n.value == expected; })
        .has_value();
  }

  std::optional<V> remove(const K& key) {
    return unlink_if(key, [](const Node&) { return true; });
  }

  /// Approximate under concurrency, exact when quiescent.
  std::size_t size() const {
    std::int64_t sum = 0;
    for (const auto& c : counters_) {
      sum += c.value.load(std::memory_order_relaxed);
    }
    return sum < 0 ? 0 : static_cast<std::size_t>(sum);
  }

  template <typename F>
  void for_each(F&& fn) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    walk(table_.load(std::memory_order_acquire), fn);
  }

  /// Heap bytes: the map, its table, and each node at its pool class size
  /// (NodePool::class_bytes).
  std::size_t footprint_bytes() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    Table* t = table_.load(std::memory_order_acquire);
    auto none = [](const K&, const V&) {};
    return sizeof(*this) + Table::alloc_size(t->nbins) + walk(t, none);
  }

  /// Number of bins in the current table (tests observe resize growth).
  std::size_t bin_count() const {
    return table_.load(std::memory_order_acquire)->nbins;
  }

 private:
  static constexpr std::size_t kTransferStride = 64;

  /// Real hashes never collide with the forwarding marker.
  static std::uint64_t adjust_hash(std::uint64_t h) noexcept {
    return h == kForwardHash ? h - 1 : h;
  }

  /// RAII per-bin spinlock (granularity of the JDK's per-first-node
  /// synchronization).
  struct BinLock {
    Table* t;
    std::size_t bi;
    // Span covers wait + hold: B fires before the spin, E after the dtor
    // body releases (members destroy after the body runs), so the trace
    // shows both contention and critical-section length per bin.
    [[no_unique_address]] obs::trace::Span trace_span;
    BinLock(Table* table, std::size_t bin)
        : t(table), bi(bin),
          trace_span(obs::trace::EventId::kChmBinLockBegin,
                     obs::trace::EventId::kChmBinLockEnd, bin) {
      testkit::chaos_point(testkit::Site::chm_bin_lock);
      util::Backoff backoff;
      auto& lk = t->locks()[bi];
      std::uint8_t expected = 0;
      // [acquires: CHM_BIN_LOCK]
      while (!lk.compare_exchange_weak(expected, 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        expected = 0;
        backoff.pause();
      }
      obs::sites::chm_bin_lock.add();
      // Holding the lock: stretch the critical section so lock-free
      // readers and empty-bin CASers overlap it.
      testkit::chaos_point(testkit::Site::chm_bin_locked);
    }
    // [publishes: CHM_BIN_LOCK]
    ~BinLock() { t->locks()[bi].store(0, std::memory_order_release); }
  };

  /// The one walk behind for_each and footprint_bytes: fn(key, value) for
  /// every node of `t`'s bins, each bin up to a forwarding marker (a
  /// concurrent resize; best effort). Returns the nodes' charged bytes, each
  /// node at its pool class size.
  template <typename F>
  static std::size_t walk(Table* t, F& fn) {
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < t->nbins; ++i) {
      for (Node* n = t->bins()[i].load(std::memory_order_acquire);
           n != nullptr && n->hash != kForwardHash;
           n = n->next.load(std::memory_order_acquire)) {
        fn(n->key, n->value);
        bytes += mr::NodePool::class_bytes(sizeof(Node), alignof(Node));
      }
    }
    return bytes;
  }

  /// Under bin `bi`'s lock: puts `replacement` where `old` was linked
  /// (after `prev`, or at the head when `prev` is null) and retires `old`.
  /// `replacement` is old's successor (an unlink) or a fresh node that
  /// already points at it (a value replace).
  // [smr: caller-pinned] -- the guard is held by the public entry point.
  static void splice(Table* t, std::size_t bi, Node* prev, Node* old,
                     Node* replacement) {
    if (prev == nullptr) {
      t->bins()[bi].store(replacement, std::memory_order_release);
    } else {
      prev->next.store(replacement, std::memory_order_release);
    }
    Reclaimer::template retire<Node>(old);
  }

  /// The one locked unlink: under key's bin lock, splices out key's node if
  /// `pred(node)` holds. Returns the unlinked value, or nullopt when the
  /// key is absent or `pred` refused.
  template <typename Pred>
  std::optional<V> unlink_if(const K& key, Pred pred) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point(testkit::Site::chm_pinned);
    const std::uint64_t h = adjust_hash(hasher_(key));
    while (true) {
      Table* t = table_.load(std::memory_order_acquire);
      const std::size_t bi = h & (t->nbins - 1);
      Node* head = t->bins()[bi].load(std::memory_order_acquire);
      if (head == nullptr) return std::nullopt;
      if (head->hash == kForwardHash) {
        start_or_help_transfer(t);
        continue;
      }
      BinLock lock{t, bi};
      head = t->bins()[bi].load(std::memory_order_acquire);
      if (head != nullptr && head->hash == kForwardHash) continue;
      // Exclusive bin access: unlink in place.
      Node* prev = nullptr;
      for (Node* n = head; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        if (n->hash == h && n->key == key) {
          if (!pred(*n)) return std::nullopt;
          std::optional<V> out{n->value};
          splice(t, bi, prev, n, n->next.load(std::memory_order_relaxed));
          add_count(-1);
          return out;
        }
        prev = n;
      }
      return std::nullopt;
    }
  }

  bool do_insert(const K& key, const V& value, bool only_if_absent) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    // Fault site: stalls a thread inside a guard before it does anything.
    // Note this map is lock-BASED (bin locks): forever-stall plans must
    // not target it — a victim parked while holding a bin lock blocks
    // writers for good (that is the baseline's documented weakness, see
    // DESIGN.md "Reclamation under faults").
    testkit::chaos_point(testkit::Site::chm_pinned);
    const std::uint64_t h = adjust_hash(hasher_(key));
    while (true) {
      Table* t = table_.load(std::memory_order_acquire);
      const std::size_t bi = h & (t->nbins - 1);
      auto& bin = t->bins()[bi];
      Node* head = bin.load(std::memory_order_acquire);
      if (head == nullptr) {
        // Lock-free fast path: CAS into the empty bin.
        Node* fresh = Node::make(h, key, value, nullptr);
        testkit::chaos_point(testkit::Site::chm_bin_cas);
        Node* expected = nullptr;
        // [publishes: CHM_BIN_LINK]
        if (bin.compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          add_count(1);
          maybe_resize(t);
          return true;
        }
        delete fresh;  // [delete: unpublished]
        continue;
      }
      if (head->hash == kForwardHash) {
        start_or_help_transfer(t);
        continue;
      }
      bool inserted = false;
      {
        BinLock lock{t, bi};
        head = bin.load(std::memory_order_acquire);
        if (head == nullptr || head->hash == kForwardHash) continue;
        Node* prev = nullptr;
        Node* n = head;
        for (; n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
          if (n->hash == h && n->key == key) break;
          prev = n;
        }
        if (n != nullptr) {
          if (only_if_absent) return false;
          // Replace the node (readers are lock-free; value is inline, so an
          // in-place write would tear).
          splice(t, bi, prev, n,
                 Node::make(h, key, value,
                            n->next.load(std::memory_order_relaxed)));
          return false;
        }
        // Append at the head (cheapest; chain order is irrelevant).
        Node* fresh = Node::make(h, key, value, head);
        bin.store(fresh, std::memory_order_release);
        inserted = true;
      }
      if (inserted) {
        add_count(1);
        maybe_resize(t);
        return true;
      }
    }
  }

  void add_count(std::int64_t d) {
    counters_[util::current_thread_id() % kCounterStripes].value.fetch_add(
        d, std::memory_order_relaxed);
  }

  void maybe_resize(Table* t) {
    // Summing the counter stripes on every insert would serialize writers;
    // sample every 64 inserts per thread (the resize threshold is a soft
    // target — the JDK's baseCount check is similarly approximate).
    thread_local std::uint32_t pulse = 0;
    if ((++pulse & 63u) != 0) return;
    if (size() * 4 < t->nbins * 3) return;  // load factor 0.75
    start_or_help_transfer(t);
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void start_or_help_transfer(Table* t) {
    testkit::chaos_point(testkit::Site::chm_transfer_help);
    if (table_.load(std::memory_order_acquire) != t) return;  // superseded
    obs::sites::chm_transfer_help.record(t->nbins);
    Table* next = t->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      Table* fresh = Table::make(t->nbins * 2);
      Table* expected = nullptr;
      if (t->next.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        // Unique per doubling: this thread initiated the resize.
        obs::sites::chm_resize.record(t->nbins, t->nbins * 2);
      } else {
        Table::destroy(fresh);
      }
      next = t->next.load(std::memory_order_acquire);
    }
    // One shared forwarding marker per transfer (as in the JDK), planted
    // into every transferred bin.
    if (t->marker.load(std::memory_order_acquire) == nullptr) {
      auto* fwd = ForwardNode::make(next);
      void* expected = nullptr;
      // [publishes: CHM_FORWARD]
      if (!t->marker.compare_exchange_strong(expected, fwd,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        delete fwd;  // [delete: unpublished]
      }
    }
    // Claim strides of bins and transfer them.
    while (true) {
      const std::size_t start =
          t->transfer_index.fetch_add(kTransferStride,
                                      std::memory_order_acq_rel);
      if (start >= t->nbins) break;
      const std::size_t end = std::min(start + kTransferStride, t->nbins);
      for (std::size_t i = start; i < end; ++i) transfer_bin(t, next, i);
      if (t->transferred.fetch_add(end - start,
                                   std::memory_order_acq_rel) +
              (end - start) ==
          t->nbins) {
        // Last transferrer publishes the new table and retires the old.
        testkit::chaos_point(testkit::Site::chm_table_publish);
        Table* expected = t;
        // [publishes: CHM_TABLE_PUBLISH]
        if (table_.compare_exchange_strong(expected, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          // Every bin of t now holds the shared forwarding marker; retire
          // it once, together with the table.
          Reclaimer::template retire<ForwardNode>(static_cast<ForwardNode*>(
              t->marker.load(std::memory_order_acquire)));
          Reclaimer::retire_raw_sized(t, &Table::destroy_erased,
                                      Table::alloc_size(t->nbins));
        }
        break;
      }
    }
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void transfer_bin(Table* t, Table* next, std::size_t bi) {
    obs::sites::chm_transfer_bin.record(bi, t->nbins);
    BinLock lock{t, bi};
    while (true) {
      Node* head = t->bins()[bi].load(std::memory_order_acquire);
      if (head != nullptr && head->hash == kForwardHash) return;  // done
      // Split the chain into low/high halves of the doubled table. The
      // JDK's lastRun optimization: the longest suffix whose nodes all land
      // in the same half is *reused* (its next pointers need no change);
      // only the prefix is cloned, because readers may still be walking the
      // old chain. With random hashes most chains are reused whole.
      Node* last_run = head;
      bool run_bit = false;
      if (head != nullptr) {
        run_bit = (head->hash & t->nbins) != 0;
        for (Node* n = head->next.load(std::memory_order_relaxed);
             n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
          const bool b = (n->hash & t->nbins) != 0;
          if (b != run_bit) {
            run_bit = b;
            last_run = n;
          }
        }
      }
      Node* lo = nullptr;
      Node* hi = nullptr;
      if (head != nullptr) {
        (run_bit ? hi : lo) = last_run;
        for (Node* n = head; n != last_run;
             n = n->next.load(std::memory_order_relaxed)) {
          if ((n->hash & t->nbins) == 0) {
            lo = Node::make(n->hash, n->key, n->value, lo);
          } else {
            hi = Node::make(n->hash, n->key, n->value, hi);
          }
        }
      }
      // The new bins (bi, bi+nbins) stay private until the forwarding
      // marker publishes them — no other old bin maps to this pair.
      auto* fwd =
          // [acquires: CHM_FORWARD]
          static_cast<ForwardNode*>(
              t->marker.load(std::memory_order_acquire));
      assert(fwd != nullptr);
      next->bins()[bi].store(lo, std::memory_order_release);
      next->bins()[bi + t->nbins].store(hi, std::memory_order_release);
      // Plant via CAS on the walked head: the bin lock excludes chain
      // writers, but an empty-bin insert CASes without the lock and could
      // slip in after the walk — a plain exchange would silently drop it.
      testkit::chaos_point(testkit::Site::chm_transfer_plant);
      Node* expected = head;
      if (t->bins()[bi].compare_exchange_strong(expected, &fwd->node,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        // Retire only the cloned prefix — the lastRun suffix lives on in
        // the new table.
        for (Node* n = head; n != last_run;) {
          Node* nx = n->next.load(std::memory_order_relaxed);
          Reclaimer::template retire<Node>(n);
          n = nx;
        }
        return;
      }
      // Lost to a concurrent empty-bin insert: undo the clones (they sit
      // ahead of the reused suffix in the fresh chains) and retry. The
      // shared marker is not ours to free.
      next->bins()[bi].store(nullptr, std::memory_order_relaxed);
      next->bins()[bi + t->nbins].store(nullptr, std::memory_order_relaxed);
      while (lo != nullptr && lo != last_run) {
        Node* nx = lo->next.load(std::memory_order_relaxed);
        delete lo;  // [delete: unpublished]
        lo = nx;
      }
      while (hi != nullptr && hi != last_run) {
        Node* nx = hi->next.load(std::memory_order_relaxed);
        delete hi;  // [delete: unpublished]
        hi = nx;
      }
    }
  }

  static constexpr std::size_t kCounterStripes = 16;

  Hash hasher_{};
  std::atomic<Table*> table_{nullptr};
  util::PaddedCounter counters_[kCounterStripes];
};

}  // namespace cachetrie::chm
