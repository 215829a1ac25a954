// skiplist.hpp — lock-free concurrent skip list, the ConcurrentSkipListMap
// analogue the cache-trie paper benchmarks against (its worst performer:
// O(log n) pointer hops with poor locality — Figs. 10 and 13).
//
// Algorithm: the Herlihy–Shavit LockFreeSkipList (The Art of Multiprocessor
// Programming, ch. 14; after Fraser 2004): per-level next pointers carry a
// mark bit (tagged pointer); removal marks a node top-down with the bottom
// level last (in the book the bottom-level mark is the linearization
// point; here that moved into the vsync dead bit, see below), and find()
// physically snips marked nodes at every level it traverses. Marking —
// whether by the remover or a helper — always covers every level, bottom
// last, preserving the invariant "bottom-marked implies marked everywhere
// above" (see help_mark for why partial helping is unsound).
//
// Two departures from the book, both forced by manual memory reclamation
// (the book assumes GC):
//   * The bottom-mark winner retires the node only after its own find()
//     pass has unlinked it everywhere, and inserts that link a node re-check
//     their successors' marks afterwards (with seq_cst ordering) and re-run
//     find() if any was marked. Together these form the same
//     "mark-then-clear vs publish-then-check" handshake the cache-trie's
//     cache uses: a marked node can never stay reachable past its grace
//     period.
//   * Values are stored in a std::atomic<V> (V must be trivially copyable)
//     so upserts can update in place, mirroring the JDK's volatile value
//     reference. Because the mark bit and the value live in different
//     words, a per-node `vsync` word serializes in-place writes against
//     logical removal: writers claim it (odd count), removers set a dead
//     bit and wait out any active writer before reading the value they
//     return. Without this handshake a remover can return a value whose
//     upsert then retries and reports "new" — a non-linearizable pair (the
//     testkit's history checker finds this in seconds; see DESIGN.md
//     "Testing the protocols").
//
// Keys must be totally ordered (std::less), like ConcurrentSkipListMap's.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "mr/epoch.hpp"
#include "mr/node_pool.hpp"
#include "obs/inventory.hpp"
#include "obs/trace.hpp"
#include "testkit/chaos.hpp"
#include "util/rng.hpp"
#include "util/spinwait.hpp"

namespace cachetrie::csl {

template <typename K, typename V, typename Compare = std::less<K>,
          typename Reclaimer = mr::EpochReclaimer>
class ConcurrentSkipList {
  static_assert(std::is_trivially_copyable_v<V>,
                "skip list values are stored in std::atomic<V>");

 public:
  static constexpr int kMaxLevel = 24;  // supports ~16M keys at p=1/2

 private:
  // vsync bits: bit 63 = logically removed (the removal's linearization
  // point); low bits = writer claim counter, odd while an in-place value
  // update is in flight.
  static constexpr std::uint64_t kDead = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kWriter = 1;

  struct Node {
    K key;
    std::atomic<V> value;
    std::atomic<std::uint64_t> vsync;
    int top_level;  // highest level this node is linked at (0-based)
    bool is_head;

    std::atomic<std::uintptr_t>* next() noexcept {
      return reinterpret_cast<std::atomic<std::uintptr_t>*>(this + 1);
    }
    const std::atomic<std::uintptr_t>* next() const noexcept {
      return reinterpret_cast<const std::atomic<std::uintptr_t>*>(this + 1);
    }

    static constexpr std::size_t alloc_size(int top_level) noexcept {
      return sizeof(Node) +
             static_cast<std::size_t>(top_level + 1) *
                 sizeof(std::atomic<std::uintptr_t>);
    }

    static Node* make(const K& key, const V& value, int top_level,
                      bool is_head = false) {
      void* raw =
          mr::NodePool::allocate(alloc_size(top_level), alignof(Node));
      auto* n = new (raw) Node{key, {}, {}, top_level, is_head};
      n->value.store(value, std::memory_order_relaxed);
      for (int i = 0; i <= top_level; ++i) {
        std::construct_at(n->next() + i, std::uintptr_t{0});
      }
      return n;
    }

    static void destroy(Node* n) noexcept {
      const std::size_t bytes = alloc_size(n->top_level);
      n->~Node();
      mr::NodePool::deallocate(n, bytes, alignof(Node));
    }
    static void destroy_erased(void* n) { destroy(static_cast<Node*>(n)); }
  };

  static Node* ptr_of(std::uintptr_t t) noexcept {
    return reinterpret_cast<Node*>(t & ~std::uintptr_t{1});
  }
  static bool marked(std::uintptr_t t) noexcept { return (t & 1) != 0; }
  static std::uintptr_t pack(Node* p, bool mark) noexcept {
    return reinterpret_cast<std::uintptr_t>(p) | (mark ? 1 : 0);
  }

 public:
  /// Bytes of the tallest node (the head); the header sweep checks that every
  /// node of the instantiated lists fits a pool size class.
  static constexpr std::size_t kMaxNodeBytes = Node::alloc_size(kMaxLevel - 1);

  ConcurrentSkipList() {
    head_ = Node::make(K{}, V{}, kMaxLevel - 1, /*is_head=*/true);
  }

  ConcurrentSkipList(const ConcurrentSkipList&) = delete;
  ConcurrentSkipList& operator=(const ConcurrentSkipList&) = delete;

  ~ConcurrentSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = ptr_of(n->next()[0].load(std::memory_order_relaxed));
      Node::destroy(n);
      n = nx;
    }
  }

  /// Inserts or replaces. Returns true iff the key was new.
  bool insert(const K& key, const V& value) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    // Fault site: victim parks inside the guard before touching the list —
    // the stall-tolerant reclaimer's worst case (testkit/fault.hpp).
    testkit::chaos_point("csl.pinned");
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    while (true) {
      if (find(key, preds, succs)) {
        Node* found = succs[0];
        if (!write_in_place(found, value)) {
          // Logically dead: the remover linearized before us. Help the
          // physical marks along so our retry's find() snips the corpse,
          // then insert a fresh node.
          help_mark(found);
          continue;
        }
        return false;
      }
      const int top = random_level();
      Node* n = Node::make(key, value, top);
      n->next()[0].store(pack(succs[0], false), std::memory_order_relaxed);
      for (int lev = 1; lev <= top; ++lev) {
        n->next()[lev].store(pack(succs[lev], false),
                             std::memory_order_relaxed);
      }
      std::uintptr_t expected = pack(succs[0], false);
      testkit::chaos_point("csl.link_bottom");
      if (!head_level_cas(preds[0], 0, expected, pack(n, false))) {
        Node::destroy(n);  // never published
        obs::sites::csl_cas_retry.add();
        continue;
      }
      link_upper_levels(n, top, key, preds, succs);
      return true;
    }
  }

  bool put_if_absent(const K& key, const V& value) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("csl.pinned");
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    while (true) {
      if (find(key, preds, succs)) {
        // [acquires: CSL_VSYNC]
        if (succs[0]->vsync.load(std::memory_order_seq_cst) & kDead) {
          // Found only the corpse of a concurrent removal: from our view
          // the key is absent, so behave like the not-found path would.
          help_mark(succs[0]);
          continue;
        }
        return false;
      }
      const int top = random_level();
      Node* n = Node::make(key, value, top);
      for (int lev = 0; lev <= top; ++lev) {
        n->next()[lev].store(pack(succs[lev], false),
                             std::memory_order_relaxed);
      }
      std::uintptr_t expected = pack(succs[0], false);
      testkit::chaos_point("csl.link_bottom");
      if (!head_level_cas(preds[0], 0, expected, pack(n, false))) {
        Node::destroy(n);
        obs::sites::csl_cas_retry.add();
        continue;
      }
      link_upper_levels(n, top, key, preds, succs);
      return true;
    }
  }

  std::optional<V> lookup(const K& key) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("csl.pinned");
    // Wait-free traversal (Herlihy–Shavit contains): never snips, never
    // restarts, but also never trusts a marked node — corpses are skipped
    // via their (frozen) forward pointer and never become `pred`, because a
    // marked node's pointers are stale: descending through one can step
    // over nodes inserted after it was unlinked and report a false absent.
    const Node* pred = head_;
    const Node* curr = nullptr;
    for (int lev = kMaxLevel - 1; lev >= 0; --lev) {
      curr = ptr_of(pred->next()[lev].load(std::memory_order_seq_cst));
      while (curr != nullptr) {
        // [acquires: CSL_MARK]
        std::uintptr_t succ_t =
            curr->next()[lev].load(std::memory_order_seq_cst);
        while (marked(succ_t)) {  // skip corpses without adopting them
          curr = ptr_of(succ_t);
          if (curr == nullptr) break;
          succ_t = curr->next()[lev].load(std::memory_order_seq_cst);
        }
        if (curr == nullptr) break;
        if (less_(curr->key, key)) {
          pred = curr;
          curr = ptr_of(succ_t);
        } else {
          break;
        }
      }
    }
    if (curr == nullptr || less_(key, curr->key) || less_(curr->key, key)) {
      return std::nullopt;
    }
    // Unmarked when scanned; the dead bit catches removals whose physical
    // mark hasn't landed yet.
    if (curr->vsync.load(std::memory_order_seq_cst) & kDead) {
      return std::nullopt;
    }
    return curr->value.load(std::memory_order_seq_cst);
  }

  bool contains(const K& key) const { return lookup(key).has_value(); }

  std::optional<V> remove(const K& key) {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    testkit::chaos_point("csl.pinned");
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (!find(key, preds, succs)) return std::nullopt;
    Node* victim = succs[0];
    // Claim the logical removal through vsync: set the dead bit, waiting
    // out any in-flight in-place writer first. Winning this CAS is the
    // linearization point, and it makes the value we read below exact — no
    // writer can start once the dead bit is up, and none was mid-store when
    // it went up.
    std::uint64_t s = victim->vsync.load(std::memory_order_seq_cst);
    util::Backoff backoff;
    while (true) {
      if (s & kDead) return std::nullopt;  // another remover won
      if (s & kWriter) {  // writer active: back off until it releases
        backoff.pause();
        s = victim->vsync.load(std::memory_order_seq_cst);
        continue;
      }
      testkit::chaos_point("csl.mark_bottom");
      // [publishes: CSL_VSYNC]
      if (victim->vsync.compare_exchange_weak(s, s | kDead,
                                              std::memory_order_seq_cst,
                                              std::memory_order_seq_cst)) {
        obs::trace::emit(obs::trace::EventId::kCslMarkBottom, key,
                         victim->top_level);
        break;
      }
    }
    const V out = victim->value.load(std::memory_order_seq_cst);
    // Logically removed but not yet physically marked/unlinked — the window
    // every traversal and racing insert must tolerate.
    testkit::chaos_point("csl.unlink");
    help_mark(victim);
    // Physically unlink everywhere, then retire: after this find() the
    // node is unreachable (inserts that could have re-linked a marked
    // successor re-run find themselves — see link_upper_levels).
    find(key, preds, succs);
    Reclaimer::retire_raw_sized(victim, &Node::destroy_erased,
                                Node::alloc_size(victim->top_level));
    return out;
  }

  std::size_t size() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    std::size_t n = 0;
    for (Node* curr = ptr_of(head_->next()[0].load(std::memory_order_acquire));
         curr != nullptr;
         curr = ptr_of(curr->next()[0].load(std::memory_order_acquire))) {
      if (!marked(curr->next()[0].load(std::memory_order_acquire))) ++n;
    }
    return n;
  }

  bool empty() const { return size() == 0; }

  template <typename F>
  void for_each(F&& fn) const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    for (Node* curr = ptr_of(head_->next()[0].load(std::memory_order_acquire));
         curr != nullptr;
         curr = ptr_of(curr->next()[0].load(std::memory_order_acquire))) {
      if (!marked(curr->next()[0].load(std::memory_order_acquire))) {
        fn(curr->key, curr->value.load(std::memory_order_acquire));
      }
    }
  }

  std::size_t footprint_bytes() const {
    [[maybe_unused]] auto guard = Reclaimer::pin();
    std::size_t bytes = sizeof(*this) + Node::alloc_size(kMaxLevel - 1);
    for (Node* curr = ptr_of(head_->next()[0].load(std::memory_order_acquire));
         curr != nullptr;
         curr = ptr_of(curr->next()[0].load(std::memory_order_acquire))) {
      bytes += Node::alloc_size(curr->top_level);
    }
    return bytes;
  }

  /// Quiescent invariant check: strictly sorted bottom level, no marks, and
  /// every upper-level list is a sublist of the bottom one.
  std::vector<std::string> debug_validate() const {
    std::vector<std::string> issues;
    const Node* prev = nullptr;
    for (const Node* curr =
             ptr_of(head_->next()[0].load(std::memory_order_acquire));
         curr != nullptr;
         curr = ptr_of(curr->next()[0].load(std::memory_order_acquire))) {
      if (marked(curr->next()[0].load(std::memory_order_acquire))) {
        issues.push_back("marked node in quiescent skip list");
      }
      if (prev != nullptr && !less_(prev->key, curr->key)) {
        issues.push_back("bottom level not strictly sorted");
      }
      prev = curr;
    }
    for (int lev = 1; lev < kMaxLevel; ++lev) {
      for (const Node* curr =
               ptr_of(head_->next()[lev].load(std::memory_order_acquire));
           curr != nullptr;
           curr = ptr_of(curr->next()[lev].load(std::memory_order_acquire))) {
        if (curr->top_level < lev) {
          issues.push_back("node linked above its top level");
        }
      }
    }
    return issues;
  }

 private:
  bool head_level_cas(Node* pred, int lev, std::uintptr_t& expected,
                      std::uintptr_t desired) {
    // [publishes: CSL_LINK]
    return pred->next()[lev].compare_exchange_strong(
        expected, desired, std::memory_order_seq_cst,
        std::memory_order_seq_cst);
  }

  /// Serializes an in-place value update against logical removal: claim the
  /// writer bit (odd vsync), store, release. Returns false iff the node is
  /// dead — the remover linearized first and the caller must treat the key
  /// as absent (insert a fresh node instead of resurrecting the corpse).
  static bool write_in_place(Node* n, const V& value) {
    std::uint64_t s = n->vsync.load(std::memory_order_seq_cst);
    util::Backoff backoff;
    while (true) {
      if (s & kDead) return false;
      if (s & kWriter) {  // another writer mid-store: back off until free
        backoff.pause();
        s = n->vsync.load(std::memory_order_seq_cst);
        continue;
      }
      if (n->vsync.compare_exchange_weak(s, s + kWriter,
                                         std::memory_order_seq_cst,
                                         std::memory_order_seq_cst)) {
        break;
      }
    }
    n->value.store(value, std::memory_order_seq_cst);
    n->vsync.store(s + 2, std::memory_order_seq_cst);
    return true;
  }

  /// Publishes the physical marks of a logically dead node at EVERY level,
  /// top-down, so find() can snip it wherever it is linked. Idempotent;
  /// called by the dead-bit winner and by any thread that trips over the
  /// corpse. Marking must cover all levels and finish with the bottom:
  /// helping only the bottom level leaves a window where the dead-bit
  /// winner has stalled before its own upper marks, yet the corpse is
  /// already bottom-marked — still reachable through the unmarked upper
  /// levels, where descents adopt it as pred. Its bottom pointer is frozen
  /// by the mark, so snip CASes against it fail forever (find() livelocks)
  /// and lookups descending through it can step past nodes inserted after
  /// the freeze and report a false absent. The top-down order restores the
  /// invariant "bottom-marked implies marked everywhere above".
  static void help_mark(Node* n) {
    obs::sites::csl_help_mark.add();
    obs::trace::emit(obs::trace::EventId::kCslHelpMark,
                     reinterpret_cast<std::uintptr_t>(n), n->top_level);
    for (int lev = n->top_level; lev >= 1; --lev) {
      testkit::chaos_point("csl.mark_upper");
      std::uintptr_t t = n->next()[lev].load(std::memory_order_seq_cst);
      while (!marked(t)) {
        // [publishes: CSL_MARK]
        if (n->next()[lev].compare_exchange_weak(t, t | 1,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_seq_cst)) {
          break;
        }
      }
    }
    std::uintptr_t t = n->next()[0].load(std::memory_order_seq_cst);
    while (!marked(t)) {
      if (n->next()[0].compare_exchange_weak(t, t | 1,
                                             std::memory_order_seq_cst,
                                             std::memory_order_seq_cst)) {
        break;
      }
    }
  }

  /// Links levels 1..top of a freshly inserted node. The node's own next
  /// pointers are updated with CAS so a concurrent removal's mark is never
  /// overwritten; if the node got marked, linking stops (the remover's find
  /// unlinks whatever was already linked).
  void link_upper_levels(Node* n, int top, const K& key, Node** preds,
                         Node** succs) {
    bool resnip = false;
    for (int lev = 1; lev <= top; ++lev) {
      while (true) {
        std::uintptr_t own = n->next()[lev].load(std::memory_order_seq_cst);
        if (marked(own)) return;  // being removed; abandon the upper levels
        if (ptr_of(own) != succs[lev]) {
          // Align our forward pointer with the current successor first.
          if (!n->next()[lev].compare_exchange_strong(
                  own, pack(succs[lev], false), std::memory_order_seq_cst,
                  std::memory_order_seq_cst)) {
            continue;
          }
        }
        std::uintptr_t expected = pack(succs[lev], false);
        testkit::chaos_point("csl.link_upper");
        if (preds[lev]->next()[lev].compare_exchange_strong(
                expected, pack(n, false), std::memory_order_seq_cst,
                std::memory_order_seq_cst)) {
          // Re-check for the resurrection race: if the successor we just
          // published was marked meanwhile, a remover may already have
          // finished its unlink pass — snip it ourselves via find().
          if (succs[lev] != nullptr &&
              marked(succs[lev]->next()[lev].load(std::memory_order_seq_cst))) {
            resnip = true;
          }
          break;
        }
        // Predecessor changed: recompute the neighborhood.
        obs::sites::csl_cas_retry.add();
        if (find(key, preds, succs)) {
          if (succs[0] != n) return;  // our node vanished (removed)
        } else {
          return;  // removed entirely
        }
      }
    }
    if (resnip) {
      find(key, preds, succs);
    }
  }

  /// Herlihy–Shavit find: locates the neighborhood of `key` on every level,
  /// snipping marked nodes along the way. Returns true iff an unmarked node
  /// with the key sits at the bottom level.
  bool find(const K& key, Node** preds, Node** succs) {
  retry:
    Node* pred = head_;
    for (int lev = kMaxLevel - 1; lev >= 0; --lev) {
      // [acquires: CSL_LINK]
      Node* curr = ptr_of(pred->next()[lev].load(std::memory_order_seq_cst));
      while (true) {
        if (curr == nullptr) break;
        std::uintptr_t succ_t =
            curr->next()[lev].load(std::memory_order_seq_cst);
        while (marked(succ_t)) {
          // curr is logically removed: unlink it at this level.
          std::uintptr_t expected = pack(curr, false);
          if (!pred->next()[lev].compare_exchange_strong(
                  expected, pack(ptr_of(succ_t), false),
                  std::memory_order_seq_cst, std::memory_order_seq_cst)) {
            obs::sites::csl_cas_retry.add();
            goto retry;
          }
          curr = ptr_of(succ_t);
          if (curr == nullptr) break;
          succ_t = curr->next()[lev].load(std::memory_order_seq_cst);
        }
        if (curr == nullptr) break;
        if (less_(curr->key, key)) {
          pred = curr;
          curr = ptr_of(succ_t);
        } else {
          break;
        }
      }
      preds[lev] = pred;
      succs[lev] = curr;
    }
    return succs[0] != nullptr && !less_(key, succs[0]->key) &&
           !less_(succs[0]->key, key);
  }

  /// Geometric level distribution, p = 1/2.
  int random_level() {
    const std::uint64_t r = util::thread_rng().next();
    int lev = 0;
    while (lev < kMaxLevel - 1 && ((r >> lev) & 1) != 0) ++lev;
    return lev;
  }

  Compare less_{};
  Node* head_;
};

}  // namespace cachetrie::csl
