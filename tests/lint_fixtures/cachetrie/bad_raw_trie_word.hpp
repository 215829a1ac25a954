// Fixture: trie words reached around the codec. A slot, txn, result or
// cache word is an AtomicRef; declaring or casting to a raw word or a raw
// node pointer elsewhere drops the tag that travels with the pointer. The
// codec class may hold the raw word and forward its callers' orders.
#pragma once

#include <atomic>
#include <cstdint>

namespace fixture {

using Word = std::uintptr_t;
struct NodeBase {};

// [codec] -- the fixture's one codec.
class AtomicRef {
 public:
  Word load(std::memory_order order) const { return w_.load(order); }
  bool compare_exchange_strong(Word& expected, Word desired,
                               std::memory_order success,
                               std::memory_order failure) {
    return w_.compare_exchange_strong(expected, desired, success, failure);
  }

 private:
  std::atomic<Word> w_{0};
};

struct SNode {
  AtomicRef txn;                      // through the codec: clean
  std::atomic<std::uint64_t> stamp;   // not a trie word: clean
  std::atomic<NodeBase*> replaced;    // expect: codec.raw-word
};

struct ANode {
  std::atomic<Word> raw[4];  // expect: codec.raw-word
  Word peek_slot(int i) {
    return reinterpret_cast<std::atomic<Word>*>(this)[i].load(  // expect: codec.raw-word
        std::memory_order_acquire);
  }
  Word address() const {
    return reinterpret_cast<std::uintptr_t>(this);  // expect: codec.raw-word
  }
  std::uint64_t* stamp_word() {
    return reinterpret_cast<std::uint64_t*>(this);  // not a trie word: clean
  }
};

}  // namespace fixture
