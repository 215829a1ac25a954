// Fixture: in a cache-trie directory every node is made, retired and freed
// through the trie's make(), retire() and discard(), which book its byte
// ledger. A node's own make/destroy, a delete, or a reclaimer retire called
// anywhere else bypasses the ledger and is a finding.
#pragma once

namespace fixture {

struct Reclaimer {
  struct Guard {};
  static Guard pin();
  template <class T>
  static void retire(T* p);
};

struct SNode {
  static SNode* make(int k);
};

struct ANode {
  static ANode* make(int len);
  static void destroy(ANode* a);
};

// [smr: caller-pinned] -- the guard is held by the public entry point.
inline SNode* replace(SNode* old_node, int k) {
  SNode* fresh = SNode::make(k);  // expect: smr.lifecycle-bypass
  Reclaimer::template retire<SNode>(old_node);  // expect: smr.lifecycle-bypass
  return fresh;
}

inline void lost_race(ANode* a, SNode* s) {
  ANode::destroy(a);  // expect: smr.lifecycle-bypass
  delete s;  // [delete: unpublished] expect: smr.lifecycle-bypass
}

}  // namespace fixture
