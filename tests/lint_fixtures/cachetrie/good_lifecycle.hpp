// Fixture: the cache-trie node lifecycle. Only make(), retire(), discard()
// and node_bytes() touch a node's own make/destroy, delete a node or hand
// one to the reclaimer; everything else calls them. Must pass clean.
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

struct Trie {
  static int node_bytes(const SNode*) { return sizeof(SNode); }

  SNode* make(int k) { return SNode::make(k); }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void retire(SNode* s) { Reclaimer::template retire<SNode>(s); }

  void discard(ANode* a) { ANode::destroy(a); }
  void discard(SNode* s) {
    delete s;  // [delete: unpublished] -- lost its race
  }

  // [smr: caller-pinned] -- the guard is held by the public entry point.
  void replace(SNode* old_node, ANode* lost, int k) {
    SNode* fresh = make(k);
    discard(lost);
    retire(old_node);
    (void)fresh;
  }
};

}  // namespace fixture
