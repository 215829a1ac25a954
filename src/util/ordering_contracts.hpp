// ordering_contracts.hpp — the repo's publication-edge table.
//
// Part of the cache-trie reproduction (Prokopec, PPoPP'18).
//
// Every cross-thread happens-before edge the protocol relies on is declared
// here by name, X-macro style (same idiom as obs/trace_events.hpp). The
// release side of an edge carries a `// [publishes: <EDGE>]` comment on
// the atomic operation that makes the data visible, the acquire side a
// `// [acquires: <EDGE>]` comment on the operation that synchronizes
// with it.
// scripts/protocol_lint.py cross-checks the table against the annotations:
// every declared edge must have at least one site on each side, no
// annotation may name an undeclared edge, and a relaxed load can never be
// an acquire side. The table is the contract; the annotations are the
// evidence. See DESIGN.md §2f.
//
// Naming: CT_* cachetrie, CTRIE_* ctrie, CHM_* chashmap, CSL_* skiplist,
// EPOCH_*/MR_* memory reclamation, TRACE_* flight recorder, TK_*
// testkit. The second argument is prose: what data the edge publishes and
// which paper/DESIGN section owns the argument.
//
// The bounded-memory mode (DESIGN.md §3) adds NO edges to this table, by
// design: its eviction CASes are ordinary txn announce/commit steps and
// ride CT_TXN / CT_SLOT_COMMIT unchanged, while the per-leaf stamp word,
// the operation tick, and the resident-bytes ledger are relaxed *advisory*
// state — a torn or stale read can at worst evict the wrong victim or run
// one extra backpressure scan, never violate linearizability or leak a
// node. Advisory words must stay relaxed and unannotated; promoting one to
// an edge here would claim a synchronization role the protocol neither
// needs nor provides.
#pragma once

#include <cstddef>

// clang-format off
#define CACHETRIE_ORDERING_EDGES(X)                                          \
  /* --- cachetrie (paper §3.1-§3.5) --- */                                  \
  X(CT_TXN,           "txn-word CAS announces a replacement SNode; helpers " \
                      "and freezers read it to commit exactly that value")   \
  X(CT_SLOT_COMMIT,   "parent-slot CAS publishes a fully initialized node "  \
                      "(SNode/ANode/LNode/ENode) into the trie")             \
  X(CT_FREEZE,        "freeze CAS publishes fv/fs/FNode markers; copiers "   \
                      "read the frozen array knowing it is immutable")       \
  X(CT_ENODE_RESULT,  "en->result CAS publishes the replacement array "      \
                      "built by the expansion/compression winner")           \
  X(CT_CACHE_HEAD,    "cache_head_ CAS publishes a freshly built "           \
                      "CacheArray and its parent chain")                     \
  X(CT_CACHE_INSTALL, "cache-entry store + seq_cst fence vs "                \
                      "clear_cache_refs' fence + read: the Dekker pair "     \
                      "that stops stale entries resurrecting dead nodes")    \
  /* --- ctrie (Prokopec et al., the GCAS protocol) --- */                   \
  X(CTRIE_GCAS,       "INode main CAS publishes the new CNode/TNode/LNode "  \
                      "generation; every descent reads main with acquire")   \
  /* --- chashmap (lock-striped baseline) --- */                             \
  X(CHM_BIN_LOCK,     "bin unlock store(0, release) publishes the bin "      \
                      "mutation to the next lock winner's acquire CAS")      \
  X(CHM_BIN_LINK,     "lock-free head CAS publishes a fresh Node into an "   \
                      "empty bin for lock-free readers")                     \
  X(CHM_TABLE_PUBLISH,"table_ CAS publishes the resized table after the "    \
                      "transfer completes")                                  \
  X(CHM_FORWARD,      "marker CAS publishes the ForwardNode that redirects " \
                      "readers of transferred bins to the next table")       \
  /* --- skiplist (Herlihy-Shavit, all-seq_cst discipline) --- */            \
  X(CSL_LINK,         "level-0 link CAS publishes the node and its "         \
                      "pre-initialized forward pointers")                    \
  X(CSL_MARK,         "mark CAS publishes the per-level delete bit that "    \
                      "find()/lookup() use to skip corpses")                 \
  X(CSL_VSYNC,        "vsync dead-bit CAS serializes in-place value "        \
                      "updates against logical removal")                     \
  /* --- mr (epoch reclamation) --- */                                      \
  X(EPOCH_PIN,        "seq_cst pin store vs try_advance's seq_cst state "    \
                      "read: the Dekker pair behind grace periods")          \
  X(EPOCH_FLIP,       "global epoch CAS publishes the flip; pins and "       \
                      "retires stamp themselves against it")                 \
  X(MR_RECORD_LINK,   "thread-record push CAS publishes the immortal "       \
                      "record for scanners traversing the registry")         \
  X(MR_ORPHANS,       "orphan-batch CAS publishes limbo lists abandoned "    \
                      "by exited threads to the adopting thread")            \
  /* --- obs (flight recorder) --- */                                        \
  X(TRACE_RING_PUBLISH, "ring-registry push CAS publishes a thread's ring "  \
                      "to snapshot/clear/post-mortem iteration")             \
  X(TRACE_SEQLOCK,    "per-slot seqlock: odd/even seq store(release) vs "    \
                      "reader's seq load(acquire) + acquire fence")          \
  /* --- testkit --- */                                                      \
  X(TK_CHAOS_ENABLE,  "chaos enable store publishes schedule-perturbation "  \
                      "config to every chaos_point")                         \
  X(TK_FAULT_PLAN,    "fault-plan store publishes the armed PlanState to "   \
                      "every fault_point")                                   \
  X(TK_WATCHDOG_STOP, "stop store publishes the shutdown request to the "    \
                      "watchdog thread")                                     \
  /* --- net (serving layer, DESIGN.md §4) --- */                            \
  X(NET_REPLY_PUBLISH,"client slot: receiver's done-word store(release) "    \
                      "publishes the reply payload (status/value/flags, "    \
                      "relaxed stores sequenced before it) to the waiter's " \
                      "done-word load(acquire)")                             \
  X(NET_SHED_FLAG,    "shard overload flag store(release) publishes the "    \
                      "relaxed pressure counters behind it to the "          \
                      "acceptor's load(acquire) for least-loaded routing")   \
  X(NET_DRAIN,        "server stop store(release) publishes the drain "      \
                      "request to every shard loop; each shard's drained "   \
                      "store(release) publishes its final stats back to "    \
                      "the joiner")
// clang-format on

namespace cachetrie::util {

/// Edge identifiers, generated from the table. Useful for tooling that
/// wants to reason about edges programmatically; the linter itself parses
/// the X-macro text.
enum class OrderingEdge : unsigned {
#define CACHETRIE_EDGE_ENUM(name, desc) name,
  CACHETRIE_ORDERING_EDGES(CACHETRIE_EDGE_ENUM)
#undef CACHETRIE_EDGE_ENUM
      kCount
};

struct OrderingEdgeInfo {
  const char* name;
  const char* contract;
};

inline constexpr OrderingEdgeInfo kOrderingEdges[] = {
#define CACHETRIE_EDGE_INFO(name, desc) {#name, desc},
    CACHETRIE_ORDERING_EDGES(CACHETRIE_EDGE_INFO)
#undef CACHETRIE_EDGE_INFO
};

inline constexpr std::size_t kOrderingEdgeCount =
    sizeof(kOrderingEdges) / sizeof(kOrderingEdges[0]);

static_assert(kOrderingEdgeCount ==
                  static_cast<std::size_t>(OrderingEdge::kCount),
              "edge table and enum drifted apart");

constexpr const OrderingEdgeInfo& ordering_edge_info(OrderingEdge e) {
  return kOrderingEdges[static_cast<unsigned>(e)];
}

}  // namespace cachetrie::util
