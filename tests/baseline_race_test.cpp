// baseline_race_test.cpp — every lost-CAS branch of the Ctrie and skip-list
// baselines, forced deterministically.
//
// Each case parks a victim operation forever at the chaos site right before
// its commit CAS (fault::Plan::stall(site, kForever, thread 1)), runs an
// intruder operation on thread 0 that changes the word the victim is about
// to CAS, then releases the victim. The victim must lose its CAS, tear down
// whatever it built (the teardown paths are otherwise reached only by rare
// schedules), retry, and finish. Afterwards the map must match a std::map
// model, pass debug_validate(), and — when metrics are compiled in — show
// the counter that proves the victim lost: ctrie.gcas.retry for the Ctrie
// sites, csl.cas.retry at csl.link_bottom, csl.help_mark for the corpse an
// intruder finds behind a parked remover.
//
// Ctrie keys are placed through DegradedHash<15>: hashes are 15 bits (three
// trie levels), so the tests pick keys that share a full hash (collision
// chains), share the root and level-1 slots (a CNode two levels down), share
// only the root slot (growth under a fresh INode) or differ at the root.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "ctrie/ctrie.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "skiplist/skiplist.hpp"
#include "testkit/chaos.hpp"
#include "testkit/fault.hpp"
#include "util/hashing.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using tk::Site;
namespace sites = cachetrie::obs::sites;
using namespace std::chrono_literals;

using Hash = cachetrie::util::DegradedHash<15>;
using Ctrie = cachetrie::ctrie::Ctrie<std::uint64_t, std::uint64_t, Hash>;
using Csl = cachetrie::csl::ConcurrentSkipList<std::uint64_t, std::uint64_t>;
using Model = std::map<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kSeed = 0xbace1157ULL;

/// fault::lose_race at this file's seed; the victim must reach `site`.
void lose_race(Site site, const std::function<void()>& victim,
               const std::function<void()>& intruder) {
  EXPECT_TRUE(fault::lose_race(kSeed, site, victim, intruder))
      << "victim never reached " << tk::name(site);
}

/// Delta of a counter row across a scope; 0 in a metrics-off build.
template <typename Row>
struct CounterDelta {
  const Row& row;
  std::uint64_t start = row.total();
  std::uint64_t rose() const { return row.total() - start; }
};

void expect_rose(std::uint64_t delta, const char* counter) {
  if constexpr (cachetrie::obs::kMetricsCompiled) {
    EXPECT_GT(delta, 0u) << counter << " did not count the lost CAS";
  }
}

template <typename Map>
void expect_matches(const Map& map, const Model& model) {
  EXPECT_EQ(map.size(), model.size());
  for (const auto& [k, v] : model) {
    EXPECT_EQ(map.lookup(k), std::optional<std::uint64_t>(v)) << "key " << k;
  }
  Model seen;
  map.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    seen.emplace(k, v);
  });
  EXPECT_EQ(seen, model);
  const auto issues = map.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

// --- Ctrie key placement ---------------------------------------------------

std::uint64_t hash_of(std::uint64_t k) { return Hash{}(k); }
std::uint32_t root_slot(std::uint64_t h) { return h & 31; }
std::uint32_t level1_slot(std::uint64_t h) { return (h >> 5) & 31; }

/// Smallest key not in `used` whose hash satisfies `pred`; recorded in
/// `used` so later picks stay distinct.
template <typename Pred>
std::uint64_t pick(std::set<std::uint64_t>& used, Pred pred) {
  for (std::uint64_t k = 1;; ++k) {
    if (used.count(k) == 0 && pred(hash_of(k))) {
      used.insert(k);
      return k;
    }
  }
}

/// Keys for the Ctrie cases: `a` anchors a root slot; `same_hash` share a's
/// full hash; `same_l1` shares a's root and level-1 slots but not its hash;
/// `same_root` share a's root slot and differ at level 1 from a and each
/// other; `other_root` sits in a different root slot.
struct Keys {
  std::set<std::uint64_t> used;
  std::uint64_t a = pick(used, [](std::uint64_t) { return true; });
  std::uint64_t same_hash[3] = {same_hash_key(), same_hash_key(),
                                same_hash_key()};
  std::uint64_t same_l1 = pick(used, [&](std::uint64_t h) {
    return h != hash_of(a) && root_slot(h) == slot(a) &&
           level1_slot(h) == level1_slot(hash_of(a));
  });
  std::uint64_t same_root[2] = {same_root_key(), same_root_key()};
  std::uint64_t other_root =
      pick(used, [&](std::uint64_t h) { return root_slot(h) != slot(a); });

  static std::uint32_t slot(std::uint64_t k) { return root_slot(hash_of(k)); }
  std::uint64_t same_hash_key() {
    return pick(used, [&](std::uint64_t h) { return h == hash_of(a); });
  }
  std::uint64_t same_root_key() {
    return pick(used, [&](std::uint64_t h) {
      if (root_slot(h) != slot(a)) return false;
      for (std::uint64_t k : used) {
        if (root_slot(hash_of(k)) == slot(a) &&
            level1_slot(hash_of(k)) == level1_slot(h)) {
          return false;
        }
      }
      return true;
    });
  }
};

/// The key search walks tens of thousands of hashes: do it once.
const Keys& keys() {
  static const Keys k;
  return k;
}

/// Runs one Ctrie case at `site`: `victim` loses to `intruder`, and the map
/// must equal `model` afterwards.
void ctrie_case(Site site, Ctrie& map, const Model& model,
                const std::function<void()>& victim,
                const std::function<void()>& intruder) {
  CounterDelta retry{sites::ctrie_gcas_retry};
  lose_race(site, victim, intruder);
  expect_rose(retry.rose(), "ctrie.gcas.retry");
  expect_matches(map, model);
}

TEST(BaselineRace, CtrieEmptySlotInsertLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  Model model{{k.a, 1}, {k.other_root, 2}};
  ctrie_case(
      Site::ctrie_gcas, map, model, [&] { EXPECT_TRUE(map.insert(k.a, 1)); },
      [&] { EXPECT_TRUE(map.insert(k.other_root, 2)); });
}

TEST(BaselineRace, CtrieSameKeyReplaceLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  Model model{{k.a, 10}, {k.other_root, 2}};
  ctrie_case(
      Site::ctrie_gcas, map, model, [&] { EXPECT_FALSE(map.insert(k.a, 10)); },
      [&] { EXPECT_TRUE(map.insert(k.other_root, 2)); });
}

TEST(BaselineRace, CtrieGrowthUnderFreshINodeLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  Model model{{k.a, 1}, {k.same_root[0], 3}, {k.other_root, 2}};
  ctrie_case(
      Site::ctrie_gcas, map, model,
      [&] { EXPECT_TRUE(map.insert(k.same_root[0], 3)); },
      [&] { EXPECT_TRUE(map.insert(k.other_root, 2)); });
}

TEST(BaselineRace, CtrieGrowthIntoChainLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  Model model{{k.a, 1}, {k.same_hash[0], 3}, {k.other_root, 2}};
  ctrie_case(
      Site::ctrie_gcas, map, model,
      [&] { EXPECT_TRUE(map.put_if_absent(k.same_hash[0], 3)); },
      [&] { EXPECT_TRUE(map.insert(k.other_root, 2)); });
}

TEST(BaselineRace, CtrieChainUpsertLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_hash[0], 2));
  Model model{{k.a, 10}, {k.same_hash[0], 2}, {k.same_hash[1], 3}};
  ctrie_case(
      Site::ctrie_gcas, map, model, [&] { EXPECT_FALSE(map.insert(k.a, 10)); },
      [&] { EXPECT_TRUE(map.insert(k.same_hash[1], 3)); });
}

TEST(BaselineRace, CtrieChainSplitLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_hash[0], 2));
  Model model{{k.a, 1},
              {k.same_hash[0], 2},
              {k.same_hash[1], 3},
              {k.same_root[0], 4}};
  // The victim's key shares only the chain's root slot: branch_lnode_apart
  // pushes the chain one level down. The intruder grows the chain first.
  ctrie_case(
      Site::ctrie_gcas, map, model,
      [&] { EXPECT_TRUE(map.insert(k.same_root[0], 4)); },
      [&] { EXPECT_TRUE(map.insert(k.same_hash[1], 3)); });
}

TEST(BaselineRace, CtrieRemoveLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  Model model{{k.other_root, 2}};
  // At the root a remove never entombs: the victim built a plain CNode.
  ctrie_case(
      Site::ctrie_gcas, map, model,
      [&] { EXPECT_EQ(map.remove(k.a), std::optional<std::uint64_t>(1)); },
      [&] { EXPECT_TRUE(map.insert(k.other_root, 2)); });
}

TEST(BaselineRace, CtrieEntombingRemoveLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_root[0], 2));
  Model model{{k.same_root[0], 2}, {k.same_root[1], 3}};
  // Removing a from the two-SNode CNode below the root would entomb the
  // other SNode; the intruder adds a third branch to that CNode first.
  ctrie_case(
      Site::ctrie_gcas, map, model,
      [&] { EXPECT_EQ(map.remove(k.a), std::optional<std::uint64_t>(1)); },
      [&] { EXPECT_TRUE(map.insert(k.same_root[1], 3)); });
}

TEST(BaselineRace, CtrieChainRemoveLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_hash[0], 2));
  ASSERT_TRUE(map.insert(k.same_hash[1], 3));
  Model model{{k.same_hash[0], 2}, {k.same_hash[1], 3}, {k.same_hash[2], 4}};
  ctrie_case(
      Site::ctrie_gcas, map, model,
      [&] { EXPECT_EQ(map.remove(k.a), std::optional<std::uint64_t>(1)); },
      [&] { EXPECT_TRUE(map.insert(k.same_hash[2], 4)); });
}

TEST(BaselineRace, CtrieChainRemoveToTombLosesAtGcas) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_hash[0], 2));
  Model model{{k.same_hash[0], 2}, {k.same_hash[1], 3}};
  // Removing a from a two-pair chain would leave a TNode; the intruder
  // grows the chain first.
  ctrie_case(
      Site::ctrie_gcas, map, model,
      [&] { EXPECT_EQ(map.remove(k.a), std::optional<std::uint64_t>(1)); },
      [&] { EXPECT_TRUE(map.insert(k.same_hash[1], 3)); });
}

TEST(BaselineRace, CtrieCleanParentLoses) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_root[0], 2));
  Model model{{k.same_root[0], 2}, {k.other_root, 3}};
  // The victim's remove entombs same_root[0] and parks before contracting
  // the tombstone into the root; the intruder changes the root first.
  ctrie_case(
      Site::ctrie_clean_parent, map, model,
      [&] { EXPECT_EQ(map.remove(k.a), std::optional<std::uint64_t>(1)); },
      [&] { EXPECT_TRUE(map.insert(k.other_root, 3)); });
}

TEST(BaselineRace, CtrieEntombingCleanParentLoses) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_l1, 2));
  Model model{{k.same_l1, 2}, {k.same_root[0], 3}};
  // a and same_l1 sit in a CNode two levels down. Removing a entombs
  // same_l1 there; contracting that tombstone would leave its level-1
  // parent with one SNode and entomb it too. The intruder adds a second
  // branch to the level-1 CNode first.
  ctrie_case(
      Site::ctrie_clean_parent, map, model,
      [&] { EXPECT_EQ(map.remove(k.a), std::optional<std::uint64_t>(1)); },
      [&] { EXPECT_TRUE(map.insert(k.same_root[0], 3)); });
}

/// A remover parked at ctrie.clean_parent (chaos thread 2) leaves its
/// tombstone in place, so `lookup_key`'s lookup runs clean() through it and
/// loses to an insert of `intruder_key`. lose_race's clear() releases the
/// remover as well; its clean_parent then finds the tombstone contracted.
void ctrie_clean_commit_case(Ctrie& map, const Model& model,
                             std::uint64_t remove_key,
                             std::uint64_t lookup_key,
                             std::uint64_t intruder_key) {
  tk::chaos::set_global_seed(kSeed);
  fault::install(
      fault::Plan(kSeed).stall(Site::ctrie_clean_parent, fault::kForever, 2));
  tk::chaos::enable(true);
  const std::uint64_t parked0 = fault::parked_now();
  std::thread remover([&] {
    tk::chaos::bind_thread(2);
    EXPECT_TRUE(map.remove(remove_key).has_value());
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (fault::parked_now() != parked0 + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fault::parked_now(), parked0 + 1) << "remover never parked";

  ctrie_case(
      Site::ctrie_clean_commit, map, model,
      [&] { EXPECT_EQ(map.lookup(lookup_key), model.at(lookup_key)); },
      [&] { EXPECT_TRUE(map.insert(intruder_key, model.at(intruder_key))); });
  remover.join();
  expect_matches(map, model);
}

TEST(BaselineRace, CtrieCleanCommitLoses) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_root[0], 2));
  // The lookup's clean() resurrects same_root[0] into the root CNode.
  ctrie_clean_commit_case(map, {{k.same_root[0], 2}, {k.other_root, 3}},
                          k.a, k.same_root[0], k.other_root);
}

TEST(BaselineRace, CtrieEntombingCleanCommitLoses) {
  const Keys& k = keys();
  Ctrie map;
  ASSERT_TRUE(map.insert(k.a, 1));
  ASSERT_TRUE(map.insert(k.same_l1, 2));
  // The lookup's clean() resurrects same_l1 into the level-1 CNode, which
  // is then left with one SNode and would entomb.
  ctrie_clean_commit_case(map, {{k.same_l1, 2}, {k.same_root[0], 3}}, k.a,
                          k.same_l1, k.same_root[0]);
}

// --- Skip list -------------------------------------------------------------

TEST(BaselineRace, SkipListInsertLosesAtLinkBottom) {
  Csl map;
  Model model{{5, 50}, {3, 30}};
  CounterDelta retry{sites::csl_cas_retry};
  lose_race(
      Site::csl_link_bottom, [&] { EXPECT_TRUE(map.insert(5, 50)); },
      [&] { EXPECT_TRUE(map.insert(3, 30)); });
  expect_rose(retry.rose(), "csl.cas.retry");
  expect_matches(map, model);
}

TEST(BaselineRace, SkipListPutIfAbsentLosesAtLinkBottom) {
  Csl map;
  ASSERT_TRUE(map.insert(9, 90));
  Model model{{9, 90}, {5, 50}, {7, 70}};
  CounterDelta retry{sites::csl_cas_retry};
  lose_race(
      Site::csl_link_bottom, [&] { EXPECT_TRUE(map.put_if_absent(5, 50)); },
      [&] { EXPECT_TRUE(map.insert(7, 70)); });
  expect_rose(retry.rose(), "csl.cas.retry");
  expect_matches(map, model);
}

/// A remover parked at csl.unlink has set its node's dead bit but not
/// marked it: `intruder` finds the corpse, must help mark it and insert a
/// fresh node.
void skiplist_corpse_case(const std::function<bool(Csl&)>& intruder) {
  Csl map;
  ASSERT_TRUE(map.insert(3, 30));
  ASSERT_TRUE(map.insert(5, 50));
  ASSERT_TRUE(map.insert(7, 70));
  Model model{{3, 30}, {5, 55}, {7, 70}};
  CounterDelta help{sites::csl_help_mark};
  lose_race(
      Site::csl_unlink,
      [&] { EXPECT_EQ(map.remove(5), std::optional<std::uint64_t>(50)); },
      [&] { EXPECT_TRUE(intruder(map)); });
  expect_rose(help.rose(), "csl.help_mark");
  expect_matches(map, model);
}

TEST(BaselineRace, SkipListInsertHelpsMarkCorpse) {
  skiplist_corpse_case([](Csl& map) { return map.insert(5, 55); });
}

TEST(BaselineRace, SkipListPutIfAbsentHelpsMarkCorpse) {
  skiplist_corpse_case([](Csl& map) { return map.put_if_absent(5, 55); });
}

}  // namespace
