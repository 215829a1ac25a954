// lost_race_matrix_test.cpp — every lost race the chaos-site table names,
// forced on five maps and checked as one small history each.
//
// A cell is (map, state, row, victim op, intruder op). The state prefills a
// few placed keys (and may look some up, which can build the cache-trie's
// cache); fault::lose_race parks the victim (chaos thread 1) at its
// first crossing of the row, runs the intruder (thread 0) to completion and
// releases the victim, which must lose whatever CAS the intruder changed:
// discard its copy, retry and finish. The prefill, the racing pair and a
// closing lookup of every key form one history that the Wing–Gong checker
// (testkit::check_history) must accept, whichever op linearized first. Each
// cell also checks debug_validate(), that size() and for_each agree with the
// closing lookups, on the unbounded trie that each committed insert and
// remove was counted once, and on the bounded trie that the byte ledger
// equals the footprint walk.
//
// The rows a map crosses, and the victim ops that cross each row, are the
// table's ops column (testkit/chaos.hpp). Intruders insert every key and
// put_if_absent or remove each prefilled one. A row flagged `locked` is
// never paired with an intruder that needs the victim's lock (a write to
// its hash-map bin). Two more shapes: a re-park cell parks the victim again
// at a second row and runs the closing lookups there (an ENode announced,
// then its copy built but not offered), and a state may leave a bystander
// parked (a Ctrie remover that holds its tombstone at ctrie.clean_parent).
//
// A victim that does not reach its row finishes alone; its path does not
// depend on the intruder (a skip-list node's random height aside), so its
// other intruders are not tried. The test prints, per (map, row, op), the
// victims tried, how many never parked, the cells run and the cells
// excluded, and fails when a named op never parks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "mr/epoch.hpp"
#include "obs/metrics.hpp"
#include "obs/sites.hpp"
#include "skiplist/skiplist.hpp"
#include "testkit/chaos.hpp"
#include "testkit/driver.hpp"
#include "testkit/fault.hpp"
#include "testkit/history.hpp"
#include "testkit/lin_check.hpp"
#include "util/hashing.hpp"

namespace {

namespace tk = cachetrie::testkit;
namespace fault = cachetrie::testkit::fault;
using tk::Event;
using tk::Op;
using tk::Owner;
using tk::Site;
namespace sites = cachetrie::obs::sites;
using Key = std::uint64_t;

static_assert(tk::kChaosCompiled,
              "lost_race_matrix_test must build with CACHETRIE_TESTKIT=1");

constexpr std::uint64_t kSeed = 0x1057ace5ULL;

/// Places keys exactly: a key's hash is its low 16 bits. In the cache-trie
/// (4 bits a level) 1, 17, 33, 65 and 0x101 share root slot 1, 1 and 17
/// split into a narrow node where 65 collides with 1, and 0x10001 and
/// 0x20001 share 1's full hash (a collision chain). In the Ctrie (5 bits a
/// level) 1 and 65 share only root slot 1 with 33, 0x421 also its level-1
/// slot, and 0x10021, 0x20021 and 0x30021 its full hash. 2 sits in another
/// root slot. In the hash map's 16 bins, 1, 17 and 33 share bin 1.
struct PlacedHash {
  std::uint64_t operator()(const Key& k) const noexcept {
    return cachetrie::util::IdentityHash{}(k) & 0xffff;
  }
};

using Trie = cachetrie::CacheTrie<Key, std::uint64_t, PlacedHash>;
using Ctrie = cachetrie::ctrie::Ctrie<Key, std::uint64_t, PlacedHash>;
using Chm = cachetrie::chm::ConcurrentHashMap<Key, std::uint64_t, PlacedHash>;
using Csl = cachetrie::csl::ConcurrentSkipList<Key, std::uint64_t>;

/// A map's state before the race: prefilled keys (value = key), expired
/// ballast (bounded trie only; never in the history, so absent to the
/// checker, as TTL makes it), optionally a bystander: a Ctrie remove of
/// `bystander_remove` parked at ctrie.clean_parent for the whole cell, and
/// keys looked up after the prefill (in the history too). `parent_array`:
/// the cache-trie's first miss grows its cache from level 8 to 12, keeping
/// the level-8 array as the head's parent (trie_config).
struct State {
  const char* name;
  std::vector<Key> keys;
  std::vector<Key> ballast = {};
  Key bystander_remove = 0;
  std::vector<Key> looked_up = {};
  bool parent_array = false;
};

template <typename Map>
struct Subject {
  const char* name;
  Owner owner;
  bool bounded = false;
  std::vector<Key> keys;  // every key a cell uses
  std::vector<State> states;
  std::vector<std::array<Site, 2>> reparks;
  std::function<std::unique_ptr<Map>(const State&)> make;
};

Event op_event(Op op, Key k, std::uint64_t arg) {
  Event ev;
  ev.op = op;
  ev.key = k;
  ev.arg = arg;
  ev.expected = k;  // the prefilled value, so *_if_equals can commit
  return ev;
}

/// Victims tried, parked and paired per (map, rows, op), for the report.
struct Tally {
  std::uint64_t victims = 0, parked = 0, cells = 0, excluded = 0;
};

/// The cache-trie's ENode counters, read when constructed.
struct EnodeCounts {
  std::uint64_t expand = sites::cachetrie_expand.total();
  std::uint64_t compress = sites::cachetrie_compress.total();
};

struct Report {
  std::map<std::string, Tally> rows;
  std::uint64_t cells = 0;
  int failures = 0;
  EnodeCounts at_race;  // as the last cell's race began, after its prefill
};

std::string describe(const char* map, const State& s,
                     std::span<const Site> rows, const Event& v,
                     const Event& i) {
  std::string out = std::string(map) + " state=" + s.name + " rows=";
  for (const Site r : rows) out += std::string(tk::name(r)) + " ";
  out += "victim=" + std::string(tk::op_name(v.op)) + "(" +
         std::to_string(v.key) + ") intruder=" + tk::op_name(i.op) + "(" +
         std::to_string(i.key) + ")";
  return out;
}

std::uint64_t ops_counted() {
  return sites::cachetrie_insert_new.total() - sites::cachetrie_remove.total();
}

/// Runs one cell; returns how many of `rows` the victim parked at.
template <typename Map>
std::size_t run_cell(const Subject<Map>& sub, const State& state,
                     std::span<const Site> rows, const Event& victim,
                     const Event& intruder, Report& report) {
  const std::uint64_t ops0 = ops_counted();
  std::unique_ptr<Map> map = sub.make(state);
  tk::HistoryRecorder rec(3, 64);
  const auto run = [&](Event ev, std::uint32_t thread) {
    ev.thread = thread;
    ev.invoke = rec.ticket();
    tk::apply(*map, ev);
    ev.response = rec.ticket();
    rec.append(thread, ev);
    return ev;
  };
  std::map<Key, std::uint64_t> closing;
  const auto lookups = [&] {
    for (const Key k : sub.keys) {
      const Event ev = run(op_event(Op::kLookup, k, 0), 0);
      if (ev.has_result) {
        closing[k] = ev.result;
      } else {
        closing.erase(k);
      }
    }
  };
  for (const Key k : state.keys) run(op_event(Op::kInsert, k, k), 0);
  for (const Key k : state.looked_up) run(op_event(Op::kLookup, k, 0), 0);
  std::size_t parks = 0;
  const auto race = [&] {
    report.at_race = EnodeCounts{};
    parks = fault::lose_race(
        kSeed, rows, [&] { run(victim, 1); },
        [&](std::size_t i) { i == 0 ? (void)run(intruder, 0) : lookups(); });
  };
  if (state.bystander_remove != 0) {
    const Site stand = Site::ctrie_clean_parent;
    const std::size_t stood = fault::lose_race(
        kSeed, std::span<const Site>(&stand, 1),
        [&] { run(op_event(Op::kRemove, state.bystander_remove, 0), 2); },
        [&](std::size_t) { race(); });
    EXPECT_EQ(stood, 1u) << "bystander never parked: " << state.name;
  } else {
    race();
  }
  lookups();
  ++report.cells;

  std::string why;
  if (auto v = tk::check_history(rec.merged())) {
    why = tk::format_trace(*v, kSeed, report.cells);
  }
  std::map<Key, std::uint64_t> seen;
  map->for_each([&](const Key& k, const std::uint64_t& v) { seen[k] = v; });
  if (seen != closing || map->size() != closing.size()) {
    why += "for_each/size disagree with the closing lookups\n";
  }
  if constexpr (requires { map->debug_validate(); }) {
    const auto issues = map->debug_validate();
    if (!issues.empty()) why += "debug_validate: " + issues.front() + "\n";
  }
  if constexpr (std::is_same_v<Map, Trie>) {
    // Unbounded, each committed insert and remove counts once, however
    // many races it lost first.
    if (cachetrie::obs::kMetricsCompiled && !sub.bounded &&
        ops_counted() - ops0 != map->size()) {
      why += "cachetrie.op.insert_new - cachetrie.op.remove != size()\n";
    }
  }
  if (sub.bounded) {
    if constexpr (requires { map->resident_bytes(); }) {
      if (map->resident_bytes() != map->footprint_bytes() - sizeof(Map)) {
        why += "byte ledger " + std::to_string(map->resident_bytes()) +
               " != footprint walk " +
               std::to_string(map->footprint_bytes() - sizeof(Map)) + "\n";
      }
    }
  }
  if (!why.empty() && ++report.failures <= 10) {
    ADD_FAILURE() << describe(sub.name, state, rows, victim, intruder)
                  << " (parked " << parks << ")\n"
                  << why;
  }
  return parks;
}

/// Whether a write of `b` waits for a victim writing `a` that is parked at
/// a locked row: on the hash map, when both keys hash to one bin, whose
/// lock the victim holds. No cell grows the table, so a key's bin is its
/// hash modulo a fresh map's bin count.
template <typename Map>
bool waits_for_victim(const Map& fresh, Key a, Key b) {
  if constexpr (requires { fresh.bin_count(); }) {
    const std::uint64_t mask = fresh.bin_count() - 1;
    return (PlacedHash{}(a) & mask) == (PlacedHash{}(b) & mask);
  } else {
    return true;  // no other map has a locked row: pair nothing with it
  }
}

/// Every cell of `rows` on `sub`: each state, victim op in `ops` and key,
/// against each intruder.
template <typename Map>
void run_rows(const Subject<Map>& sub, std::span<const Site> rows,
              std::uint16_t ops, Report& report) {
  const bool locked = (tk::crossing_ops(rows[0]) & tk::row_ops::locked) != 0;
  const std::unique_ptr<Map> fresh = sub.make(sub.states[0]);
  for (std::uint8_t o = 0; o <= static_cast<std::uint8_t>(Op::kRemoveIfEquals);
       ++o) {
    const Op op = static_cast<Op>(o);
    if ((ops & tk::op_bit(op)) == 0) continue;
    std::string label = std::string(sub.name) + "  ";
    for (const Site r : rows) label += std::string(tk::name(r)) + " ";
    label += tk::op_name(op);
    Tally& tally = report.rows[label];
    for (const State& state : sub.states) {
      if (rows.size() > 1 && state.bystander_remove != 0) continue;
      std::vector<Event> intruders;
      for (const Key k : sub.keys) {
        intruders.push_back(op_event(Op::kInsert, k, k + 2000));
      }
      for (const Key k : state.keys) {
        intruders.push_back(op_event(Op::kPutIfAbsent, k, k + 2000));
        intruders.push_back(op_event(Op::kRemove, k, 0));
      }
      for (const Key k : sub.keys) {
        const Event victim = op_event(op, k, k + 1000);
        ++tally.victims;
        bool tried = false;
        for (const Event& intruder : intruders) {
          // Every intruder writes; one that waits for the parked victim
          // would wait forever.
          if (locked && waits_for_victim(*fresh, k, intruder.key)) {
            ++tally.excluded;
            continue;
          }
          ++tally.cells;
          const std::size_t parks =
              run_cell(sub, state, rows, victim, intruder, report);
          if (!tried && parks == rows.size()) ++tally.parked;
          tried = true;
          if (parks == 0) break;  // the victim's path never meets the row
        }
      }
    }
    EXPECT_GT(tally.parked, 0u) << label << ": the ops column names an op "
                                << "whose victim never parks";
  }
}

template <typename Map>
void run_matrix(const Subject<Map>& sub) {
  Report report;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < tk::kSiteCount; ++i) {
    const Site row = static_cast<Site>(i);
    if (tk::owner(row) != sub.owner) continue;
    const std::uint16_t ops = tk::crossing_ops(row);
    if ((ops & tk::row_ops::bounded) != 0 && !sub.bounded) {
      std::printf("%s  %s: excluded, bounded mode only\n", sub.name,
                  tk::name(row));
      continue;
    }
    if ((ops & (tk::row_ops::writes | tk::row_ops::lkp)) == 0) {
      std::printf("%s  %s: excluded, its ops column is empty\n", sub.name,
                  tk::name(row));
      continue;
    }
    run_rows(sub, std::span<const Site>(&row, 1), ops, report);
  }
  for (const auto& pair : sub.reparks) {
    run_rows(sub, pair, tk::crossing_ops(pair[0]), report);
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  for (const auto& [label, t] : report.rows) {
    std::printf("%s: %llu victims, %llu never park; %llu cells", label.c_str(),
                static_cast<unsigned long long>(t.victims),
                static_cast<unsigned long long>(t.victims - t.parked),
                static_cast<unsigned long long>(t.cells));
    if (t.excluded != 0) {
      std::printf(", %llu excluded: the intruder needs the victim's lock",
                  static_cast<unsigned long long>(t.excluded));
    }
    std::printf("\n");
  }
  std::printf("%s: %llu cells in %.2f s, %d failed\n", sub.name,
              static_cast<unsigned long long>(report.cells), secs,
              report.failures);
  EXPECT_EQ(report.failures, 0);
}

// --- the five maps ---------------------------------------------------------

const std::vector<Key> kTrieKeys = {1, 2, 17, 33, 65, 0x101, 0x10001, 0x20001};

std::vector<State> trie_states() {
  // In "cached", 1 and 0x101 split at level 8 into a narrow node; looking
  // up 1 reaches its leaf at level 12, which builds an empty cache array
  // at level 8 for the racing ops to inhabit with that node (or, for 17,
  // 33 and 65, with their new leaf), and 0x10001 or 0x20001 expands it.
  // "cached_parent" then looks up 2, a leaf at level 4: its miss grows the
  // cache to 12, so a write that passes the narrow node stores its word in
  // the level-8 array, the head's parent, while removing 1 or 0x101
  // compresses that node and inserting 0x10001 or 0x20001 expands it.
  return {{"empty", {}},
          {"one", {1}},
          {"narrow", {1, 17}},
          {"wide", {1, 65}},
          {"chain", {1, 0x10001}},
          {"cached", {1, 0x101}, {}, 0, {1}},
          {"cached_parent", {1, 0x101, 2}, {}, 0, {1, 2}, true}};
}

/// A fresh trie's config for state `s`: by default the paper's; with
/// `parent_array`, one miss moves the cache from level 8 to 12 for good.
cachetrie::Config trie_config(const State& s) {
  cachetrie::Config cfg;
  if (s.parent_array) {
    cfg.max_misses = 0;
    cfg.min_cache_level = 12;
    cfg.max_cache_level = 12;
  }
  return cfg;
}

const std::vector<std::array<Site, 2>> kTrieReparks = {
    {Site::cachetrie_compress_announce, Site::cachetrie_enode_publish},
    {Site::cachetrie_expand_announce, Site::cachetrie_enode_publish}};

// The bounded trie's clock: frozen at kNow during a cell. Ballast is
// stamped at tick 1, so it is expired (TTL) and idle (LRU); prefilled and
// racing keys are stamped kNow and are neither.
std::atomic<std::uint64_t> g_clock{0};
std::uint64_t test_clock() { return g_clock.load(std::memory_order_relaxed); }
constexpr std::uint64_t kNow = 1u << 20;
constexpr std::uint64_t kTtl = 1000;

std::unique_ptr<Trie> make_bounded(const State& s) {
  cachetrie::Config cfg = trie_config(s);
  cfg.ttl_ticks = 1ull << 40;  // bounded mode on, horizons inert
  if (s.ballast.empty()) return std::make_unique<Trie>(cfg);
  // Over a 1-byte ceiling every insert runs a backpressure scan.
  cfg.ttl_ticks = kTtl;
  cfg.ceiling_bytes = 1;
  cfg.tick_fn = &test_clock;
  g_clock.store(1, std::memory_order_relaxed);
  auto trie = std::make_unique<Trie>(cfg);
  for (const Key k : s.ballast) trie->insert(k, k);
  g_clock.store(kNow, std::memory_order_relaxed);
  return trie;
}

Subject<Trie> cachetrie_subject() {
  return {"cachetrie", Owner::cachetrie, false, kTrieKeys, trie_states(),
          kTrieReparks, [](const State& s) {
            return std::make_unique<Trie>(trie_config(s));
          }};
}

Subject<Trie> bounded_subject() {
  auto states = trie_states();
  // 17 is stale in root slot 1: a write on that path evicts it first.
  states.push_back({"stale", {2}, {17}});
  states.push_back({"stale_narrow", {1}, {17}});
  return {"bounded", Owner::cachetrie, true, kTrieKeys, states, kTrieReparks,
          &make_bounded};
}

Subject<Ctrie> ctrie_subject() {
  return {"ctrie",
          Owner::ctrie,
          false,
          {1, 2, 33, 65, 0x421, 0x10021, 0x20021, 0x30021},
          {{"empty", {}},
           {"one", {33}},
           {"chain", {33, 0x10021}},
           {"chain3", {33, 0x10021, 0x20021}},
           {"root2", {33, 1}},
           {"deep", {33, 0x421}},
           // A remover of 33 parked at clean_parent leaves its tombstone.
           {"tomb", {33, 1}, {}, 33},
           {"deep_tomb", {33, 0x421}, {}, 33}},
          {},
          [](const State&) { return std::make_unique<Ctrie>(); }};
}

Subject<Chm> chm_subject() {
  return {"chm",
          Owner::chm,
          false,
          {1, 2, 17, 33},
          {{"empty", {}}, {"one", {1}}, {"bin2", {1, 17}}},
          {},
          [](const State&) { return std::make_unique<Chm>(); }};
}

Subject<Csl> csl_subject() {
  return {"csl",
          Owner::csl,
          false,
          {3, 5, 7, 9, 11, 13, 15, 17},
          // Node heights are random: of twelve removed nodes, some reach an
          // upper level (csl.mark_upper).
          {{"empty", {}},
           {"one", {9}},
           {"three", {3, 5, 7}},
           {"eight", {3, 5, 7, 9, 11, 13, 15, 17}}},
          {},
          [](const State&) { return std::make_unique<Csl>(); }};
}

TEST(LostRaceMatrix, CacheTrie) { run_matrix(cachetrie_subject()); }
TEST(LostRaceMatrix, BoundedCacheTrie) { run_matrix(bounded_subject()); }
TEST(LostRaceMatrix, Ctrie) { run_matrix(ctrie_subject()); }
TEST(LostRaceMatrix, HashMap) { run_matrix(chm_subject()); }
TEST(LostRaceMatrix, SkipList) { run_matrix(csl_subject()); }

// --- named cells -----------------------------------------------------------
//
// BaselineRace.* and EvictionLedger.* name single cells of the matrix
// above: lost races worth a name of their own. A named cell must park its
// victim at every one of its rows, and (metrics on) counters must show how
// the race went: that the victim lost at its first row, and on a cell that
// announces an ENode, that exactly one replacement was committed.

/// The ENode replacement a named cell commits, once, however many threads
/// build a copy of it.
enum class Replaced { none, expand, compress };

/// One named cell: on `map`'s state `state`, `victim` parks at `rows` and
/// loses to `intruder` on each of `intruder_keys`.
struct Named {
  const char* name;
  const char* map;
  const char* state;
  std::vector<Site> rows;
  Event victim;
  Op intruder;
  std::vector<Key> intruder_keys;
  Replaced replaced = Replaced::none;
};

/// What proves a named cell's victim lost at `row`: a counter and how far
/// it must rise (a retry or a help; for an ENode race, both builders'
/// freezes). {0, 0} where no counter tells: a victim parked before
/// cachetrie.compress_announce loses nothing, and its cell checks instead
/// that its announcement won (one compression committed).
std::pair<std::uint64_t, std::uint64_t> loss(Site row) {
  switch (row) {
    case Site::ctrie_gcas:
    case Site::ctrie_clean_parent:
    case Site::ctrie_clean_commit:
      return {sites::ctrie_gcas_retry.total(), 1};
    case Site::csl_link_bottom:
      return {sites::csl_cas_retry.total(), 1};
    case Site::csl_unlink:
      return {sites::csl_help_mark.total(), 1};
    case Site::cachetrie_txn_announce:
    case Site::cachetrie_chain_grow:
      return {sites::cachetrie_txn_retry.total(), 1};
    case Site::cachetrie_enode_publish:
    case Site::cachetrie_enode_commit:
      return {sites::cachetrie_freeze.total(), 2};
    default:
      return {0, 0};
  }
}

template <typename Map>
void run_named(const Subject<Map>& sub, const Named& n) {
  const auto state = std::find_if(sub.states.begin(), sub.states.end(),
                                  [&](const State& s) {
                                    return std::string(s.name) == n.state;
                                  });
  ASSERT_NE(state, sub.states.end()) << n.state;
  Report report;
  for (const Key k : n.intruder_keys) {
    const auto [before, need] = loss(n.rows[0]);
    EXPECT_EQ(run_cell(sub, *state, n.rows, n.victim,
                       op_event(n.intruder, k, k + 2000), report),
              n.rows.size())
        << "the victim did not park at every row";
    if (cachetrie::obs::kMetricsCompiled) {
      EXPECT_GE(loss(n.rows[0]).first - before, need)
          << "no counter shows that the victim lost";
      if (n.replaced != Replaced::none) {
        const EnodeCounts now;
        EXPECT_EQ(now.expand - report.at_race.expand,
                  n.replaced == Replaced::expand ? 1u : 0u)
            << "cachetrie.expand: one replacement must be committed";
        EXPECT_EQ(now.compress - report.at_race.compress,
                  n.replaced == Replaced::compress ? 1u : 0u)
            << "cachetrie.compress: one replacement must be committed";
      }
    }
  }
  EXPECT_EQ(report.failures, 0);
}

void run_named(const Named& n) {
  const std::string map = n.map;
  if (map == "bounded") return run_named(bounded_subject(), n);
  if (map == "ctrie") return run_named(ctrie_subject(), n);
  ASSERT_EQ(map, "csl");
  run_named(csl_subject(), n);
}

Event victim(Op op, Key k) { return op_event(op, k, k + 1000); }

constexpr Op kIns = Op::kInsert, kPia = Op::kPutIfAbsent, kRem = Op::kRemove,
             kLkp = Op::kLookup;
constexpr Replaced kExpand = Replaced::expand, kCompress = Replaced::compress;

using enum Site;

// clang-format off
const Named kNamed[] = {
    {"CtrieEmptySlotInsertLosesAtGcas", "ctrie", "empty", {ctrie_gcas}, victim(kIns, 33), kIns, {2}},
    {"CtrieSameKeyReplaceLosesAtGcas", "ctrie", "one", {ctrie_gcas}, victim(kIns, 33), kIns, {2}},
    {"CtrieGrowthUnderFreshINodeLosesAtGcas", "ctrie", "one", {ctrie_gcas}, victim(kIns, 1), kIns, {2}},
    {"CtrieGrowthIntoChainLosesAtGcas", "ctrie", "one", {ctrie_gcas}, victim(kPia, 0x10021), kIns, {2}},
    {"CtrieChainUpsertLosesAtGcas", "ctrie", "chain", {ctrie_gcas}, victim(kIns, 33), kIns, {0x20021}},
    {"CtrieChainSplitLosesAtGcas", "ctrie", "chain", {ctrie_gcas}, victim(kIns, 1), kIns, {0x20021}},
    {"CtrieRemoveLosesAtGcas", "ctrie", "one", {ctrie_gcas}, victim(kRem, 33), kIns, {2}},
    {"CtrieEntombingRemoveLosesAtGcas", "ctrie", "root2", {ctrie_gcas}, victim(kRem, 33), kIns, {65}},
    {"CtrieChainRemoveLosesAtGcas", "ctrie", "chain3", {ctrie_gcas}, victim(kRem, 33), kIns, {0x30021}},
    {"CtrieChainRemoveToTombLosesAtGcas", "ctrie", "chain", {ctrie_gcas}, victim(kRem, 33), kIns, {0x20021}},
    {"CtrieCleanParentLoses", "ctrie", "root2", {ctrie_clean_parent}, victim(kRem, 33), kIns, {2}},
    {"CtrieEntombingCleanParentLoses", "ctrie", "deep", {ctrie_clean_parent}, victim(kRem, 33), kIns, {1}},
    {"CtrieCleanCommitLoses", "ctrie", "tomb", {ctrie_clean_commit}, victim(kLkp, 1), kIns, {2}},
    {"CtrieEntombingCleanCommitLoses", "ctrie", "deep_tomb", {ctrie_clean_commit}, victim(kLkp, 0x421), kIns, {1}},
    {"SkipListInsertLosesAtLinkBottom", "csl", "empty", {csl_link_bottom}, victim(kIns, 5), kIns, {3}},
    {"SkipListPutIfAbsentLosesAtLinkBottom", "csl", "one", {csl_link_bottom}, victim(kPia, 5), kIns, {7}},
    {"SkipListInsertHelpsMarkCorpse", "csl", "three", {csl_unlink}, victim(kRem, 5), kIns, {5}},
    {"SkipListPutIfAbsentHelpsMarkCorpse", "csl", "three", {csl_unlink}, victim(kRem, 5), kPia, {5}},
    {"TxnAnnounceLoserDiscardsItsSubtree", "bounded", "one", {cachetrie_txn_announce}, victim(kIns, 17), kIns, {1}},
    {"ExpansionBuildLoserDiscardsItsCopy", "bounded", "narrow", {cachetrie_enode_publish}, victim(kIns, 65), kIns, {33}, kExpand},
    {"CompressionBuildLoserDiscardsItsCopy", "bounded", "narrow", {cachetrie_enode_publish}, victim(kRem, 17), kIns, {33}, kCompress},
    {"EnodeCommitLoserLeavesLedgerExact", "bounded", "narrow", {cachetrie_enode_commit}, victim(kIns, 65), kIns, {33}, kExpand},
    {"ChainGrowthLoserKeepsTheChainItLinked", "bounded", "chain", {cachetrie_chain_grow}, victim(kIns, 17), kIns, {0x20001}},
    {"CompressionFreezesAndCopiesChildrenBuiltMidAnnounce", "bounded", "wide",
     {cachetrie_compress_announce, cachetrie_enode_publish}, victim(kRem, 65), kIns, {0x10001, 0x101}, kCompress},
};
// clang-format on

struct NamedCell : testing::Test {
  explicit NamedCell(const Named& n) : named(n) {}
  void TestBody() override { run_named(named); }
  const Named& named;  // an element of kNamed
};

const bool kNamedRegistered = [] {
  for (const Named& n : kNamed) {
    const bool ledger = std::string(n.map) == "bounded";
    testing::RegisterTest(ledger ? "EvictionLedger" : "BaselineRace", n.name,
                          nullptr, nullptr, __FILE__, __LINE__,
                          [&n]() -> testing::Test* { return new NamedCell(n); });
  }
  return true;
}();

// --- an upper link after the remove -----------------------------------------
//
// An insert parks at csl.link_upper, after its bottom link, while a remove
// of the same key runs to completion; released, the insert links the
// removed node at an upper level. That node must not be freed while it is
// linked: the drain below frees every retired node at once, and under ASan
// a lookup through a freed one reports the use-after-free.
TEST(SkipListRace, UpperLinkAfterRemoveFreesNoLinkedNode) {
  auto& dom = cachetrie::mr::EpochDomain::instance();
  Csl list;
  std::map<Key, std::uint64_t> expected;
  for (Key k = 0; k < 64; k += 2) {
    list.insert(k, k);
    expected[k] = k;
  }
  const Site row = Site::csl_link_upper;
  std::size_t raced = 0;
  for (Key k = 1; k < 128; k += 2) {
    // Only a node with an upper level crosses the row; otherwise the insert
    // completes and the remove never runs.
    if (fault::lose_race(
            kSeed + k, std::span<const Site>(&row, 1),
            [&] { list.insert(k, k); },
            [&](std::size_t) { EXPECT_EQ(list.remove(k), k); }) == 1) {
      ++raced;
    } else {
      expected[k] = k;
    }
    dom.drain_for_testing();
    for (Key j = 0; j < 128; ++j) {
      const auto it = expected.find(j);
      EXPECT_EQ(list.lookup(j), it == expected.end()
                                    ? std::nullopt
                                    : std::optional<std::uint64_t>(it->second))
          << "key " << j << " after racing key " << k;
    }
  }
  EXPECT_GT(raced, 0u) << "no insert parked at csl.link_upper";
}

}  // namespace
