// fig15_served_load.cpp — the serving layer under an open-loop load
// generator (DESIGN.md §4, EXPERIMENTS.md §fig15).
//
// Open-loop is the load shape that distinguishes a server that sheds from
// one that queues: requests fire on a FIXED arrival schedule, and each
// latency is measured from the request's *scheduled* send time, not from
// when the generator got around to writing it. Falling behind schedule
// therefore shows up in the tail instead of silently thinning the arrival
// rate — the coordinated-omission correction, measured rather than ignored.
//
// Five phases against one 2-shard loopback server over the bounded trie:
//   * steady      — arrival rate comfortably under capacity; the reference
//                   tail every other phase is compared against.
//   * overload    — 2x the steady rate plus a slow-reader connection that
//                   writes requests and never reads replies (the
//                   backpressure victim). Accepted-request tail only; shed
//                   replies are counted, not timed — refusing work IS the
//                   mechanism under test.
//   * conn_churn  — clients disconnect and reconnect mid-schedule; the
//                   accept/adopt/close path runs inside the measured
//                   window.
//   * hotkey      — every request hits one key (70/30 get/put): single-bucket
//                   contention through the full socket path.
//   * zipf_tenants— four tenants, each a zipf(1.0) keyspace, interleaved on
//                   the schedule — the multi-tenant cache shape.
//
// Each phase also prints its context switches per accepted request (every
// thread of this process — generator, client I/O threads, shards —
// from getrusage deltas): the per-request wakeup count the batching in
// client.hpp and shard.hpp exists to cut. Next to it, the eventfd kicks
// per accepted request (net.client.kicks): how often a send found its
// client's I/O thread parked. Both are printed, never gated.
//
// Sizes and rates are fixed — REPRO_SCALE is ignored so the artifact stays
// comparable across runs and scripts/perf_gate.py can diff the p50–p999
// cells against the committed baseline (only `stat` cells are emitted:
// shed/accepted counts are load-dependent and volatile, so they print in
// the table but never become gated cells). The bench HARD-FAILS (exit 1)
// if a shard dies, a protocol error appears, or buffered reply bytes
// escape write_buf_cap + one frame — the backpressure invariant.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "cachetrie/evict.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "obs/latency.hpp"
#include "obs/sites.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace {

namespace net = cachetrie::net;
namespace proto = cachetrie::net::proto;
using cachetrie::harness::BenchParams;
using cachetrie::harness::LatencyQuantile;
using cachetrie::harness::LatencySummary;
using cachetrie::harness::RunningStats;
using cachetrie::harness::Table;

using BoundedTrie =
    cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t>;

constexpr std::size_t kShards = 2;
constexpr std::size_t kConns = 2;          // generator connections per phase
constexpr std::size_t kRequests = 6000;    // per pass
constexpr std::size_t kPasses = 2;         // stddev for the gate
constexpr std::uint64_t kSteadyGapUs = 60; // ~16.7k req/s
constexpr std::uint64_t kOverloadGapUs = kSteadyGapUs / 2;  // the "2x"
constexpr std::size_t kChurnEvery = 1000;  // reconnect cadence (conn_churn)
constexpr std::size_t kTenants = 4;
constexpr std::size_t kZipfRanks = 4096;
// In-flight ids a generator connection may have outstanding before it
// force-drains the oldest. Stays under the client's 1024 reply slots so a
// backlog can never alias a slot; the drain is a (counted) departure from
// pure open-loop that only engages when the server is far behind.
constexpr std::size_t kMaxInflight = 900;

/// One scheduled arrival: fire `op(key,value)` at `offset_us` past phase
/// start on connection `conn`.
struct Arrival {
  std::uint64_t offset_us;
  proto::Op op;
  std::uint64_t key;
  std::uint64_t value;
  std::size_t conn;
};

enum class Phase { kSteady, kOverload, kConnChurn, kHotkey, kZipfTenants };

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSteady: return "steady";
    case Phase::kOverload: return "overload";
    case Phase::kConnChurn: return "conn_churn";
    case Phase::kHotkey: return "hotkey";
    case Phase::kZipfTenants: return "zipf_tenants";
  }
  return "?";
}

/// Deterministic fixed-gap schedule for one phase (seeded per pass so the
/// key draws differ across passes but never across runs).
std::vector<Arrival> make_schedule(Phase phase, std::uint64_t seed) {
  const std::uint64_t gap =
      phase == Phase::kOverload ? kOverloadGapUs : kSteadyGapUs;
  cachetrie::util::SplitMix64 rng(seed);
  bench::ZipfSampler zipf(kZipfRanks, seed ^ 0x5eedull);
  std::vector<Arrival> out;
  out.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    Arrival a;
    a.offset_us = gap * i;
    a.conn = i % kConns;
    const std::uint64_t r = rng.next();
    switch (phase) {
      case Phase::kHotkey:
        a.key = 42;
        a.op = (r % 10) < 7 ? proto::Op::kGet : proto::Op::kPut;
        a.value = i;
        break;
      case Phase::kZipfTenants: {
        const std::uint64_t tenant = r % kTenants;
        a.key = (tenant << 32) | zipf.next_rank();
        a.op = (r % 10) < 8 ? proto::Op::kGet : proto::Op::kPut;
        a.value = i;
        break;
      }
      default:  // steady / overload / conn_churn: zipf get-or-put mix
        a.key = zipf.next_rank();
        a.op = (r % 10) < 8 ? proto::Op::kGet : proto::Op::kPut;
        a.value = i;
        break;
    }
    out.push_back(a);
  }
  return out;
}

struct PassResult {
  std::vector<double> accepted_ns;  // completion - *scheduled* send, kOk/kNotFound
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t lost = 0;        // timeout/closed/send-failed
  std::uint64_t forced_waits = 0;  // open-loop violations (backlog > slots)
  std::uint64_t reconnects = 0;
};

/// Runs one pass of one phase's schedule against the server. Single
/// dispatcher thread; per-connection pipelining with non-blocking poll
/// between sends, blocking drain at the end.
PassResult run_pass(std::uint16_t port, Phase phase,
                    const std::vector<Arrival>& schedule) {
  PassResult res;
  net::ClientConfig ccfg;
  ccfg.op_timeout_us = 5'000'000;  // send/poll/wait: a shed is not retried

  struct Conn {
    std::unique_ptr<net::Client> client;
    std::deque<std::pair<std::uint64_t, std::uint64_t>> inflight;  // id, sched_us
    std::size_t sent_on_conn = 0;
  };
  std::vector<Conn> conns(kConns);
  for (auto& c : conns) {
    c.client = std::make_unique<net::Client>(port, ccfg);
    if (!c.client->ok()) return res;
  }

  const auto settle = [&](proto::Status st, std::uint64_t sched_us,
                          std::uint64_t done_us) {
    if (st == proto::Status::kOk || st == proto::Status::kNotFound) {
      ++res.accepted;
      res.accepted_ns.push_back(
          static_cast<double>(done_us - sched_us) * 1e3);
    } else if (st == proto::Status::kShed) {
      ++res.shed;
    } else {
      ++res.lost;
    }
  };

  const std::uint64_t start_us = proto::now_us();
  for (const Arrival& a : schedule) {
    const std::uint64_t sched_us = start_us + a.offset_us;
    // Hold to the schedule: sleep only for the long gaps, spin the tail.
    while (true) {
      const std::uint64_t now = proto::now_us();
      if (now >= sched_us) break;
      if (sched_us - now > 200) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(sched_us - now - 100));
      }
    }

    Conn& c = conns[a.conn];
    // Connection churn: tear the connection down mid-schedule and dial a
    // fresh one; outstanding ids on the old connection drain first.
    if (phase == Phase::kConnChurn && c.sent_on_conn == kChurnEvery) {
      for (const auto& [id, s_us] : c.inflight) {
        settle(c.client->wait(id).status, s_us, proto::now_us());
      }
      c.inflight.clear();
      c.client->close();
      c.client = std::make_unique<net::Client>(port, ccfg);
      if (!c.client->ok()) return res;
      c.sent_on_conn = 0;
      ++res.reconnects;
    }

    std::uint64_t id = 0;
    if (!c.client->send(a.op, a.key, a.value, &id, /*deadline_us=*/0)) {
      ++res.lost;
      continue;
    }
    c.inflight.emplace_back(id, sched_us);
    ++c.sent_on_conn;

    // Opportunistic completion between arrivals (non-blocking).
    net::Client::Result r;
    while (!c.inflight.empty() &&
           c.client->poll(c.inflight.front().first, &r)) {
      settle(r.status, c.inflight.front().second, proto::now_us());
      c.inflight.pop_front();
    }
    // Slot guard: block on the oldest rather than alias a reply slot.
    if (c.inflight.size() >= kMaxInflight) {
      const auto [oid, o_us] = c.inflight.front();
      c.inflight.pop_front();
      settle(c.client->wait(oid).status, o_us, proto::now_us());
      ++res.forced_waits;
    }
  }

  for (auto& c : conns) {
    for (const auto& [id, s_us] : c.inflight) {
      settle(c.client->wait(id).status, s_us, proto::now_us());
    }
    c.client->close();
  }
  return res;
}

LatencyQuantile pack(const RunningStats& rs) {
  return LatencyQuantile{rs.mean(), rs.stddev(), rs.min(), rs.max()};
}

/// Voluntary + involuntary context switches of every thread in the process
/// so far.
std::uint64_t context_switches() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw) +
         static_cast<std::uint64_t>(ru.ru_nivcsw);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 15: served load — open-loop tails through the serving layer",
      "Fixed arrival schedules (coordinated omission measured: latency is\n"
      "taken from the scheduled send time) against a 2-shard loopback\n"
      "server over the bounded trie. Phases: steady, 2x overload with a\n"
      "non-reading slow client, connection churn, single-hot-key storm,\n"
      "4-tenant zipf. Accepted-request p50-p999 cells are gated; shed and\n"
      "loss counts print below but are load-dependent and never gated.\n"
      "Fixed sizes; REPRO_SCALE is ignored.");

  cachetrie::evict::BoundedConfig bcfg;
  bcfg.ceiling_bytes = 8u << 20;
  bcfg.ttl_ticks = 0;
  BoundedTrie map{bcfg};

  net::ServerConfig scfg;
  scfg.shards = kShards;
  scfg.shard.max_inflight = 128;
  scfg.shard.max_queue_age_us = 50'000;
  scfg.shard.write_buf_cap = 256 * 1024;
  scfg.conn_sndbuf = 16 * 1024;  // keeps the slow-reader phase cheap
  net::Server<BoundedTrie> server{map, scfg};
  if (!server.ok() || !server.start()) {
    std::fprintf(stderr, "FAIL: server did not start\n");
    return 1;
  }

  cachetrie::harness::BenchReport report{"fig15_served_load"};
  const auto reclaim0 = bench::ReclaimSnapshot::take();
  Table table{{"phase", "rate (rps)", "accepted", "shed", "lost",
               "p50 (us)", "p99 (us)", "p999 (us)", "csw/acc", "kicks/acc",
               "notes"}};

  constexpr Phase kPhases[] = {Phase::kSteady, Phase::kOverload,
                               Phase::kConnChurn, Phase::kHotkey,
                               Phase::kZipfTenants};
  for (const Phase phase : kPhases) {
    RunningStats q50, q90, q99, q999;
    PassResult last;
    std::uint64_t reconnects = 0;
    std::uint64_t accepted = 0;
    const std::uint64_t csw0 = context_switches();
    const std::uint64_t kicks0 =
        cachetrie::obs::sites::net_client_kicks.total();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      // The overload phase's slow reader: floods requests, reads nothing,
      // gets backpressure-killed by the server mid-phase.
      std::thread slow_writer;
      net::Fd slow;
      if (phase == Phase::kOverload) {
        slow = net::connect_loopback(server.port(), 4096, 4096);
        slow_writer = std::thread([fd = slow.get()] {
          std::vector<unsigned char> wire;
          proto::RequestFrame req;
          req.op = static_cast<std::uint8_t>(proto::Op::kPing);
          for (std::uint64_t i = 0; i < 20000; ++i) {
            req.request_id = i + 1;
            wire.clear();
            proto::append_frame(wire, req);
            if (!net::write_all(fd, wire.data(), wire.size())) break;
          }
        });
      }

      PassResult res =
          run_pass(server.port(), phase, make_schedule(phase, pass + 1));
      if (slow_writer.joinable()) slow_writer.join();
      slow.reset();

      q50.add(percentile(res.accepted_ns, 0.50));
      q90.add(percentile(res.accepted_ns, 0.90));
      q99.add(percentile(res.accepted_ns, 0.99));
      q999.add(percentile(res.accepted_ns, 0.999));
      reconnects += res.reconnects;
      accepted += res.accepted;
      last = std::move(res);
    }
    const auto per_accepted = [accepted](std::uint64_t n) {
      return accepted == 0
                 ? 0.0
                 : static_cast<double>(n) / static_cast<double>(accepted);
    };
    const double csw_per_accepted = per_accepted(context_switches() - csw0);
    const double kicks_per_accepted = per_accepted(
        cachetrie::obs::sites::net_client_kicks.total() - kicks0);

    LatencySummary ls;
    ls.p50 = pack(q50);
    ls.p90 = pack(q90);
    ls.p99 = pack(q99);
    ls.p999 = pack(q999);
    ls.ops_per_pass = kRequests;
    ls.passes = kPasses;
    const std::uint64_t gap =
        phase == Phase::kOverload ? kOverloadGapUs : kSteadyGapUs;
    report.add_latency("served_trie",
                       {{"op", phase_name(phase)},
                        {"n", std::to_string(kRequests)},
                        {"rate_rps", std::to_string(1'000'000 / gap)},
                        {"conns", std::to_string(kConns)}},
                       ls);

    std::string notes;
    if (phase == Phase::kOverload) notes = "+1 slow reader";
    if (phase == Phase::kConnChurn) {
      notes = std::to_string(reconnects) + " reconnects";
    }
    if (last.forced_waits > 0) {
      notes += (notes.empty() ? "" : ", ") +
               std::to_string(last.forced_waits) + " forced waits";
    }
    table.add_row({phase_name(phase), std::to_string(1'000'000 / gap),
                   std::to_string(last.accepted), std::to_string(last.shed),
                   std::to_string(last.lost),
                   Table::fmt(ls.p50.mean_ns / 1e3),
                   Table::fmt(ls.p99.mean_ns / 1e3),
                   Table::fmt(ls.p999.mean_ns / 1e3),
                   Table::fmt(csw_per_accepted),
                   Table::fmt(kicks_per_accepted), notes});
  }

  server.stop();
  const auto totals = server.totals();
  // Per-phase decomposition of every served request's shard-side lifetime
  // (PhaseLatency, shard.hpp), merged over both shards — valid to read now
  // that stop() joined the shard threads. Each phase lands as gated
  // p50-p999 stat cells so a tail regression names the phase that moved.
  const net::PhaseLatency phases = server.phase_latency();
  table.print();
  std::printf(
      "\nserver totals: served=%llu shed=%llu deadline=%llu "
      "backpressure_kills=%llu proto_errors=%llu wbuf_hwm=%llu "
      "queue_hwm=%llu degraded=%llu\n",
      static_cast<unsigned long long>(totals.served),
      static_cast<unsigned long long>(totals.shed),
      static_cast<unsigned long long>(totals.deadline_expired),
      static_cast<unsigned long long>(totals.backpressure_kills),
      static_cast<unsigned long long>(totals.proto_errors),
      static_cast<unsigned long long>(totals.wbuf_hwm_bytes),
      static_cast<unsigned long long>(totals.queue_hwm),
      static_cast<unsigned long long>(totals.degraded_replies));
  bench::ReclaimSnapshot::take().print_delta(reclaim0, "fig15 load");

  // Phase histograms are in us; cells convert to ns to match every other
  // latency cell. One merged distribution over the whole run, so the
  // stddev the gate sees is 0 (the gate treats that as "no noise floor",
  // which is right: these are exact per-request stamps, not timer reps).
  const auto phase_summary = [](const cachetrie::obs::LatencyHistogram& h) {
    const auto q = [&h](double p) {
      const double ns = h.quantile(p) * 1e3;
      return LatencyQuantile{ns, 0.0, ns, ns};
    };
    LatencySummary ls;
    ls.p50 = q(0.50);
    ls.p90 = q(0.90);
    ls.p99 = q(0.99);
    ls.p999 = q(0.999);
    ls.ops_per_pass = h.count();
    ls.passes = 1;
    return ls;
  };
  const std::pair<const char*, const cachetrie::obs::LatencyHistogram*>
      phase_cells[] = {{"queue", &phases.queue},
                       {"execute", &phases.execute},
                       {"flush", &phases.flush},
                       {"total", &phases.total}};
  std::printf("\nphase decomposition (us, all served requests):\n");
  for (const auto& [name, hist] : phase_cells) {
    report.add_latency("served_phase", {{"op", name}}, phase_summary(*hist));
    std::printf("  %-8s n=%llu  p50 %.1f  p90 %.1f  p99 %.1f  p999 %.1f\n",
                name, static_cast<unsigned long long>(hist->count()),
                hist->quantile(0.50), hist->quantile(0.90),
                hist->quantile(0.99), hist->quantile(0.999));
  }

  std::printf(
      "\nexpected shape: steady p99 in the low hundreds of us on an idle\n"
      "box; overload sheds (shed > 0) instead of letting the accepted tail\n"
      "run away; churn and hotkey tails stay the same order of magnitude\n"
      "as steady; buffered replies never escape the write cap.\n");

  // The robustness invariants the serving layer exists for — hard failures,
  // not gated cells.
  bool ok = true;
  if (server.killed_shards() != 0) {
    ok = false;
    std::fprintf(stderr, "FAIL: %zu shard(s) died under load\n",
                 server.killed_shards());
  }
  if (totals.proto_errors != 0) {
    ok = false;
    std::fprintf(stderr, "FAIL: %llu protocol errors on a clean generator\n",
                 static_cast<unsigned long long>(totals.proto_errors));
  }
  if (totals.wbuf_hwm_bytes > scfg.shard.write_buf_cap + proto::kReplyWire) {
    ok = false;
    std::fprintf(
        stderr,
        "FAIL: buffered reply bytes %llu escaped write_buf_cap %zu + %zu\n",
        static_cast<unsigned long long>(totals.wbuf_hwm_bytes),
        scfg.shard.write_buf_cap, proto::kReplyWire);
  }
  if (!map.debug_validate().empty()) {
    ok = false;
    std::fprintf(stderr, "FAIL: served map failed debug_validate\n");
  }
  // Phase self-consistency: per request the stamps reuse the serving path's
  // own clock reads, so queue + execute + flush == total exactly; at the
  // histogram level the p50s must still agree within 10% (plus a small
  // absolute floor for bucket interpolation — sub-bucket error is ~1/16).
  const double sum_p50 = phases.queue.quantile(0.50) +
                         phases.execute.quantile(0.50) +
                         phases.flush.quantile(0.50);
  const double total_p50 = phases.total.quantile(0.50);
  const double tol_us = std::max(0.10 * total_p50, 5.0);
  if (phases.total.count() == 0) {
    ok = false;
    std::fprintf(stderr, "FAIL: no served request completed a flush stamp\n");
  } else if (std::abs(sum_p50 - total_p50) > tol_us) {
    ok = false;
    std::fprintf(stderr,
                 "FAIL: phase p50s (%.1f + %.1f + %.1f = %.1f us) drifted "
                 "from total p50 %.1f us by more than %.1f us\n",
                 phases.queue.quantile(0.50), phases.execute.quantile(0.50),
                 phases.flush.quantile(0.50), sum_p50, total_p50, tol_us);
  }

  // Post-run flight-recorder dump: check.sh's plain stage runs the
  // phase-attribution summarizer view over this file.
  if (cachetrie::obs::trace::enabled()) {
    cachetrie::obs::trace::dump_to_file("fig15_served_load");
  }

  const int report_rc = bench::finish_report(report);
  return ok ? report_rc : 1;
}
