// main.cpp — cachetrie_benchmark: runs the repo benchmark's workloads,
// checks every output, and prints each end-to-end metric by name and unit,
// the run environment, and one JSON record per workload.
//
//   cachetrie_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace DIR]
//
// Without --workload all three workloads run. Each workload sets up its
// program (timed several times), runs one 1 s warm-up window, then S
// measured 1 s windows (default 36); end-to-end values are medians over
// the windows. --trace DIR makes a traced run: the even windows record
// spans, and each workload's spans and layer counters are written to
// DIR/<workload>_s<seed>.json (Chrome trace JSON) for summarize.py.
//
// Exit status: 0 when every check passed, 1 on a correctness violation,
// 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "map_workloads.hpp"
#include "served_workloads.hpp"

namespace {

using namespace ctbench;

constexpr const char* kWorkloads[] = {"map_read_large", "map_churn_small",
                                      kServedName};

RunResult run_workload(std::string_view name, const Options& opt) {
  if (name == "map_read_large") return run_map(kMapReadLarge, opt);
  if (name == "map_churn_small") return run_map(kMapChurnSmall, opt);
  return opt.traced ? run_served<true>(opt) : run_served<false>(opt);
}

// --- run environment ---------------------------------------------------------

struct Env {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type = CTBENCH_BUILD_TYPE;
  std::string git_sha = "unknown";
};

Env read_env() {
  Env env;
  env.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#else
  env.compiler = std::string("gcc ") + __VERSION__;
#endif
  // Only ask git when the source tree is a checkout of its own, so the
  // lookup never climbs into an enclosing repository.
  const std::filesystem::path root =
      std::filesystem::path(CTBENCH_SOURCE_DIR).parent_path();
  if (std::filesystem::exists(root / ".git")) {
    const std::string cmd = "git -C '" + root.string() + "' rev-parse HEAD 2>/dev/null";
    if (FILE* p = popen(cmd.c_str(), "r")) {
      char buf[64] = {};
      if (std::fgets(buf, sizeof(buf), p) != nullptr) {
        std::string sha(buf);
        while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
          sha.pop_back();
        }
        if (!sha.empty()) env.git_sha = sha;
      }
      pclose(p);
    }
  }
  return env;
}

void write_env(JsonOut& j, const Env& env, const Clock& clock) {
  j.begin_object()
      .field("nproc", static_cast<std::uint64_t>(env.nproc))
      .field("compiler", env.compiler)
      .field("build_type", env.build_type)
      .field("git_sha", env.git_sha)
      .field("metrics", "compiled")
      .field("trace", "compiled, off at runtime")
      .field("clock_overhead_ns", clock.overhead_ns)
      .end_object();
}

// --- output ------------------------------------------------------------------

void print_human(const RunResult& r) {
  std::printf("== %s  seed %llu  %zu x 1 s windows (%s)\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.seed), r.windows.size(),
              r.traced ? "traced: even windows" : "untraced");
  const double steal = r.steal_frac;
  std::printf("  %-20s %.4f\n", "host.steal_frac", steal);
  if (steal > 0.05) {
    std::printf("  WARNING: host steal %.1f%% exceeds 5%% over the measured "
                "windows; treat this run's numbers as noisy\n",
                steal * 100.0);
  }
  for (const Metric& m : end_to_end(r)) {
    std::printf("  %-20s %.6g %s\n", m.name, m.value, m.unit);
  }
  const double failed_frac =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  %-20s %.6g fraction (%llu failed of %llu attempted)\n",
              "failed_frac", failed_frac,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  if (r.correct()) {
    std::printf("  correct: all checks passed\n");
  } else {
    for (const std::string& e : r.errors) {
      std::printf("  FAIL: %s\n", e.c_str());
    }
  }
}

void write_windows(JsonOut& j, const RunResult& r) {
  j.begin_array();
  for (const WindowRow& w : r.windows) {
    j.begin_object()
        .field("index", w.index)
        .field("traced", w.traced)
        .field("used", w.used)
        .field("seconds", w.seconds)
        .field("steal_frac", w.steal_frac)
        .field("samples", w.samples)
        .field("ops_per_s", w.ops_per_s)
        .field("wall_ops_per_s", w.wall_ops_per_s)
        .field("run_frac", w.run_frac)
        .field("op_p50_ns", w.op_p50_ns)
        .field("op_p99_ns", w.op_p99_ns)
        .field("get_hit_frac", w.get_hit_frac)
        .end_object();
  }
  j.end_array();
}

/// The workload's one-line JSON record: what run.py and compare.py parse.
void print_record(const RunResult& r, const Env& env, const Clock& clock,
                  const std::string& trace_file) {
  std::ostringstream os;
  JsonOut j(os);
  j.begin_object()
      .field("workload", r.workload)
      .field("seed", r.seed)
      .field("traced", r.traced)
      .field("correct", r.correct())
      .field("attempted", r.attempted)
      .field("failed", r.failed);
  j.key("errors").begin_array();
  for (const std::string& e : r.errors) j.value(e);
  j.end_array();
  j.key("env");
  write_env(j, env, clock);
  j.field("host.steal_frac", r.steal_frac);
  j.key("metrics").begin_object();
  for (const Metric& m : end_to_end(r)) {
    j.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  j.end_object();
  j.key("setup_seconds").begin_array();
  for (const double s : r.setups.seconds) j.value(s);
  j.end_array();
  j.key("setup_cpus").begin_array();
  for (const int c : r.setups.cpus) j.value(c);
  j.end_array();
  j.key("windows");
  write_windows(j, r);
  if (!trace_file.empty()) j.field("trace_file", trace_file);
  j.end_object();
  std::printf("%s\n", os.str().c_str());
}

// --- traced-run dump ---------------------------------------------------------

void write_latency(JsonOut& j, std::string_view name,
                   const obs::LatencyHistogram& h) {
  j.key(name)
      .begin_object()
      .field("count", h.count())
      .field("p50", h.quantile(0.50))
      .field("p99", h.quantile(0.99))
      .end_object();
}

/// Chrome trace JSON: the spans as complete ("X") events, and under
/// otherData everything summarize.py derives the per-layer metrics from.
bool write_dump(const std::string& path, const RunResult& r, const Clock& clock) {
  std::ofstream f(path);
  if (!f) return false;
  JsonOut j(f);
  const LayerData& ly = r.layers;
  j.begin_object().field("displayTimeUnit", "ns");
  j.key("otherData").begin_object();
  j.field("workload", r.workload)
      .field("seed", r.seed)
      .field("ns_per_tick", clock.ns_per_tick)
      .field("clock_overhead_ns", clock.overhead_ns)
      .field("host.steal_frac", r.steal_frac);
  j.key("windows");
  write_windows(j, r);
  j.key("calls")
      .begin_object()
      .field("ops", r.measured.ops)
      .field("failed", r.measured.failed)
      .field("gets", r.measured.gets)
      .field("hits", r.measured.hits)
      .field("puts", r.measured.puts)
      .field("removes", r.measured.removes)
      .end_object();
  // Registry deltas over the measured windows.
  j.key("counters").begin_object();
  for (const auto& c : ly.registry_end.counters) {
    j.field(c.name, c.value - ly.registry_begin.counter_value(c.name));
  }
  j.end_object();
  for (const auto* side : {&ly.registry_begin, &ly.registry_end}) {
    j.key(side == &ly.registry_begin ? "gauges_begin" : "gauges_end").begin_object();
    for (const auto& g : side->gauges) j.field(g.name, g.value);
    j.end_object();
  }
  j.key("histograms").begin_object();
  for (const auto& h : ly.registry_end.histograms) {
    const auto* before = ly.registry_begin.find_histogram(h.name);
    j.key(h.name)
        .begin_object()
        .field("count", h.count - (before ? before->count : 0))
        .field("sum", h.sum - (before ? before->sum : 0))
        .end_object();
  }
  j.end_object();
  j.key("map")
      .begin_object()
      .field("size", static_cast<std::uint64_t>(ly.size))
      .field("footprint_bytes", static_cast<std::uint64_t>(ly.footprint_bytes))
      .field("cache_level", static_cast<std::int64_t>(ly.cache_level))
      .field("level_top_pair_share", ly.level_top_pair_share)
      .field("ceiling_bytes", static_cast<std::uint64_t>(ly.ceiling_bytes))
      .field("resident_max_bytes", static_cast<std::uint64_t>(ly.resident_max_bytes))
      .end_object();
  j.key("server");
  if (ly.totals && ly.phases) {
    const net::ServerTotals& t = *ly.totals;
    j.begin_object()
        .field("served", t.served)
        .field("shed", t.shed)
        .field("deadline_expired", t.deadline_expired)
        .field("degraded_replies", t.degraded_replies)
        .field("proto_errors", t.proto_errors)
        .field("queue_hwm", t.queue_hwm);
    j.key("phase_us").begin_object();
    write_latency(j, "queue", ly.phases->queue);
    write_latency(j, "execute", ly.phases->execute);
    write_latency(j, "flush", ly.phases->flush);
    write_latency(j, "total", ly.phases->total);
    j.end_object().end_object();
  } else {
    j.begin_object().end_object();
  }
  j.end_object();  // otherData

  std::uint64_t base = ~std::uint64_t{0};
  SpanLog::instance().for_each(
      [&](std::uint32_t, const Span& s) { base = std::min(base, s.t0); });
  j.key("traceEvents").begin_array();
  SpanLog::instance().for_each([&](std::uint32_t tid, const Span& s) {
    j.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", static_cast<std::uint64_t>(tid))
        .field("ts", clock.ns(s.t0 - base) / 1e3)
        .field("dur", clock.ns(s.t1 - s.t0) / 1e3);
    j.key("args").begin_object();
    if (s.has_id) j.field("id", s.id);
    if (s.cause != nullptr) j.field("cause", s.cause);
    if (s.has_key) j.field("key", s.key);
    j.end_object().end_object();
  });
  j.end_array().end_object();
  f << '\n';
  return static_cast<bool>(f);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: cachetrie_benchmark [--workload NAME] "
               "[--seed N] [--seconds S] [--trace DIR]\nworkloads:",
               msg);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string only;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      only = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, &n)) return usage("--seed takes a whole number");
      opt.seed = n;
    } else if (a == "--seconds") {
      if (!parse_u64(v, &n) || n < 1 || n > 600) {
        return usage("--seconds takes a whole number from 1 to 600");
      }
      opt.seconds = static_cast<int>(n);
    } else if (a == "--trace") {
      trace_dir = v;
    } else {
      return usage("unknown option");
    }
  }
  opt.traced = !trace_dir.empty();
  if (opt.traced && opt.seconds < 2) {
    return usage("a traced run needs --seconds 2 or more");
  }
  std::vector<std::string> selected;
  for (const char* w : kWorkloads) {
    if (only.empty() || only == w) selected.emplace_back(w);
  }
  if (selected.empty()) return usage("unknown workload");
  if (opt.traced) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) return usage("cannot create the trace directory");
  }

  opt.clock = Clock::calibrate();
  const Env env = read_env();
  std::printf("env nproc=%u compiler=\"%s\" build_type=%s git_sha=%s "
              "metrics=compiled trace=compiled,off clock_overhead_ns=%.2f\n",
              env.nproc, env.compiler.c_str(), env.build_type.c_str(),
              env.git_sha.c_str(), opt.clock.overhead_ns);
  std::fflush(stdout);

  bool all_correct = true;
  for (const std::string& name : selected) {
    SpanLog::instance().clear();
    RunResult r = run_workload(name, opt);
    std::string trace_file;
    if (opt.traced) {
      trace_file = (std::filesystem::path(trace_dir) /
                    (name + "_s" + std::to_string(opt.seed) + ".json"))
                       .string();
      if (!write_dump(trace_file, r, opt.clock)) {
        r.errors.push_back("could not write " + trace_file);
      }
    }
    print_human(r);
    print_record(r, env, opt.clock, trace_file);
    std::fflush(stdout);
    all_correct = all_correct && r.correct();
  }
  return all_correct ? 0 : 1;
}
