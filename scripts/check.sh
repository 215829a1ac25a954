#!/usr/bin/env bash
# check.sh — protocol lint, then build + run the fast test label under
# three toolchains (plain, AddressSanitizer+UBSan, ThreadSanitizer) and in
# the compiled-out configuration (off: CACHETRIE_METRICS OFF, so every site
# handle is a zero-size Null* type and no trace point records), then a
# perf-smoke regression gate (scripts/perf_gate.py vs the committed
# baseline). Each configuration gets its own build tree so they never
# fight over the CMake cache.
#
#   scripts/check.sh            # all stages (lint, plain, asan, tsan, off, perf)
#   scripts/check.sh lint       # one stage (lint|plain|asan|tsan|off|perf)
#
# The fault label (fault-injection + reclamation under stalls + progress
# watchdog, see tests/*fault*, tests/watchdog_progress_test.cpp) runs in the
# plain and tsan stages. It is skipped under ASan because killed victim
# threads intentionally leak their in-flight allocations (simulated thread
# death never runs cleanup) and LeakSanitizer would report exactly those.
#
# The net label (serving-layer connection-fault battery,
# tests/net_fault_test.cpp) runs in the same two stages for the same
# reasons: killed shard threads leak by design, and its latency/liveness
# assertions need the machine to themselves. Those stages then repeat the
# write-path tests (the backpressure cap, the client I/O thread, its park
# against racing sends, and the shard's short reads) 50 times each, after
# 50 runs of the epoch tests for an exited thread's limbo and its adoption.
#
# The trace label (flight recorder: tests/trace_test.cpp and the
# chaos-perturbed tests/trace_smoke_test.cpp, which parks a reader in its
# epoch guard and checks the park/flip/resume timeline) runs in the same
# two stages for the same reason, with $CACHETRIE_TRACE_OUT pointed into
# the build tree; the plain stage then smoke-runs scripts/trace_summarize.py
# over whatever TRACE_*.json the tests dumped.
#
# The plain stage also builds benchmark/ as its own project
# (build-check-benchmark), runs all three of its workloads for 1 s each, and
# counts the fences and locked instructions in the disassembled
# CacheTrie<u64,u64>::lookup of both instantiations it runs, unbounded and
# bounded (and in read_walk, when the compiler keeps that out of line).
#
# The slow label (soak_test, lin_check_test) is excluded here on purpose —
# run `ctest -L slow` in any of the build trees for the long suite. The one
# exception: the asan and tsan stages run the lin-check sweeps
# (`ctest -L slow -R LinSweep`), so every map's linearizability battery also
# runs under a sanitizer.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_stage() {
  local stage="$1"
  shift
  local dir="$repo/build-check-$stage"
  echo "=== [$stage] configure + build ==="
  cmake -B "$dir" -S "$repo" -DCACHETRIE_BUILD_BENCH=OFF \
    -DCACHETRIE_BUILD_EXAMPLES=OFF "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" >/dev/null
  echo "=== [$stage] ctest -L fast ==="
  local -a env_prefix=()
  if [ "$stage" = tsan ]; then
    # The epoch reclaimer's grace-period argument is seq_cst-total-order
    # (Dekker) reasoning that TSan's happens-before model cannot fully
    # express; suppress its quarantined-free paths only (see tsan.supp).
    env_prefix=(env TSAN_OPTIONS="suppressions=$repo/scripts/tsan.supp history_size=7")
  fi
  "${env_prefix[@]}" ctest --test-dir "$dir" -L fast --output-on-failure -j "$jobs"
  if [ "$stage" = asan ] || [ "$stage" = tsan ]; then
    echo "=== [$stage] ctest -L slow -R LinSweep ==="
    # The lin-check sweeps drive every map through seeded chaos schedules;
    # under a sanitizer a lost-CAS teardown that frees a shared node, or an
    # unordered publication, fails here instead of corrupting a history.
    "${env_prefix[@]}" ctest --test-dir "$dir" -L slow -R LinSweep \
      --output-on-failure -j 1
  fi
  if [ "$stage" = plain ] || [ "$stage" = tsan ]; then
    echo "=== [$stage] ctest -L bounded ==="
    # Bounded-memory mode lin-check battery. The plain stage runs the full
    # 8-seed x 1250-history sweep; tsan gets a shorter sweep per seed (the
    # instrumented build is ~20x slower and the schedules it explores are
    # already radically different).
    local -a bounded_env=()
    if [ "$stage" = tsan ]; then
      bounded_env=(env CACHETRIE_BOUNDED_LIN_HISTORIES=150)
    fi
    "${env_prefix[@]}" "${bounded_env[@]}" \
      ctest --test-dir "$dir" -L bounded --output-on-failure -j 1
    echo "=== [$stage] ctest -L fault ==="
    # Liveness windows: the watchdog asserts per-tick progress, so never
    # run fault tests in parallel with each other on a loaded box.
    "${env_prefix[@]}" ctest --test-dir "$dir" -L fault --output-on-failure -j 1
    echo "=== [$stage] ctest -L net ==="
    # Serving-layer fault battery (tests/net_fault_test.cpp): loopback
    # servers with killed/stalled shard threads and latency assertions —
    # same two reasons as fault (leaky victims, liveness windows), so the
    # same stages and the same -j 1.
    "${env_prefix[@]}" ctest --test-dir "$dir" -L net --output-on-failure -j 1
    echo "=== [$stage] ctest -L trace ==="
    local trace_out="$dir/trace-out"
    rm -rf "$trace_out" && mkdir -p "$trace_out"
    "${env_prefix[@]}" env CACHETRIE_TRACE_OUT="$trace_out" \
      ctest --test-dir "$dir" -L trace --output-on-failure -j 1
    if [ "$stage" = plain ]; then
      echo "=== [$stage] trace_summarize smoke (strict) ==="
      # --strict: a dump without its embedded event table, or an event
      # name missing from that table, fails the stage instead of scrolling
      # by as a warning.
      python3 "$repo/scripts/trace_summarize.py" --strict --top 5 \
        "$trace_out"/TRACE_*.json
      echo "=== [$stage] fig15 phase-attribution trace smoke ==="
      # Flip benches on in the same tree (cache update; only fig15 and its
      # objects build), run the served-load bench with the flight recorder
      # live, and smoke the summarizer's tail-attribution view over the
      # dump — stdlib only, non-zero exit on a malformed dump, and the
      # view itself must be present.
      cmake -B "$dir" -S "$repo" -DCACHETRIE_BUILD_BENCH=ON >/dev/null
      cmake --build "$dir" -j "$jobs" --target fig15_served_load >/dev/null
      (cd "$dir" && env CACHETRIE_TRACE_ENABLE=1 \
        CACHETRIE_TRACE_OUT="$trace_out" CACHETRIE_TRACE_RING=65536 \
        ./bench/fig15_served_load >/dev/null)
      python3 "$repo/scripts/trace_summarize.py" --strict --top 5 \
        "$trace_out/TRACE_fig15_served_load.json" \
        | tee "$trace_out/fig15_phase_view.txt"
      grep -q "tail attribution" "$trace_out/fig15_phase_view.txt" || {
        echo "FAIL: fig15 dump produced no tail-attribution view" >&2
        exit 1
      }
      echo "=== [$stage] cachetrie_server cross-process smoke ==="
      # The example server is the only client of the wire protocol that
      # runs in another process, and the only one outside the tests that
      # reads the stats frame. Start it on a kernel-assigned port, drive
      # data ops, a kStats pull (must be valid JSON) and kTraceCtl on/off
      # from separate client processes, then drain it with SIGINT: it must
      # exit 0 and print its served= report. One timeout bounds the whole
      # smoke (it signals the process group, server included), so a hang
      # fails the stage instead of wedging it.
      cmake -B "$dir" -S "$repo" -DCACHETRIE_BUILD_EXAMPLES=ON >/dev/null
      cmake --build "$dir" -j "$jobs" --target cachetrie_server >/dev/null
      timeout 120 bash -c '
        set -euo pipefail
        bin="$1" log="$2"
        "$bin" 0 2 16 >"$log" 2>&1 &
        pid=$!
        port=""
        for _ in $(seq 100); do
          port="$(sed -n "1s/.*127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p" "$log")"
          [ -n "$port" ] && break
          sleep 0.1
        done
        if [ -z "$port" ]; then
          kill "$pid"
          echo "FAIL: cachetrie_server printed no port" >&2
          exit 1
        fi
        "$bin" --client "$port" 2000
        "$bin" --stats "$port" | python3 -m json.tool >/dev/null
        "$bin" --trace-ctl "$port" on
        "$bin" --trace-ctl "$port" off
        kill -INT "$pid"
        wait "$pid"
        grep "served=" "$log"
      ' _ "$dir/examples/cachetrie_server" "$dir/server-smoke.log" || {
        tail -n 20 "$dir/server-smoke.log" >&2 || true
        echo "FAIL: cachetrie_server cross-process smoke" >&2
        exit 1
      }
      echo "=== [$stage] benchmark/ build + 1 s run of every workload ==="
      # benchmark/ is its own CMake project over ../src and spells map
      # names that nothing else here compiles. Build it the way
      # benchmark/run.py does and require each workload's own correctness
      # checks to pass in a short untraced run (exit 0).
      local bench_dir="$repo/build-check-benchmark"
      cmake -S "$repo/benchmark" -B "$bench_dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
      cmake --build "$bench_dir" -j "$jobs" >/dev/null
      "$bench_dir/cachetrie_benchmark" --seconds 1 \
        >"$bench_dir/smoke.log" 2>&1 || {
        tail -n 20 "$bench_dir/smoke.log" >&2
        echo "FAIL: cachetrie_benchmark --seconds 1 exited non-zero" >&2
        exit 1
      }
      echo "=== [$stage] lookup disassembly: no new locked instruction ==="
      # protocol_lint's [read-path] rule reads only marked bodies, not what
      # they call or what inlining makes of them; this reads the machine
      # code of the two instantiations benchmark/ runs: the unbounded trie
      # (map_read_large, map_churn_small) and the bounded one
      # (served_evict_churn). The unbounded lookup may hold no locked
      # instruction; the bounded one one, its op tick (`lock xadd` in
      # evict::Policy::horizon). The pin's xchg sits out of line in
      # EpochDomain::enter, and `xchg %ax,%ax` is a nop with no memory
      # operand, so neither counts. read_walk, the read-only descent lookup
      # and the depth sampling share, is read too whenever the compiler
      # keeps a copy of it out of line, and may hold no locked instruction.
      # No function read here may hold an mfence. note_leaf_level is left
      # out: its one `lock xadd` is the first-use counter of
      # util::current_thread_id() in the miss count it inlines, a slow path.
      local trie_args='unsigned long, unsigned long, cachetrie::util::DefaultHash<unsigned long>, cachetrie::mr::EpochReclaimer'
      local bounded fn max_locked asm fences locked
      objdump -d -C --no-show-raw-insn "$bench_dir/cachetrie_benchmark" \
        >"$bench_dir/benchmark.s"
      for bounded in false true; do
        for fn in lookup read_walk; do
          asm="$bench_dir/$fn.$bounded.s"
          # Every out-of-line copy, clones included: the header lines of
          # symbols that start with the member's name.
          awk -v sym="<cachetrie::CacheTrie<$trie_args, $bounded>::$fn(" \
            '/^[0-9a-f]+ </ && index($0, sym) { f = 1; next } /^$/ { f = 0 } f' \
            "$bench_dir/benchmark.s" >"$asm"
          max_locked=0
          if [ "$fn" = lookup ]; then
            if [ "$bounded" = true ]; then max_locked=1; fi
            if [ ! -s "$asm" ]; then
              echo "FAIL: no out-of-line CacheTrie<..., $bounded>::lookup in the benchmark binary" >&2
              exit 1
            fi
          elif [ ! -s "$asm" ]; then
            echo "$fn (Bounded=$bounded): inlined into its callers"
            continue
          fi
          fences="$(grep -cE '^ *[0-9a-f]+:[[:space:]]+mfence' "$asm" || true)"
          locked="$(grep -cE '^ *[0-9a-f]+:[[:space:]]+(lock[[:space:]]|xchg[bwlq]?[[:space:]][^#]*\()' \
            "$asm" || true)"
          echo "$fn (Bounded=$bounded): $(wc -l <"$asm") instructions," \
            "$fences mfence, $locked locked (at most $max_locked)"
          if [ "$fences" -ne 0 ] || [ "$locked" -gt "$max_locked" ]; then
            grep -nE 'mfence|lock[[:space:]]|xchg' "$asm" >&2
            echo "FAIL: CacheTrie<..., $bounded>::$fn gained a fence or a locked instruction" >&2
            exit 1
          fi
        done
      done
    fi
    local quiet_passes='!/^(\[==========\]|\[  PASSED  \]|Repeating all|$)/'
    echo "=== [$stage] epoch exit-path repeats ==="
    # An exited thread's limbo stays on its released record. The
    # collect_released sweep's claim races both the next thread's claim of
    # that record and its release, a window one run rarely hits, so the
    # exit and adoption tests run 50 times each.
    echo "Epoch exited-thread and adoption tests x50"
    "${env_prefix[@]}" timeout 120 "$dir/tests/epoch_test" \
      --gtest_filter='Epoch.*Exited*:Epoch.*Adopt*' \
      --gtest_repeat=50 --gtest_brief=1 | awk "$quiet_passes"
    echo "=== [$stage] net write-path repeats ==="
    # The write cap and the client's I/O thread depend on how the kernel
    # splits and refuses writes, which varies run to run, so the client
    # I/O tests and the backpressure cap test run 50 times each. The
    # timeout turns a wedged connection into a failure instead of a hang.
    # The cap test's raw client can wedge its own TCP connection (ROADMAP,
    # flake list), so this step runs last and masks no other check.
    echo "NetClient I/O and shard short-read tests x50"
    "${env_prefix[@]}" timeout 120 "$dir/tests/net_proto_test" \
      --gtest_filter='NetClient.PipelinedBurst*:NetClient.BurstPast*:NetClient.CloseWith*:NetClient.SendAfter*:NetClient.SendRacingPark*:NetServe.ShortRead*' \
      --gtest_repeat=50 --gtest_brief=1 | awk "$quiet_passes"
    echo "NetFault.BackpressureCapsAndKillsNonReadingClient x50"
    "${env_prefix[@]}" timeout 120 "$dir/tests/net_fault_test" \
      --gtest_filter='NetFault.BackpressureCapsAndKillsNonReadingClient' \
      --gtest_repeat=50 --gtest_brief=1 | awk "$quiet_passes"
  fi
}

# Perf-smoke stage: build the metrics-ON bench tree, run the fixed-size
# canary, and gate the artifact against the committed baseline. Tolerances
# are deliberately generous (+100% and 3 sigma) — the baseline was recorded
# on one container; this catches order-of-magnitude breakage (an accidental
# O(n) scan on the hot path), not single-digit drift.
run_perf() {
  local dir="$repo/build-check-perf"
  echo "=== [perf] configure + build perf_smoke (metrics ON) ==="
  cmake -B "$dir" -S "$repo" -DCACHETRIE_BUILD_TESTS=OFF \
    -DCACHETRIE_BUILD_EXAMPLES=OFF -DCACHETRIE_BUILD_BENCH=ON \
    -DCACHETRIE_METRICS=ON >/dev/null
  cmake --build "$dir" -j "$jobs" --target perf_smoke \
    --target fig14_bounded_churn --target fig15_served_load >/dev/null
  echo "=== [perf] run perf_smoke ==="
  (cd "$dir" && ./bench/perf_smoke)
  echo "=== [perf] gate vs committed baseline ==="
  python3 "$repo/scripts/perf_gate.py" \
    "$repo/bench/BENCH_smoke.baseline.json" "$dir/BENCH_smoke.json" \
    --tolerance 1.0 --min-ms 0.5 --noise-stddevs 3
  # Bounded-mode churn/zipf canary: the binary itself hard-fails if the
  # resident high-water mark escapes the byte ceiling (+ overshoot slack);
  # the gate then watches the footprint/miss-rate/timing cells for drift.
  echo "=== [perf] run fig14_bounded_churn ==="
  (cd "$dir" && ./bench/fig14_bounded_churn)
  echo "=== [perf] gate fig14 vs committed baseline ==="
  python3 "$repo/scripts/perf_gate.py" \
    "$repo/bench/BENCH_fig14_bounded_churn.baseline.json" \
    "$dir/BENCH_fig14_bounded_churn.json" \
    --tolerance 1.0 --min-ms 0.5 --noise-stddevs 3
  # Serving-layer canary: the binary hard-fails on the robustness
  # invariants themselves (shard death, protocol errors, a write-buffer
  # escape); the gate watches the open-loop tail cells for drift. Wider
  # tolerance than the in-process gates — these tails cross the kernel
  # socket path and a 1-core scheduler.
  echo "=== [perf] run fig15_served_load ==="
  (cd "$dir" && ./bench/fig15_served_load)
  echo "=== [perf] gate fig15 vs committed baseline ==="
  python3 "$repo/scripts/perf_gate.py" \
    "$repo/bench/BENCH_fig15_served_load.baseline.json" \
    "$dir/BENCH_fig15_served_load.json" \
    --tolerance 3.0 --min-ms 0.5 --noise-stddevs 4
}

# Lint stage: no build tree needed — runs the static protocol checks
# (scripts/protocol_lint.py) over src/ plus the fixture self-test. First
# in `all` so a contract violation fails in seconds, before any compile.
run_lint() {
  echo "=== [lint] protocol_lint src/ ==="
  python3 "$repo/scripts/protocol_lint.py" "$repo/src"
  echo "=== [lint] protocol_lint --self-test ==="
  python3 "$repo/scripts/protocol_lint.py" \
    --self-test "$repo/tests/lint_fixtures"
}

want="${1:-all}"

# Provenance: a green run names the machine width, compiler, commit, and the
# transparent-huge-page mode. The node pool (src/mr/node_pool.hpp) asks for
# huge pages with madvise; under `never` it gets 4 KiB pages and the large
# read workloads lose that gain, so a result must say which mode it ran under.
thp="$(sed -n 's/.*\[\(.*\)\].*/\1/p' \
  /sys/kernel/mm/transparent_hugepage/enabled 2>/dev/null || true)"
echo "=== provenance: nproc=$(nproc 2>/dev/null || echo unknown)" \
  "compiler=\"$( (c++ --version 2>/dev/null || echo unknown) | head -n 1)\"" \
  "commit=$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  "thp=${thp:-unknown} ==="

case "$want" in
  lint) run_lint ;;
  plain) run_stage plain ;;
  asan) run_stage asan -DCACHETRIE_SANITIZE=ON ;;
  tsan) run_stage tsan -DCACHETRIE_TSAN=ON ;;
  off) run_stage off -DCACHETRIE_METRICS=OFF ;;
  perf) run_perf ;;
  all)
    run_lint
    run_stage plain
    run_stage asan -DCACHETRIE_SANITIZE=ON
    run_stage tsan -DCACHETRIE_TSAN=ON
    run_stage off -DCACHETRIE_METRICS=OFF
    run_perf
    ;;
  *)
    echo "usage: $0 [lint|plain|asan|tsan|off|perf|all]" >&2
    exit 2
    ;;
esac

echo "=== all requested stages passed ==="
