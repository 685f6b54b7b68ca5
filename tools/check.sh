#!/usr/bin/env bash
#===- tools/check.sh - build + test driver --------------------------------===#
#
# The repo's CI-style check flow.
#
#   tools/check.sh                 # tier-1: configure, build, ctest -L tier1
#   tools/check.sh --stress        # ... then also run ctest -L stress
#                                  #     pinned to 1, 2 and all CPUs
#                                  #     (taskset), one pass per CPU set
#   tools/check.sh --tsan          # ... then a -DREN_SANITIZE=thread build
#                                  #     and the runtime/stress tests under it
#   tools/check.sh --asan          # ... a -DREN_SANITIZE=address build and
#                                  #     the allocation-substrate tests
#                                  #     under it (ctest -L alloc:
#                                  #     test_runtime incl. HeapTest, and
#                                  #     the stress_alloc races)
#   tools/check.sh --trace         # ... the ren::trace tier: ctest -L trace
#                                  #     in the tier-1 build, then the same
#                                  #     label (incl. stress_trace) under TSan
#   tools/check.sh --stress --tsan # everything
#   tools/check.sh --bench-smoke   # Release build, run the fork/join,
#                                  #     monitor and streams/dispatch
#                                  #     microbenchmarks briefly and emit
#                                  #     BENCH_forkjoin.json (ops/s for
#                                  #     ping, parallelFor, steal-heavy),
#                                  #     BENCH_monitor.json (uncontended
#                                  #     enter/exit, 2/8-thread contended
#                                  #     throughput as ratios against
#                                  #     same-run std::mutex twins, and
#                                  #     wait/notify ping; ungated) and
#                                  #     BENCH_streams.json (method-handle
#                                  #     dispatch, fused serial pipeline,
#                                  #     parallel scrabble-style pipeline,
#                                  #     and the terminal x size x threads
#                                  #     scaling matrix, vs the committed
#                                  #     eager baseline; any matrix cell
#                                  #     >20% below baseline fails) and
#                                  #     BENCH_netsim.json (reactor
#                                  #     connection-scaling matrix, conns x
#                                  #     shards up to 100000 connections,
#                                  #     an RSS-per-connection footprint
#                                  #     cell and a fixed-rate latency
#                                  #     cell with p50/p99/p999; any cell
#                                  #     >20% below
#                                  #     bench/BASELINE_netsim.json fails;
#                                  #     the 10^6-connection tier needs
#                                  #     bench_netsim --huge and is never
#                                  #     run here) and BENCH_alloc.json (the
#                                  #     managed-heap substrate cells vs
#                                  #     their malloc twins; any substrate
#                                  #     cell >20% below the committed
#                                  #     bench/BASELINE_alloc.json
#                                  #     reference fails) and BENCH_jit.json
#                                  #     (tiered-execution cells: warmup
#                                  #     AUC over the first 100 invocations
#                                  #     for tiered vs interpreter-only vs
#                                  #     compile-first, steady-state parity
#                                  #     with AOT, the mono/bi/mega inline-
#                                  #     cache ladder and the deopt-storm
#                                  #     recompile bound; all deterministic
#                                  #     modelled cycles, gated >20% below
#                                  #     bench/BASELINE_jit.json)
#
# Options:
#   --build-dir DIR   tier-1 build tree            (default: build)
#   --tsan-dir DIR    TSan build tree              (default: build-tsan)
#   --asan-dir DIR    ASan build tree              (default: build-asan)
#   --bench-dir DIR   Release bench build tree     (default: build-bench)
#   --jobs N          parallel build/test jobs     (default: nproc)
#
#===------------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
TSAN_DIR=build-tsan
ASAN_DIR=build-asan
BENCH_DIR=build-bench
JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_STRESS=0
RUN_TSAN=0
RUN_ASAN=0
RUN_TRACE=0
RUN_BENCH=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --stress) RUN_STRESS=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --asan) RUN_ASAN=1 ;;
    --trace) RUN_TRACE=1 ;;
    --bench-smoke) RUN_BENCH=1 ;;
    --build-dir|--tsan-dir|--asan-dir|--bench-dir|--jobs)
      if [[ $# -lt 2 ]]; then
        echo "missing value for $1 (try --help)" >&2
        exit 2
      fi
      case "$1" in
        --build-dir) BUILD_DIR="$2" ;;
        --tsan-dir) TSAN_DIR="$2" ;;
        --asan-dir) ASAN_DIR="$2" ;;
        --bench-dir) BENCH_DIR="$2" ;;
        --jobs) JOBS="$2" ;;
      esac
      shift
      ;;
    -h|--help)
      sed -n '2,22p' "$0" | sed 's/^#//'
      exit 0
      ;;
    *)
      echo "unknown option: $1 (try --help)" >&2
      exit 2
      ;;
  esac
  shift
done

step() { echo; echo "=== $* ==="; }

step "tier-1: configure ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S .

step "tier-1: build"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "tier-1: ctest -L tier1"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

if [[ "$RUN_STRESS" == 1 ]]; then
  # CPU-count matrix: every stress scenario pinned to 1 CPU, to 2 CPUs,
  # and on every CPU this process may use.
  read -r -a CPUS <<<"$(python3 -c \
    'import os; print(*sorted(os.sched_getaffinity(0)))')"
  CPU_SETS=("${CPUS[0]}")
  if [[ ${#CPUS[@]} -gt 1 ]]; then
    CPU_SETS+=("${CPUS[0]},${CPUS[1]}")
  fi
  if [[ ${#CPUS[@]} -gt 2 ]]; then
    CPU_SETS+=("$(IFS=,; echo "${CPUS[*]}")")
  fi
  for SET in "${CPU_SETS[@]}"; do
    step "stress: ctest -L stress under taskset -c $SET"
    taskset -c "$SET" ctest --test-dir "$BUILD_DIR" -L stress \
      --output-on-failure -j "$JOBS"
  done
fi

if [[ "$RUN_TRACE" == 1 ]]; then
  step "trace: ctest -L trace"
  ctest --test-dir "$BUILD_DIR" -L trace --output-on-failure -j "$JOBS"

  step "trace: configure ($TSAN_DIR, -DREN_SANITIZE=thread)"
  cmake -B "$TSAN_DIR" -S . -DREN_SANITIZE=thread

  step "trace: build"
  cmake --build "$TSAN_DIR" -j "$JOBS"

  step "trace: ctest -L trace under TSan (incl. stress_trace)"
  ctest --test-dir "$TSAN_DIR" -L trace --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  step "tsan: configure ($TSAN_DIR, -DREN_SANITIZE=thread)"
  cmake -B "$TSAN_DIR" -S . -DREN_SANITIZE=thread

  step "tsan: build"
  cmake --build "$TSAN_DIR" -j "$JOBS"

  step "tsan: runtime tests under TSan"
  ctest --test-dir "$TSAN_DIR" -R '^test_runtime$' --output-on-failure

  step "tsan: stress label under TSan"
  ctest --test-dir "$TSAN_DIR" -L stress --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  step "asan: configure ($ASAN_DIR, -DREN_SANITIZE=address)"
  cmake -B "$ASAN_DIR" -S . -DREN_SANITIZE=address

  step "asan: build test_runtime + stress_alloc"
  cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target test_runtime --target stress_alloc

  step "asan: allocation-substrate tests under ASan (ctest -L alloc)"
  ctest --test-dir "$ASAN_DIR" -L alloc -E bench_alloc_smoke \
    --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  step "bench-smoke: configure ($BENCH_DIR, Release)"
  cmake -B "$BENCH_DIR" -S . -DCMAKE_BUILD_TYPE=Release

  step "bench-smoke: build bench_micro_substrates + bench_scaling_matrix + bench_netsim + bench_alloc + bench_jit_tiered"
  cmake --build "$BENCH_DIR" -j "$JOBS" \
    --target bench_micro_substrates --target bench_scaling_matrix \
    --target bench_netsim --target bench_alloc --target bench_jit_tiered

  step "bench-smoke: fork/join microbenchmarks"
  RAW_JSON="$BENCH_DIR/bench_forkjoin_raw.json"
  # ~2s cap per case: min_time 0.3s x 3 repetition-free cases plus
  # warmup stays well under it; the outer timeout is the hard stop.
  # (This Google Benchmark build wants min_time as a plain double.)
  timeout 120 "$BENCH_DIR/bench/bench_micro_substrates" \
    --benchmark_filter='BM_ForkJoin(Ping|ParallelFor|StealHeavyFib)' \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_JSON" --benchmark_out_format=json

  step "bench-smoke: write BENCH_forkjoin.json"
  python3 - "$RAW_JSON" bench/BASELINE_forkjoin.json <<'EOF'
import json, os, sys
raw = json.load(open(sys.argv[1]))
base = {}
if os.path.exists(sys.argv[2]):
    base = json.load(open(sys.argv[2])).get("benchmarks", {})
cases = {}
for b in raw.get("benchmarks", []):
    ops = b.get("items_per_second")
    if ops is None:
        continue
    c = {"ops_per_second": ops, "real_time_ns": b.get("real_time")}
    ref = base.get(b["name"], {}).get("ops_per_second")
    if ref:
        c["baseline_ops_per_second"] = ref
        c["speedup_vs_mutex_deque"] = round(ops / ref, 2)
    cases[b["name"]] = c
out = {"context": {"date": raw["context"].get("date"),
                   "num_cpus": raw["context"].get("num_cpus")},
       "baseline": "bench/BASELINE_forkjoin.json (mutex-deque scheduler)",
       "benchmarks": cases}
json.dump(out, open("BENCH_forkjoin.json", "w"), indent=2)
print("wrote BENCH_forkjoin.json:")
for name, c in cases.items():
    extra = ""
    if "speedup_vs_mutex_deque" in c:
        extra = f"  ({c['speedup_vs_mutex_deque']}x vs mutex-deque)"
    print(f"  {name}: {c['ops_per_second']:.3e} ops/s{extra}")
EOF

  step "bench-smoke: monitor microbenchmarks (with std::mutex twins)"
  RAW_MON="$BENCH_DIR/bench_monitor_raw.json"
  timeout 120 "$BENCH_DIR/bench/bench_micro_substrates" \
    --benchmark_filter='BM_MonitorUncontended$|BM_MonitorContendedEnterExit|BM_MonitorWaitNotifyPing|BM_StdMutexUncontended$|BM_StdMutexContendedEnterExit' \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_MON" --benchmark_out_format=json

  step "bench-smoke: write BENCH_monitor.json (ungated)"
  python3 - "$RAW_MON" <<'EOF'
import json, sys
raw = json.load(open(sys.argv[1]))
ops = {b["name"]: b for b in raw.get("benchmarks", [])
       if "items_per_second" in b}
cases = {}
for name, b in ops.items():
    if not name.startswith("BM_Monitor"):
        continue
    c = {"ops_per_second": b["items_per_second"],
         "real_time_ns": b.get("real_time")}
    # Same-run twin: BM_MonitorX -> BM_StdMutexX (none for wait/notify).
    twin = ops.get(name.replace("BM_Monitor", "BM_StdMutex", 1))
    if twin:
        c["std_mutex_ops_per_second"] = twin["items_per_second"]
        c["ratio_vs_std_mutex"] = round(
            b["items_per_second"] / twin["items_per_second"], 2)
    cases[name] = c
out = {"context": {"date": raw["context"].get("date"),
                   "num_cpus": raw["context"].get("num_cpus")},
       "baseline": "same-run std::mutex twins (BM_StdMutex*)",
       "benchmarks": cases}
json.dump(out, open("BENCH_monitor.json", "w"), indent=2)
print("wrote BENCH_monitor.json:")
for name, c in cases.items():
    extra = ""
    if "ratio_vs_std_mutex" in c:
        extra = f"  ({c['ratio_vs_std_mutex']}x vs std::mutex)"
    print(f"  {name}: {c['ops_per_second']:.3e} ops/s{extra}")
EOF

  step "bench-smoke: streams/dispatch microbenchmarks"
  RAW_STREAMS="$BENCH_DIR/bench_streams_raw.json"
  timeout 120 "$BENCH_DIR/bench/bench_micro_substrates" \
    --benchmark_filter='BM_MethodHandleInvoke|BM_StreamSerialPipeline|BM_StreamParallelScrabble' \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_STREAMS" --benchmark_out_format=json

  step "bench-smoke: stream scaling matrix"
  RAW_MATRIX="$BENCH_DIR/bench_matrix_raw.json"
  timeout 300 "$BENCH_DIR/bench/bench_scaling_matrix" \
    --min-time=0.2 --out="$RAW_MATRIX"

  step "bench-smoke: write BENCH_streams.json (micro + matrix, gated)"
  python3 - "$RAW_STREAMS" "$RAW_MATRIX" bench/BASELINE_streams.json <<'EOF'
import json, os, sys
raw = json.load(open(sys.argv[1]))
matrix = json.load(open(sys.argv[2]))
base = {}
if os.path.exists(sys.argv[3]):
    base = json.load(open(sys.argv[3])).get("benchmarks", {})
cases = {}
for b in raw.get("benchmarks", []):
    ops = b.get("items_per_second")
    if ops is None:
        continue
    c = {"ops_per_second": ops, "real_time_ns": b.get("real_time")}
    ref = base.get(b["name"], {}).get("ops_per_second")
    if ref:
        c["baseline_ops_per_second"] = ref
        c["speedup_vs_eager"] = round(ops / ref, 2)
    cases[b["name"]] = c
# Matrix cells: merged under the same key space, gated >20% below the
# committed per-cell baseline (the scaling regression check).
failures = []
for b in matrix.get("benchmarks", []):
    ops = b["items_per_second"]
    c = {"ops_per_second": ops, "real_time_ns": b.get("real_time")}
    ref = base.get(b["name"], {}).get("ops_per_second")
    if ref:
        c["baseline_ops_per_second"] = ref
        c["vs_committed_baseline"] = round(ops / ref, 2)
        if ops < 0.8 * ref:
            failures.append((b["name"], ops, ref))
    cases[b["name"]] = c
mctx = matrix.get("context", {})
num_cpus = raw["context"].get("num_cpus")
out = {"context": {"date": raw["context"].get("date"),
                   "num_cpus": num_cpus,
                   "threads_used": mctx.get("threads_used"),
                   "serial_host": mctx.get("serial_host")},
       "baseline": "bench/BASELINE_streams.json (eager per-stage streams, "
                   "shared_ptr<std::function> method handles; matrix cells "
                   "pinned from the host that committed the baseline)",
       "benchmarks": cases}
json.dump(out, open("BENCH_streams.json", "w"), indent=2)
print("wrote BENCH_streams.json:")
for name, c in cases.items():
    extra = ""
    if "speedup_vs_eager" in c:
        extra = f"  ({c['speedup_vs_eager']}x vs eager streams)"
    elif "vs_committed_baseline" in c:
        extra = f"  ({c['vs_committed_baseline']}x vs committed)"
    print(f"  {name}: {c['ops_per_second']:.3e} ops/s{extra}")
if num_cpus is not None and num_cpus <= 1:
    print("warning: num_cpus <= 1 — matrix parallel rows measure "
          "scheduling overhead, not scaling", file=sys.stderr)
if failures:
    print("FAIL: matrix cells regressed >20% vs committed baseline:",
          file=sys.stderr)
    for name, ops, ref in failures:
        print(f"  {name}: {ops:.3e} ops/s vs baseline {ref:.3e} "
              f"({ops/ref:.2f}x)", file=sys.stderr)
    sys.exit(1)
EOF

  step "bench-smoke: netsim reactor connection-scaling matrix"
  RAW_NETSIM="$BENCH_DIR/bench_netsim_raw.json"
  timeout 300 "$BENCH_DIR/bench/bench_netsim" \
    --min-time=0.2 --out="$RAW_NETSIM"

  step "bench-smoke: write BENCH_netsim.json (gated)"
  python3 - "$RAW_NETSIM" bench/BASELINE_netsim.json <<'EOF'
import json, os, sys
raw = json.load(open(sys.argv[1]))
base = {}
if os.path.exists(sys.argv[2]):
    base = json.load(open(sys.argv[2])).get("benchmarks", {})
cases = {}
failures = []
for b in raw.get("benchmarks", []):
    ops = b["items_per_second"]
    c = {"ops_per_second": ops, "real_time_ns": b.get("real_time")}
    # The latency cells carry coordinated-omission-safe percentiles, the
    # footprint cell RSS, and every cell the host shape (single-core
    # containers are self-describing).
    for k in ("p50_ns", "p99_ns", "p999_ns", "max_send_delay_ns",
              "sustained_rps", "rss_total_bytes", "rss_per_conn_bytes",
              "num_cpus", "threads_used", "serial_host"):
        if k in b:
            c[k] = b[k]
    ref = base.get(b["name"], {}).get("ops_per_second")
    if ref:
        c["baseline_ops_per_second"] = ref
        c["vs_committed_baseline"] = round(ops / ref, 2)
        if ops < 0.8 * ref:
            failures.append((b["name"], ops, ref))
    cases[b["name"]] = c
ctx = raw.get("context", {})
out = {"context": {"num_cpus": ctx.get("num_cpus"),
                   "threads_used": ctx.get("threads_used"),
                   "serial_host": ctx.get("serial_host")},
       "baseline": "bench/BASELINE_netsim.json (readiness-driven reactor, "
                   "cells pinned from the host that committed the baseline)",
       "benchmarks": cases}
json.dump(out, open("BENCH_netsim.json", "w"), indent=2)
print("wrote BENCH_netsim.json:")
for name, c in cases.items():
    extra = ""
    if "vs_committed_baseline" in c:
        extra = f"  ({c['vs_committed_baseline']}x vs committed)"
    if "p99_ns" in c:
        extra += f"  [p99 {c['p99_ns']/1e3:.1f}us]"
    print(f"  {name}: {c['ops_per_second']:.3e} req/s{extra}")
if ctx.get("serial_host"):
    print("warning: serial host — the shard sweep measures reactor "
          "overhead, not parallel scaling", file=sys.stderr)
if failures:
    print("FAIL: netsim cells regressed >20% vs committed baseline:",
          file=sys.stderr)
    for name, ops, ref in failures:
        print(f"  {name}: {ops:.3e} req/s vs baseline {ref:.3e} "
              f"({ops/ref:.2f}x)", file=sys.stderr)
    sys.exit(1)
EOF

  step "bench-smoke: managed-heap substrate cells (substrate vs malloc twins)"
  RAW_ALLOC="$BENCH_DIR/bench_alloc_raw.json"
  timeout 300 "$BENCH_DIR/bench/bench_alloc" \
    --benchmark_min_time=0.3 \
    --benchmark_out="$RAW_ALLOC" --benchmark_out_format=json

  step "bench-smoke: write BENCH_alloc.json (gated)"
  python3 - "$RAW_ALLOC" bench/BASELINE_alloc.json <<'EOF'
import json, os, sys
raw = json.load(open(sys.argv[1]))
base = {}
if os.path.exists(sys.argv[2]):
    base = json.load(open(sys.argv[2])).get("benchmarks", {})
ops = {b["name"]: b.get("items_per_second")
       for b in raw.get("benchmarks", []) if "items_per_second" in b}
# Substrate cell -> malloc twin run in the same invocation.
twins = {
    "BM_AllocChurnSmall_Substrate": "BM_AllocChurnSmall_Malloc",
    "BM_AllocChurnMixed_Substrate": "BM_AllocChurnMixed_Malloc",
    "BM_CrossThreadFree_Substrate/real_time":
        "BM_CrossThreadFree_Malloc/real_time",
    "BM_FragSoak_Substrate": "BM_FragSoak_Malloc",
}
cases = {}
failures = []
for name, o in ops.items():
    c = {"ops_per_second": o}
    twin = twins.get(name)
    if twin and twin in ops and ops[twin]:
        c["malloc_ops_per_second"] = ops[twin]
        c["speedup_vs_malloc"] = round(o / ops[twin], 2)
    ref = base.get(name, {}).get("ops_per_second")
    if ref:
        c["baseline_ops_per_second"] = ref
        c["vs_committed_baseline"] = round(o / ref, 2)
        if o < 0.8 * ref:
            failures.append((name, o, ref))
    cases[name] = c
out = {"context": {"date": raw["context"].get("date"),
                   "num_cpus": raw["context"].get("num_cpus")},
       "baseline": "bench/BASELINE_alloc.json (malloc twin references "
                   "pinned from the committing host)",
       "benchmarks": cases}
json.dump(out, open("BENCH_alloc.json", "w"), indent=2)
print("wrote BENCH_alloc.json:")
for name, c in cases.items():
    extra = ""
    if "speedup_vs_malloc" in c:
        extra = f"  ({c['speedup_vs_malloc']}x vs malloc)"
    print(f"  {name}: {c['ops_per_second']:.3e} ops/s{extra}")
if raw["context"].get("num_cpus", 2) <= 1:
    print("warning: num_cpus <= 1 — the cross-thread cell measures the "
          "free path plus scheduler handoff, not parallel arena "
          "behaviour", file=sys.stderr)
if failures:
    print("FAIL: substrate cells fell >20% below the committed "
          "reference:", file=sys.stderr)
    for name, o, ref in failures:
        print(f"  {name}: {o:.3e} ops/s vs reference {ref:.3e} "
              f"({o/ref:.2f}x)", file=sys.stderr)
    sys.exit(1)
EOF

  step "bench-smoke: tiered-execution cells (warmup / steady / PIC / deopt)"
  RAW_JIT="$BENCH_DIR/bench_jit_raw.json"
  # Full mode, not --quick: the committed baseline is pinned from the full
  # schedules. The binary self-asserts the tier-up invariants and exits
  # non-zero on any gate failure before we even reach the merge.
  timeout 120 "$BENCH_DIR/bench/bench_jit_tiered" --out="$RAW_JIT"

  step "bench-smoke: write BENCH_jit.json (gated)"
  python3 - "$RAW_JIT" bench/BASELINE_jit.json <<'EOF'
import json, os, sys
raw = json.load(open(sys.argv[1]))
base = {}
if os.path.exists(sys.argv[2]):
    base = json.load(open(sys.argv[2])).get("benchmarks", {})
cases = {}
failures = []
for b in raw.get("benchmarks", []):
    ops = b["items_per_second"]
    c = {"ops_per_second": ops, "cycles": b.get("cycles")}
    # Tier telemetry rides along so a BENCH diff shows *why* a cell moved
    # (extra recompiles, lost PIC hits) and not just that it did.
    for k in ("compiles", "recompiles", "deopts", "pic_hits", "pic_misses",
              "modelled_compile_cycles"):
        if k in b:
            c[k] = b[k]
    ref = base.get(b["name"], {}).get("ops_per_second")
    if ref:
        c["baseline_ops_per_second"] = ref
        c["vs_committed_baseline"] = round(ops / ref, 2)
        if ops < 0.8 * ref:
            failures.append((b["name"], ops, ref))
    cases[b["name"]] = c
out = {"context": raw.get("context", {}),
       "baseline": "bench/BASELINE_jit.json (deterministic modelled cycles; "
                   "the gate only trips on behavioral change, not host "
                   "noise)",
       "benchmarks": cases}
json.dump(out, open("BENCH_jit.json", "w"), indent=2)
print("wrote BENCH_jit.json:")
for name, c in cases.items():
    extra = ""
    if "vs_committed_baseline" in c:
        extra = f"  ({c['vs_committed_baseline']}x vs committed)"
    if c.get("deopts"):
        extra += f"  [deopts {c['deopts']}, recompiles {c['recompiles']}]"
    print(f"  {name}: {c['cycles']} cycles{extra}")
if failures:
    print("FAIL: jit cells regressed >20% vs committed baseline "
          "(deterministic cycles — this is a real behavioral change):",
          file=sys.stderr)
    for name, ops, ref in failures:
        print(f"  {name}: {ops:.3e} ops/s vs baseline {ref:.3e} "
              f"({ops/ref:.2f}x)", file=sys.stderr)
    sys.exit(1)
EOF
fi

step "all requested checks passed"
