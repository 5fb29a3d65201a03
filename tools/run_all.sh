#!/bin/sh
# Final validation pass: full test suite + every bench binary + trace
# validation + (optional) TSan and ASan+UBSan passes over the
# instrumented engine and the fault-injection chaos suites.
set -u
cd "$(dirname "$0")/.."

# Runs "$@" with its output shown and appended to the file $1, and returns
# the command's own exit status. POSIX sh has no pipefail: in
# `cmd | tee f || exit 1` the `||` tests tee, so a failing cmd would pass.
logged() {
  log=$1
  shift
  status_file=$(mktemp)
  { "$@"; echo $? >"$status_file"; } 2>&1 | tee -a "$log"
  status=$(cat "$status_file")
  rm -f "$status_file"
  return "$status"
}

# Static analysis first — cheapest stage, fails fastest. One stage, three
# gates, all writing to analyze_output.txt:
#   1. fedca_analyze (C++, built with the tree, needs neither python nor
#      clang): layering DAG against tools/analyze/layers.spec, lock-order
#      graph and callbacks under locks, determinism/seam rules, and the
#      fast-math build-flag rule; any finding fails the pass. It folds in
#      build/compile_commands.json, so a missing database is a
#      configuration error (the binary exits 2), not a silent skip.
#   2. the clang-tidy baseline gate (prints SKIP without clang-tidy);
#   3. a clang build with -Werror=thread-safety (FEDCA_STATIC_ANALYSIS=ON;
#      prints SKIP without clang++).
# FEDCA_ANALYZE=0 skips the whole stage.
if [ "${FEDCA_ANALYZE:-1}" != "0" ]; then
  echo "===== analyze =====" | tee analyze_output.txt
  cmake --build build --target fedca_analyze -j "$(nproc)" \
    >>analyze_output.txt 2>&1 \
    || { echo "fedca_analyze build FAILED (see analyze_output.txt)"; exit 1; }
  # No pipefail in sh: capture the analyzer's own status, then echo.
  build/tools/analyze/fedca_analyze --root . --build build \
    --spec tools/analyze/layers.spec >analyze_findings.txt 2>&1
  analyze_status=$?
  tee -a analyze_output.txt <analyze_findings.txt
  [ "$analyze_status" -eq 0 ] || exit "$analyze_status"
  logged analyze_output.txt python3 tools/run_clang_tidy.py --build-dir build \
    || exit 1
  if command -v clang++ >/dev/null 2>&1; then
    echo "--- thread-safety build (clang) ---" | tee -a analyze_output.txt
    cmake -B build-sa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DFEDCA_STATIC_ANALYSIS=ON >>analyze_output.txt 2>&1 &&
    cmake --build build-sa -j "$(nproc)" >>analyze_output.txt 2>&1 \
      || { echo "thread-safety build FAILED (see analyze_output.txt)"; exit 1; }
  else
    echo "--- thread-safety build: SKIP (no clang++) ---" \
      | tee -a analyze_output.txt
  fi
fi

: >test_output.txt
logged test_output.txt ctest --test-dir build || exit 1
mkdir -p results
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b ====="
  "$b" csv_dir=results
done 2>&1 | tee bench_output.txt

# Scenario regression net: every pinned scenario (one with a
# tests/golden/scenario_*.sha256) must reproduce its run-report digest. The
# test-base scenarios that say they are deliberately not golden-pinned are
# left out. This is the same check the per-scenario ctest entries run, but
# standalone so a golden drift is reported with the offending digest up
# front. FEDCA_SCENARIOS=0 skips; regenerate goldens with
# `python3 tools/scenario_digest.py --build build --update`.
if [ "${FEDCA_SCENARIOS:-1}" != "0" ]; then
  pinned=$(for g in tests/golden/scenario_*.sha256; do
    n=${g##*/scenario_}
    echo "${n%.sha256}"
  done)
  echo "===== scenario goldens =====" | tee scenario_output.txt
  logged scenario_output.txt \
    python3 tools/scenario_digest.py --build build --check $pinned || exit 1
fi

# The benchmark's own checks, exactly as its suite runs them: metric names
# agree with BENCHMARK.json, the fold attributes traces correctly, and every
# workload prints every metric with `correct: true` in both modes (finite
# model, accuracy floor, trajectories reaching the target, traced and
# untraced fingerprints equal, per-layer sum within +/-0.10 of
# compute_gradients). About two minutes on 4 cores.
echo "===== perfbench self-test ====="
python3 perfbench/test_perfbench.py >perfbench_output.txt 2>&1
perfbench_status=$?
cat perfbench_output.txt
[ "$perfbench_status" -eq 0 ] || exit "$perfbench_status"

# Kernel bench smoke: refresh BENCH_kernels.json (before/after numbers for
# the blocked GEMM + parallel engine work). The kernel sources are compiled
# -O3 regardless of the top-level build type; FEDCA_BENCH_KERNELS=0 skips.
if [ "${FEDCA_BENCH_KERNELS:-1}" != "0" ]; then
  echo "===== kernel benches ====="
  python3 tools/bench_kernels.py --build build --out BENCH_kernels.json \
    2>&1 | tee kernel_bench_output.txt
fi

# Allocation bench: refresh BENCH_memory.json via the counting-allocator
# harness (heap allocations and peak heap per steady-state round at 1 and
# 4 workers). FEDCA_BENCH_MEMORY=0 skips.
if [ "${FEDCA_BENCH_MEMORY:-1}" != "0" ]; then
  echo "===== memory bench ====="
  python3 tools/bench_memory.py --build build --out BENCH_memory.json \
    2>&1 | tee memory_bench_output.txt
fi

# Recorder/report bench: refresh BENCH_obs.json (recorder throughput, hot-loop
# overhead recorder-on vs off <= 5%, byte-identity of model state and
# run_report.jsonl across worker counts). FEDCA_BENCH_OBS=0 skips.
if [ "${FEDCA_BENCH_OBS:-1}" != "0" ]; then
  echo "===== obs bench =====" | tee obs_bench_output.txt
  logged obs_bench_output.txt \
    python3 tools/bench_obs.py --build build --out BENCH_obs.json || exit 1
fi

# Scale bench: refresh BENCH_scale.json via the million-client harness
# (registry sweep at 1k/10k/100k/1M with rounds/sec + peak RSS, live
# client-state bytes at 100k; fails if the 1M sweep exceeds 2 GB RSS or
# live client state exceeds 373.1 B/client).
# FEDCA_BENCH_SCALE=0 skips.
if [ "${FEDCA_BENCH_SCALE:-1}" != "0" ]; then
  echo "===== scale bench =====" | tee scale_bench_output.txt
  logged scale_bench_output.txt \
    python3 tools/bench_scale.py --build build --out BENCH_scale.json || exit 1
fi

# SIMD tier sweep: the kernel property suites must pass with the dispatch
# forced to the portable scalar tier AND left on auto (best vector tier on
# this host) — the two runs prove the tiers are interchangeable, and the
# suites' own cross-tier memcmp checks prove they are bit-identical.
# FEDCA_SIMD_SWEEP=0 skips.
if [ "${FEDCA_SIMD_SWEEP:-1}" != "0" ]; then
  simd_sweep() {
    for tier in scalar auto; do
      for t in tensor_simd_kernels_test tensor_gemm_property_test; do
        echo "--- $t (FEDCA_SIMD=$tier) ---"
        FEDCA_SIMD=$tier "build/tests/$t" || return 1
      done
    done
  }
  echo "===== simd tier sweep =====" | tee simd_output.txt
  logged simd_output.txt simd_sweep || exit 1
fi

# Observability smoke: a traced quickstart must produce a Chrome-trace file
# that check_trace.py accepts, with the canonical span set present, and a
# run_report.jsonl that tools/report.py validates structurally.
traced_quickstart() {
  FEDCA_TRACE=results/quickstart_trace.json \
  FEDCA_METRICS=results/quickstart_metrics.csv \
    build/examples/quickstart rounds=6 clients=6 k=12 samples=600 \
    report=results/quickstart_report.jsonl
}
echo "===== traced quickstart =====" | tee trace_output.txt
logged trace_output.txt traced_quickstart || exit 1
logged trace_output.txt \
  python3 tools/check_trace.py results/quickstart_trace.json \
  --expect download --expect compute --expect upload.final --expect aggregate \
  --expect round || exit 1
logged trace_output.txt \
  python3 tools/report.py results/quickstart_report.jsonl \
  --summary || exit 1

# TSan pass over the concurrency-sensitive pieces (the metrics registry,
# the tracer, and the instrumented round engine under the thread pool).
# FEDCA_TSAN=0 skips it (e.g. when the toolchain lacks libtsan).
if [ "${FEDCA_TSAN:-1}" != "0" ]; then
  echo "===== tsan =====" | tee tsan_output.txt
  cmake -B build-tsan -S . -DFEDCA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >>tsan_output.txt 2>&1 &&
  cmake --build build-tsan --target obs_metrics_test obs_trace_test \
    obs_recorder_test fl_round_engine_test fl_parallel_determinism_test \
    fl_async_engine_test tensor_simd_kernels_test \
    tensor_gemm_property_test -j "$(nproc)" \
    >>tsan_output.txt 2>&1 \
    || { echo "tsan build FAILED (see tsan_output.txt)"; exit 1; }
  tsan_suites() {
    for t in obs_metrics_test obs_trace_test obs_recorder_test \
             fl_round_engine_test fl_parallel_determinism_test \
             fl_async_engine_test; do
      echo "--- $t (tsan) ---"
      "build-tsan/tests/$t" || return 1
    done
    # Kernel property suites under TSan in both dispatch tiers: the packed
    # GEMM's thread_local scratch and the once-resolved tier cache are the
    # racy-by-construction pieces this pass is meant to vet.
    for tier in scalar auto; do
      for t in tensor_simd_kernels_test tensor_gemm_property_test; do
        echo "--- $t (tsan, FEDCA_SIMD=$tier) ---"
        FEDCA_SIMD=$tier "build-tsan/tests/$t" || return 1
      done
    done
  }
  logged tsan_output.txt tsan_suites || exit 1
fi

# ASan+UBSan pass over the fault-injection layer and the hardened engines:
# the chaos suites exercise the unhappy paths (infinite finish times,
# partial aggregation, abandoned async cycles) where lifetime and UB bugs
# would hide. FEDCA_ASAN=0 skips it (e.g. when the toolchain lacks libasan).
if [ "${FEDCA_ASAN:-1}" != "0" ]; then
  echo "===== asan+ubsan =====" | tee asan_output.txt
  cmake -B build-asan -S . -DFEDCA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >>asan_output.txt 2>&1 &&
  cmake --build build-asan --target sim_fault_injection_test \
    fl_robustness_test -j "$(nproc)" \
    >>asan_output.txt 2>&1 \
    || { echo "asan build FAILED (see asan_output.txt)"; exit 1; }
  asan_suites() {
    for t in sim_fault_injection_test fl_robustness_test; do
      echo "--- $t (asan+ubsan) ---"
      "build-asan/tests/$t" || return 1
    done
  }
  logged asan_output.txt asan_suites || exit 1
fi
