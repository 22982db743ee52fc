#!/usr/bin/env bash
# Tier-1 verification plus the sanitizer configurations:
#   0. lint: gpulint (the in-tree analyzer, rules R1-R9 of DESIGN.md §12)
#      over src/ (a gpulint-allow marker without a reason suppresses
#      nothing), the clang-tidy baseline diff (scripts/tidy.sh), and — when
#      clang is installed — a -Wthread-safety -Werror build exercising the
#      capability annotations of src/common/thread_annotations.h. First, so
#      rule violations fail before any build time is spent,
#   1. the standard build + full ctest run (what CI gates on), then the
#      EXPLAIN battery (scripts/explain_battery.sql) through sql_shell at 1
#      and 8 threads and on a 3-device pool, byte-identical across the three,
#      and again under --plan-cache at 1 and 8 threads, byte-identical,
#   2. a bench smoke run of every figure bench with a committed baseline,
#      and of the Accumulator's alpha-test vs KILL ablation, diffed against
#      bench/baseline (model-time regression gate; see
#      scripts/bench_diff.py), then fig03 five times plain and five times
#      under --profile, alternating, with
#      scripts/profile_smoke.py asserting the gpuprof counters are nonzero,
#      the fragment ledger balances, and profiling overhead stays bounded,
#   3. a fault-injection sweep: the resilience and fuzz suites, whose
#      fault-injected cases drive every rung of the dispatch ladder (retry,
#      quarantine, replica, CPU fallback) in the gating build,
#   3b. a 1M-statement single-session soak, plain and EXPLAIN ANALYZE
#       (flat RSS and latency),
#   3c. the session benchmark (perfbench/) at reduced size, gated on its
#       run-time invariants by scripts/perfbench_invariants.py,
#   4. an ASan+UBSan Debug build of the test suite, which also turns on the
#      record-time PassRecord invariant asserts in gpu::Device and re-runs
#      the fault sweep under ASan,
#   5. a standalone UBSan build (GPUDB_SANITIZE=undefined, recover off) of
#      the full suite — UB aborts the test instead of hiding behind ASan's
#      interceptors, and
#   6. a TSan build of the parallel-pixel-engine determinism test, the
#      fault sweep, the pool soak and the catalog suite (whose concurrent
#      ANALYZE case shares one catalog between two sessions), run
#      oversubscribed (GPUDB_THREADS=8) to shake out races in the row-band
#      dispatch, the interrupt/fault paths and the catalog's statistics.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: gpulint rules R1-R9 + clang-tidy baseline =="
# gpulint only needs its own little library; build just that target.
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)" --target gpulint
./build/tools/gpulint/gpulint --root=. --json=build/gpulint-report.json
scripts/tidy.sh

echo "== lint: clang -Wthread-safety capability analysis =="
# src/common/thread_annotations.h compiles to no-ops under gcc; only clang
# implements the capability analysis. Gate it when clang is available so CI
# images with LLVM statically verify every GUARDED_BY/REQUIRES contract.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-threadsafety -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" >/dev/null
  cmake --build build-threadsafety -j"$(nproc)"
else
  echo "thread-safety: clang++ not found; skipping (annotations are no-ops" \
       "under gcc -- gpulint R7-R9 still gate lock discipline)"
fi

echo "== tier 1: standard build + tests =="
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== EXPLAIN battery: byte-identical at any thread count and pool size =="
# scripts/explain_battery.sql (one statement per line: ANALYZE, then EXPLAIN
# ANALYZE/PROFILE of the selection, order-statistic, aggregate, GROUP BY and
# ORDER BY shapes) through sql_shell at 1 and 8 worker threads and on a
# 3-device pool. Every statement must succeed, and the outputs must match
# byte for byte; the pool run's only extra line is its "device pool on: ..."
# banner, which is dropped first.
battery_dir="$(mktemp -d)"
trap 'rm -rf "$battery_dir"' EXIT
./build/examples/sql_shell --threads=1 - <scripts/explain_battery.sql \
  >"$battery_dir/threads1.txt"
./build/examples/sql_shell --threads=8 - <scripts/explain_battery.sql \
  >"$battery_dir/threads8.txt"
./build/examples/sql_shell --devices=3 - <scripts/explain_battery.sql |
  grep -v '^device pool on: ' >"$battery_dir/devices3.txt"
if grep -n 'error: ' "$battery_dir/threads1.txt"; then
  echo "EXPLAIN battery: a statement failed" >&2
  exit 1
fi
cmp "$battery_dir/threads1.txt" "$battery_dir/threads8.txt"
cmp "$battery_dir/threads1.txt" "$battery_dir/devices3.txt"

echo "== EXPLAIN battery under --plan-cache: byte-identical at 1 and 8 threads =="
# The same battery with the depth-plane cache on, so the cache's miss and
# restore paths run through sql_shell: every statement must succeed and the
# two outputs (cache= tags included) must match byte for byte.
./build/examples/sql_shell --plan-cache --threads=1 - \
  <scripts/explain_battery.sql >"$battery_dir/cache_threads1.txt"
./build/examples/sql_shell --plan-cache --threads=8 - \
  <scripts/explain_battery.sql >"$battery_dir/cache_threads8.txt"
if grep -n 'error: ' "$battery_dir/cache_threads1.txt" \
    "$battery_dir/cache_threads8.txt"; then
  echo "EXPLAIN battery under --plan-cache: a statement failed" >&2
  exit 1
fi
cmp "$battery_dir/cache_threads1.txt" "$battery_dir/cache_threads8.txt"

echo "== bench smoke: figure model times vs bench/baseline =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$battery_dir" "$smoke_dir"' EXIT
for bench in fig02_copy_depth fig03_predicate fig04_range fig05_multiattr \
             fig06_semilinear fig07_kth_vs_k fig08_median \
             fig09_kth_selectivity fig10_accumulator fig_hotcolumn \
             ablation_accumulator_alpha; do
  GPUDB_BENCH_JSON_DIR="$smoke_dir" "./build/bench/$bench" >/dev/null
done
python3 scripts/bench_diff.py bench/baseline "$smoke_dir"

echo "== profiling smoke: fig03 under --profile, counters + overhead gate =="
# Five plain and five profiled fig03 runs, strictly alternating so machine
# load drifts over both arms alike; profile_smoke.py gates on the best wall
# time per arm (shared machines jitter single runs by 2x+), asserts the
# deep counters are nonzero and bit-identical across profiled runs, and
# that the fragment ledger balances.
profile_dir="$(mktemp -d)"
trap 'rm -rf "$battery_dir" "$smoke_dir" "$profile_dir"' EXIT
plain_jsons=()
prof_jsons=()
for i in 1 2 3 4 5; do
  mkdir -p "$profile_dir/plain$i" "$profile_dir/prof$i"
  GPUDB_BENCH_JSON_DIR="$profile_dir/plain$i" ./build/bench/fig03_predicate \
    >/dev/null
  GPUDB_BENCH_JSON_DIR="$profile_dir/prof$i" ./build/bench/fig03_predicate \
    --profile >/dev/null
  plain_jsons+=("$profile_dir/plain$i/BENCH_figure_3.json")
  prof_jsons+=("$profile_dir/prof$i/BENCH_figure_3.json")
done
python3 scripts/profile_smoke.py --plain "${plain_jsons[@]}" \
  --profiled "${prof_jsons[@]}"

echo "== fault sweep: resilience + fuzz suites with injection enabled =="
# The suites configure their own injectors with fixed seeds and rates per
# device, so every run draws the same fault sequence.
./build/tests/core_resilience_test
./build/tests/device_fuzz_test --gtest_filter='FaultSweep.*'

echo "== pool: shard failover + 16-session soak with injection enabled =="
# The multi-device tier under fault injection: the pool suite covers the
# health state machine, replica-failover bit-exactness, and the session's
# one ladder (fallback-off and per-statement deadline); the soak runs 16
# concurrent sessions over a shared fault-injected pool and admission
# controller at fault seed 20260805, rate 0.05. The gate is zero
# non-injected failures, zero wrong answers (injected faults must be
# absorbed by failover and the CPU rung) and at least one injected fault.
./build/tests/gpu_pool_test
./build/tests/device_fuzz_test --gtest_filter='PoolSoak.*'

echo "== soak: one session, 1M statements, flat memory and latency =="
# tests/sql_soak_test at full length: one sql::Session runs the same
# one-pass COUNT a million times, then EXPLAIN ANALYZE of it a million
# times. Peak RSS may grow by less than 4 MB after the warm-up, and the
# median latency of the last 10k statements must stay within 1.5x of the
# first 10k -- per-statement accounting is fixed-size (scalar device
# counters, no retained pass log, spans freed with their statement). ctest
# runs it at 20k.
GPUDB_SOAK_STATEMENTS=1000000 ./build/tests/sql_soak_test

echo "== perfbench: every workload at reduced size, run-time invariants =="
# The session benchmark's own Release driver (built into build-perfbench/),
# each workload untraced and traced: correct answers, no failed statement,
# fail_ratio 0, nothing swapped or rejected, and no per-pass records left
# on any device (gpu.pass_log_len.* read 0).
CARGO_TARGET_DIR=build-perfbench python3 scripts/perfbench_invariants.py

echo "== sanitizers: ASan+UBSan Debug build + tests =="
cmake -B build-asan -S . -DGPUDB_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
./build-asan/tests/device_fuzz_test --gtest_filter='FaultSweep.*'

echo "== sanitizers: standalone UBSan build + tests =="
cmake -B build-ubsan -S . -DGPUDB_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$(nproc)"
ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)"

echo "== sanitizers: TSan build + parallel determinism + fault sweep + pool soak + catalog =="
cmake -B build-tsan -S . -DGPUDB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target gpu_parallel_test device_fuzz_test gpu_pool_test sql_catalog_test
GPUDB_THREADS=8 ./build-tsan/tests/gpu_parallel_test
GPUDB_THREADS=8 ./build-tsan/tests/device_fuzz_test --gtest_filter='FaultSweep.*'
GPUDB_THREADS=8 ./build-tsan/tests/gpu_pool_test
GPUDB_THREADS=8 ./build-tsan/tests/device_fuzz_test --gtest_filter='PoolSoak.*'
GPUDB_THREADS=8 ./build-tsan/tests/sql_catalog_test

echo "check.sh: all green"
