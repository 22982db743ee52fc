#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every paper
# figure / ablation / extension benchmark, capturing the outputs the way
# EXPERIMENTS.md references them.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja when available, but fall back to the platform default
# generator (an existing build/ keeps whatever generator configured it).
if [ ! -f build/CMakeCache.txt ] && command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j

ctest --test-dir build 2>&1 | tee test_output.txt

# Machine-readable per-figure results (BENCH_<figure>.json) land here.
mkdir -p bench_json
export GPUDB_BENCH_JSON_DIR=bench_json

# With GPUDB_PROFILE set, run the benches under --profile so the captured
# outputs include the gpuprof per-pass ledger.
bench_flags=()
[ -n "${GPUDB_PROFILE:-}" ] && bench_flags+=(--profile)

: > bench_output.txt
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo "==== $(basename "$b") ====" | tee -a bench_output.txt
  case "$(basename "$b")" in
    micro_ops)  # google-benchmark CLI; no --profile flag
      "$b" 2>&1 | tee -a bench_output.txt ;;
    *)
      "$b" ${bench_flags[@]+"${bench_flags[@]}"} 2>&1 \
        | tee -a bench_output.txt ;;
  esac
done

echo "done: test_output.txt, bench_output.txt, $(ls bench_json | wc -l) JSON file(s) in bench_json/"
