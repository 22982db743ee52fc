#!/usr/bin/env python3
"""Run-time invariants of the session benchmark (perfbench/), for check.sh.

Runs every workload of perfbench/run.py at reduced size, untraced and traced,
and asserts:

  1. every answer is correct, no statement fails, and at least 200 ran;
  2. every end-to-end metric is positive;
  3. the traced run reports fail_ratio 0, no bytes swapped and no admission
     rejections;
  4. the devices retain no per-pass records: gpu.pass_log_len.start and
     .end are both 0. Per-pass records live only inside a gpu::PassLogScope,
     so a session's accounting stays fixed-size however long it runs.

Run it from the root of the repository. The driver is built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

Usage: perfbench_invariants.py [--seed N]
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("scan_1m", "long_session", "pool_contended")
ZERO_PER_LAYER = ("fail_ratio", "gpu.bytes_swapped", "admission.rejected",
                  "gpu.pass_log_len.start", "gpu.pass_log_len.end")


def run(workload, seed, trace):
    """One reduced-size run; returns its result object or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "small"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, seed):
    """Returns the list of violated invariants for one workload."""
    bad = []
    for trace in (0, 1):
        result = run(workload, seed, trace)
        where = f"{workload} --trace {trace}"
        if result is None:
            bad.append(f"{where}: run.py failed")
            continue
        if not result["correct"]:
            bad.append(f"{where}: wrong answers")
        if result["failed"] != 0:
            bad.append(f"{where}: {result['failed']} statements failed")
        if result["attempted"] < 200:
            bad.append(f"{where}: only {result['attempted']} statements")
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        if trace:
            for name in ZERO_PER_LAYER:
                if metrics.get(name) != 0:
                    bad.append(f"{where}: {name} = {metrics.get(name)}")
        else:
            for name, value in metrics.items():
                if not value > 0:
                    bad.append(f"{where}: {name} = {value}")
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args(argv)
    bad = []
    for workload in WORKLOADS:
        bad += check(workload, args.seed)
    for line in bad:
        print("perfbench_invariants:", line)
    if bad:
        return 1
    print(f"perfbench_invariants: OK ({len(WORKLOADS)} workloads, "
          f"seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
