#!/usr/bin/env python3
"""Session-level wall-clock benchmark of gpudb (see perfbench/README.md).

Builds perfbench_driver from the sources of the checkout it runs in, runs one
workload, checks its answers, and prints a metric table followed, as the last
line of standard output, by one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Run it from the root of the repository:

  python3 perfbench/run.py --workload scan_1m --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace next to the build). --size small
runs a reduced-size version of the workload, for tests. The build goes to
$CARGO_TARGET_DIR (default .bench_build), under perfbench/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perfstats  # noqa: E402

WORKLOADS = ("scan_1m", "long_session", "pool_contended")
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target",
              "perfbench_driver"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(step))
            return None
    return os.path.join(out, "perfbench_driver")


def load_spec():
    """BENCHMARK.json, whose metric names and units this run reports."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not (perfstats.valid_name(m["name"])
                and perfstats.valid_unit(m["unit"])):
            raise ValueError(f"bad metric name or unit: {m}")
    return spec


def run_driver(driver, args, trace_file):
    # The library reads GPUDB_* knobs (threads, faults, budgets) from the
    # environment; the benchmark fixes them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUDB_")}
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--trace-file", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, timeout=DRIVER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return None
    return json.loads(proc.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full")
    args = p.parse_args(argv)

    spec = load_spec()
    driver = build()
    if driver is None:
        return 2
    trace_file = os.path.join(
        build_dir(), f"{args.workload}-seed{args.seed}.trace.json")
    doc = run_driver(driver, args, trace_file)
    if doc is None:
        return 2

    attempted, errored, wrong = perfstats.counts(doc)
    e2e = perfstats.end_to_end(doc)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"statements {attempted}  episodes {doc['episodes']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["fail_ratio"] = "ratio"
    for name, (value, n) in e2e.items():
        print(f"  {name:<16} {value:>14.6g} {units[name]:<6} n={n}")
    for e in doc["errors"]:
        print("  error:", e)

    if args.trace:
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        layers = perfstats.trace_layers(events, doc)
        listed = spec["per_layer"]
        print(f"per-layer (traced run; trace written to {trace_file})")
        for m in listed:
            print(f"  {m['name']:<34} {layers[m['name']]:>14.6g} {m['unit']}")
        print(f"  trace.overhead = {layers['trace.overhead']:.3f} "
              "(untraced stmts/s over traced stmts/s)")
        attempted += doc["traced"]["attempted"]
        errored += doc["traced"]["failed"] - doc["traced"]["wrong"]
        wrong += doc["traced"]["wrong"]
        values = layers
    else:
        listed = spec["end_to_end"]
        values = {name: value for name, (value, _) in e2e.items()}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": errored + wrong, "metrics": metrics}))
    sys.stdout.flush()
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
