#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json files and gate on regressions.

Usage:
    scripts/bench_diff.py BASELINE_DIR CANDIDATE_DIR [--threshold PCT]

Both directories hold the JSON files the figure binaries emit when
$GPUDB_BENCH_JSON_DIR is set (see bench/bench_util.h). Rows are matched by
(figure, label, series) -- `series` names the sub-sweep of a figure that
repeats its labels, e.g. fig05's attrs=1..4, and is empty when absent; a
file whose rows repeat a key is an error, since one of them would never be
compared. The gate compares the *model* columns
(gpu_model_total_ms, gpu_model_compute_ms, cpu_model_ms), which are
deterministic functions of the pass structure -- wall-clock columns vary with the host and are reported but
never gated -- and each candidate row's `check_passed`, the bench's own
answer check.

Exit status: 0 when every matched row is within the threshold, 1 when any
model time regressed by more than --threshold percent (default 20), a
candidate row reads `check_passed: false`, a baseline file/row is missing
from the candidate, or a file repeats a row key.
"""

import argparse
import json
import os
import sys

GATED_COLUMNS = ("gpu_model_total_ms", "gpu_model_compute_ms", "cpu_model_ms")

# Wall-clock deltas are host-dependent (shared machines jitter 2x+), so
# they are printed for the operator but never counted as regressions.
REPORTED_COLUMNS = ("gpu_wall_ms",)


def load_dir(path):
    """Maps file name -> parsed JSON for every BENCH_*.json in `path`."""
    out = {}
    try:
        names = sorted(os.listdir(path))
    except OSError as e:
        sys.exit(f"bench_diff: cannot read directory {path}: {e}")
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        full = os.path.join(path, name)
        try:
            with open(full, encoding="utf-8") as f:
                out[name] = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"bench_diff: cannot parse {full}: {e}")
    if not out:
        sys.exit(f"bench_diff: no BENCH_*.json files in {path}")
    return out


def row_key(row):
    return (row.get("label"), row.get("series", ""))


def key_name(key):
    label, series = key
    return f"{label} {series}" if series else f"{label}"


def rows_by_key(name, doc, failures):
    """Maps (label, series) -> row; a repeated key is recorded as a failure."""
    out = {}
    for row in doc.get("rows", []):
        key = row_key(row)
        if key in out:
            failures.append(f"{name} [{key_name(key)}]: duplicate row key")
        out[key] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="directory of baseline BENCH_*.json")
    parser.add_argument("candidate", help="directory of candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=20.0,
        help="allowed model-time regression in percent (default 20)",
    )
    args = parser.parse_args()

    baseline = load_dir(args.baseline)
    candidate = load_dir(args.candidate)

    failures = []
    compared = 0
    for name, base_doc in sorted(baseline.items()):
        cand_doc = candidate.get(name)
        if cand_doc is None:
            failures.append(f"{name}: missing from candidate directory")
            continue
        cand_rows = rows_by_key(f"{name} (candidate)", cand_doc, failures)
        for key, base_row in rows_by_key(name, base_doc, failures).items():
            label = key_name(key)
            cand_row = cand_rows.get(key)
            if cand_row is None:
                failures.append(f"{name} [{label}]: row missing from candidate")
                continue
            for col in GATED_COLUMNS:
                base_v = base_row.get(col)
                cand_v = cand_row.get(col)
                if base_v is None or cand_v is None:
                    continue
                compared += 1
                if base_v <= 0:
                    continue
                delta_pct = (cand_v - base_v) / base_v * 100.0
                marker = ""
                if delta_pct > args.threshold:
                    marker = "  REGRESSION"
                    failures.append(
                        f"{name} [{label}] {col}: "
                        f"{base_v:.4f} -> {cand_v:.4f} ms "
                        f"({delta_pct:+.1f}% > {args.threshold:.0f}%)"
                    )
                print(
                    f"{name} [{label}] {col}: {base_v:.4f} -> {cand_v:.4f} ms"
                    f" ({delta_pct:+.1f}%){marker}"
                )
            for col in REPORTED_COLUMNS:
                base_v = base_row.get(col)
                cand_v = cand_row.get(col)
                if base_v is None or cand_v is None or base_v <= 0:
                    continue
                delta_pct = (cand_v - base_v) / base_v * 100.0
                print(
                    f"{name} [{label}] {col}: {base_v:.4f} -> {cand_v:.4f} ms"
                    f" ({delta_pct:+.1f}%)  [reported, not gated]"
                )

    # A failed answer check fails the gate whatever the timings say, in
    # every candidate file, baselined or not.
    for name, cand_doc in sorted(candidate.items()):
        for row in cand_doc.get("rows", []):
            if row.get("check_passed") is False:
                failures.append(
                    f"{name} (figure {cand_doc.get('figure')}) "
                    f"[{key_name(row_key(row))}]: check_passed is false"
                )

    # A candidate file with no baseline is not gated, but silence would make
    # it look covered: tell the operator to commit a baseline for it.
    for name in sorted(set(candidate) - set(baseline)):
        print(
            f"bench_diff: warning: {name} has no baseline in {args.baseline};"
            " not gated -- commit one to cover it",
            file=sys.stderr,
        )

    print(f"\nbench_diff: compared {compared} model-time cells")
    if failures:
        print(f"bench_diff: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("bench_diff: OK (within threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
