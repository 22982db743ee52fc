#!/usr/bin/env python3
"""Profiling smoke gate for check.sh.

Compares figure bench JSONs produced without --profile against the same
bench run with --profile and asserts the gpuprof contract:

  1. every profiled row carries the counter columns, and the deep counters
     are self-consistent and nonzero where the pipeline must have done work
     (fragments rasterized, depth tests, plane traffic);
  2. the fragment ledger balances per row:
     depth_tested == prof_fragments - alpha_killed - stencil_killed;
  3. profiling overhead stays bounded: summed gpu_wall_ms with --profile is
     within OVERHEAD_BOUND of the run without it. The gpuprof budget is 5%,
     but single smoke runs on shared CI machines jitter far more than that
     (best-vs-worst single runs on the same box differ by 2x+), so the gate
     takes the *minimum* wall over each side's runs -- the minimum is the
     least-contended measurement of the same deterministic work -- and uses
     a looser 1.25x bound; the 5% claim is checked on quiet machines (see
     DESIGN.md §13). Callers alternate plain and profiled runs, so a burst
     of machine load lands on both arms rather than on one.

Usage: profile_smoke.py --plain <json>... --profiled <json>...
"""

import argparse
import json
import sys

OVERHEAD_BOUND = 1.25

COUNTER_KEYS = (
    "prof_passes",
    "prof_fragments",
    "alpha_killed",
    "stencil_killed",
    "depth_tested",
    "depth_killed",
    "occlusion_samples",
    "plane_bytes_read",
    "plane_bytes_written",
)


def fail(msg):
    print(f"profile_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as f:
        return json.load(f)


def wall_ms(doc):
    return sum(r["gpu_wall_ms"] for r in doc.get("rows", []))


def check_counters(profiled):
    rows = profiled.get("rows", [])
    if not rows:
        fail("profiled run has no rows")
    for row in rows:
        label = row.get("label", "?")
        for key in COUNTER_KEYS:
            if key not in row:
                fail(f"row {label}: missing counter column '{key}'")
        if row["prof_passes"] == 0 or row["prof_fragments"] == 0:
            fail(f"row {label}: zero passes/fragments under --profile")
        killed = row["alpha_killed"] + row["stencil_killed"]
        if row["depth_tested"] != row["prof_fragments"] - killed:
            fail(
                f"row {label}: fragment ledger out of balance: "
                f"depth_tested={row['depth_tested']} fragments="
                f"{row['prof_fragments']} killed={killed}"
            )
        if row["plane_bytes_read"] + row["plane_bytes_written"] == 0:
            fail(f"row {label}: no modeled plane traffic under --profile")
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--plain", nargs="+", required=True)
    parser.add_argument("--profiled", nargs="+", required=True)
    args = parser.parse_args()
    plain_paths, prof_paths = args.plain, args.profiled

    plains = [load(p) for p in plain_paths]
    profileds = [load(p) for p in prof_paths]

    for doc, path in zip(plains, plain_paths):
        if doc.get("profile"):
            fail(f"{path}: plain run JSON unexpectedly has \"profile\": true")
    for doc, path in zip(profileds, prof_paths):
        if not doc.get("profile"):
            fail(f"{path}: profiled run JSON lacks \"profile\": true")

    rows = None
    for doc in profileds:
        rows = check_counters(doc)

    # The counters are deterministic, so every profiled run must agree on
    # them -- a cheap cross-run bit-stability check.
    if len(profileds) > 1:
        baseline = [
            {k: r[k] for k in COUNTER_KEYS} for r in profileds[0]["rows"]
        ]
        for doc, path in zip(profileds[1:], prof_paths[1:]):
            got = [{k: r[k] for k in COUNTER_KEYS} for r in doc["rows"]]
            if got != baseline:
                fail(f"{path}: deep counters differ between profiled runs")

    plain_wall = min(wall_ms(d) for d in plains)
    prof_wall = min(wall_ms(d) for d in profileds)
    if plain_wall > 0 and prof_wall > plain_wall * OVERHEAD_BOUND:
        fail(
            f"profiling overhead too high: best gpu_wall {prof_wall:.1f} ms "
            f"over {len(profileds)} run(s) vs {plain_wall:.1f} ms plain over "
            f"{len(plains)} run(s) (bound {OVERHEAD_BOUND}x)"
        )

    ratio = prof_wall / plain_wall if plain_wall > 0 else float("nan")
    print(
        f"profile_smoke: OK: {len(rows)} rows, counters balanced, "
        f"best gpu_wall {prof_wall:.1f} ms vs {plain_wall:.1f} ms plain "
        f"({ratio:.3f}x)"
    )


if __name__ == "__main__":
    main()
