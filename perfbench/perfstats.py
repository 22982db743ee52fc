"""Statistics for the session-level benchmark.

Turns the driver's raw per-statement samples and its Chrome trace into the
metrics listed in BENCHMARK.json. Pure functions only; perfbench/run.py does
the building and running.
"""

import math
import re
import statistics
from collections import defaultdict

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SCAN_SHAPES = ["count_1pred", "count_cnf2", "between", "attr_compare", "not_or",
               "select_ids", "median", "max_between", "q6_sum"]
POOL_SHAPES = ["count_1pred", "count_cnf2", "between", "max_between",
               "select_ids"]

# Phases of the traced run whose statements repeat the untraced schedule.
TRACED_PHASES = ("traced", "contended")
# Phases in which a statement's layers run uncontended, so that Execute
# minus its parse and execute calls is the session's own cost.
SESSION_PHASES = ("traced", "solo")


class TooFewSamples(ValueError):
    """A statistic was asked of a sample too small to support it."""


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile, 0 < q < 1.

    Refuses (TooFewSamples) when fewer than `min_beyond` samples lie above
    the rank it would return: p95 needs at least 200 samples.
    """
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {min_beyond}")
    return sorted(values)[rank - 1]


def latency_drift(shapes, rigs, latencies, cycle):
    """How much slower an aged session runs than a fresh one.

    The statements alternate between the session that ran the timed loop
    (rig 0) and a freshly set-up one (rig 1). For each shape of `cycle`:
    the median latency on the aged rig over the median on the fresh rig.
    Returns the geometric mean of those ratios (1.0 = flat), so a change in
    the shape mix cannot move it.
    """
    ratios = []
    for shape in cycle:
        aged = [l for s, r, l in zip(shapes, rigs, latencies)
                if s == shape and r == 0]
        fresh = [l for s, r, l in zip(shapes, rigs, latencies)
                 if s == shape and r == 1]
        if not aged or not fresh:
            raise TooFewSamples(f"shape {shape} has no aged/fresh pair")
        ratios.append(statistics.median(aged) / statistics.median(fresh))
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def fail_ratio(attempted, errored, wrong):
    """Statements that errored (shed ones included) or returned a wrong
    answer, over statements attempted. A statement is one or the other."""
    if attempted <= 0:
        raise ValueError("no statements attempted")
    return (errored + wrong) / attempted


def block_rates(ends_us, block):
    """Completion rates of consecutive blocks of `block` statements.

    `ends_us` are one loop's completion times from the loop's start; a
    trailing partial block is dropped.
    """
    ends = sorted(ends_us)
    rates, prev = [], 0.0
    for i in range(block - 1, len(ends), block):
        rates.append(block / ((ends[i] - prev) / 1e6))
        prev = ends[i]
    return rates


def samples(doc):
    """Flattens the driver's per-client columns into per-statement dicts."""
    names = doc["shapes"]
    out = []
    for c in doc["clients"]:
        for i in range(len(c["shape"])):
            out.append({
                "episode": c["episode"][i],
                "shape": names[c["shape"][i]],
                "start_us": c["start_us"][i],
                "latency_us": c["latency_us"][i],
                "ok": bool(c["ok"][i]),
                "wrong": bool(c["wrong"][i]),
            })
    return out


def counts(doc):
    """(attempted, errored, wrong) over the untraced loop and the drift
    comparison. A statement is errored or wrong, never both."""
    blocks = doc["clients"] + [doc["drift"]]
    ok = [x for b in blocks for x in b["ok"]]
    wrong = [x for b in blocks for x in b["wrong"]]
    return len(ok), sum(not o and not w for o, w in zip(ok, wrong)), sum(wrong)


def end_to_end(doc):
    """End-to-end metrics of an untraced run: {name: (value, samples)}."""
    rows = samples(doc)
    lat_ms = [r["latency_us"] / 1000.0 for r in rows]
    episodes = defaultdict(list)
    for r in rows:
        episodes[r["episode"]].append(r)
    rates = []
    for ep in episodes.values():
        rates += block_rates([r["start_us"] + r["latency_us"] for r in ep],
                             doc["block"])
    drift = doc["drift"]
    attempted, errored, wrong = counts(doc)
    n = len(rows)
    return {
        # Median over blocks, so that a burst of load from outside the
        # benchmark moves it less than a whole-loop mean would.
        "stmts_per_s": (statistics.median(rates), len(rates)),
        "latency_p50_ms": (percentile(lat_ms, 0.50), n),
        "latency_p95_ms": (percentile(lat_ms, 0.95), n),
        "latency_drift": (latency_drift([doc["shapes"][s] for s in drift["shape"]],
                                        drift["rig"], drift["latency_us"],
                                        doc["cycle"]),
                          len(drift["shape"])),
        "rss_peak_mb": (doc["rss_peak_mb"], 1),
        "setup_s": (statistics.median(doc["setup_s"]), len(doc["setup_s"])),
        "fail_ratio": (fail_ratio(attempted, errored, wrong), attempted),
    }


def _dur_ns(event):
    return event["args"]["dur_ns"]


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def trace_layers(events, doc):
    """Per-layer metrics of a traced run: {name: value}.

    Span-derived timings come from the Chrome trace `events`; counter totals
    over the untraced loop come from the driver document `doc`. A layer the
    workload does not exercise (the pool on a single-device workload)
    reads 0.
    """
    spans = [e for e in events if e.get("ph") == "X"]
    children = defaultdict(list)
    for e in spans:
        children[e["args"]["parent_id"]].append(e)

    def named(name):
        return [e for e in spans if e["name"] == name]

    def child(parent, name):
        for c in children[parent["args"]["span_id"]]:
            if c["name"] == name:
                return c
        return None

    out = dict(doc["layers"])
    n_loop = sum(len(c["shape"]) for c in doc["clients"])

    # Statement layers: Execute minus parse minus execute, same statement.
    parse_us, overhead_us = [], []
    periodic = defaultdict(list)
    pool_ms = {"contended": defaultdict(list), "solo": defaultdict(list)}
    for stmt in named("statement"):
        shape, phase = stmt["args"]["shape"], stmt["args"]["phase"]
        execute = child(stmt, "sql.session_execute")
        if shape in ("system_table", "analyze"):
            periodic[shape].append(_dur_ns(execute) / 1e6)
            continue
        parse = child(stmt, "sql.parse")
        inner = child(stmt, "core.execute_parsed") or child(stmt, "pool.dispatch")
        if phase in SESSION_PHASES:
            parse_us.append(_dur_ns(parse) / 1e3)
            overhead_us.append(
                (_dur_ns(execute) - _dur_ns(parse) - _dur_ns(inner)) / 1e3)
        if inner["name"] == "pool.dispatch":
            pool_ms[phase][shape].append(_dur_ns(inner) / 1e6)
    out["sql.parse_us"] = statistics.median(parse_us)
    out["sql.session_overhead_us"] = statistics.median(overhead_us)
    out["sql.system_table_ms"] = _median_or_zero(periodic["system_table"])
    out["sql.analyze_ms"] = _median_or_zero(periodic["analyze"])

    probes = defaultdict(list)
    for e in named("core.execute_parsed"):
        if e["args"].get("phase") == "probe":
            probes[e["args"]["shape"]].append(e)
    for shape in SCAN_SHAPES:
        runs = probes[shape]
        out[f"core.exec_ms.{shape}"] = statistics.median(
            _dur_ns(e) / 1e6 for e in runs)
        out[f"gpu.ns_per_fragment.{shape}"] = statistics.median(
            _dur_ns(e) / max(1, e["args"]["fragments"]) for e in runs)

    for shape in POOL_SHAPES:
        out[f"pool.exec_ms.{shape}"] = _median_or_zero(
            pool_ms["contended"][shape])
        out[f"pool.solo_ms.{shape}"] = _median_or_zero(pool_ms["solo"][shape])
    contended = [v for vs in pool_ms["contended"].values() for v in vs]
    solo = [v for vs in pool_ms["solo"].values() for v in vs]
    out["pool.contention_ratio"] = (
        statistics.median(contended) / statistics.median(solo)
        if contended and solo else 0.0)

    queue = doc["queue_ms"]
    out["sql.queue_ms_p50"] = percentile(queue, 0.50)
    out["sql.queue_ms_p95"] = percentile(queue, 0.95)

    for span, metric in (("db.datagen", "db.datagen_ms"),
                         ("db.shard", "db.shard_ms"),
                         ("gpu.upload", "gpu.upload_ms")):
        out[metric] = sum(e["dur"] for e in named(span)) / 1000.0
    out["gpu.upload_bytes"] = sum(e["args"]["bytes"]
                                  for e in named("gpu.upload"))

    # Tracing cost: untraced throughput over traced throughput of the same
    # schedule (a traced statement also runs its parse and execute again).
    loops = [e for e in named("traced_loop")
             if e["args"]["phase"] in TRACED_PHASES]
    traced_stmts = sum(e["args"]["statements"] for e in loops)
    wall_s = (max(e["ts"] + e["dur"] for e in loops)
              - min(e["ts"] for e in loops)) / 1e6
    out["trace.overhead"] = (n_loop / doc["loop_s"]) / (traced_stmts / wall_s)

    attempted, errored, wrong = counts(doc)
    traced = doc["traced"]
    out["fail_ratio"] = fail_ratio(
        attempted + traced["attempted"],
        errored + traced["failed"] - traced["wrong"],
        wrong + traced["wrong"])
    return out
