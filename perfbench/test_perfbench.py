"""Tests of the session-level benchmark itself.

  python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics tests are pure Python. ReducedRunTest builds the driver (into
$CARGO_TARGET_DIR, default .bench_build) and runs every workload at reduced
size, untraced and traced.
"""

import io
import json
import os
import random
import sys
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perfstats  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(perfstats.TooFewSamples):
            perfstats.percentile(list(range(199)), 0.95)
        with self.assertRaises(perfstats.TooFewSamples):
            perfstats.percentile(list(range(19)), 0.50)

    def test_nearest_rank(self):
        values = list(range(1, 201))
        random.Random(1).shuffle(values)
        # 200 samples: rank 190, exactly ten beyond it.
        self.assertEqual(perfstats.percentile(values, 0.95), 190)
        self.assertEqual(perfstats.percentile(values, 0.50), 100)


class DriftTest(unittest.TestCase):
    CYCLE = ["a", "b"]

    def test_flat_is_one(self):
        shapes = ["a", "a", "b", "b"] * 10
        rigs = [0, 1] * 20
        lat = [1.0, 1.0, 50.0, 50.0] * 10
        self.assertAlmostEqual(
            perfstats.latency_drift(shapes, rigs, lat, self.CYCLE), 1.0)

    def test_per_shape_so_the_mix_cannot_move_it(self):
        # The aged rig ran the costly shape far more often; per shape both
        # rigs agree.
        shapes = ["a"] * 2 + ["b"] * 18 + ["a"] * 18 + ["b"] * 2
        rigs = [0] * 20 + [1] * 20
        lat = [1.0 if s == "a" else 100.0 for s in shapes]
        self.assertAlmostEqual(
            perfstats.latency_drift(shapes, rigs, lat, self.CYCLE), 1.0)

    def test_geometric_mean_over_shapes(self):
        shapes = ["a", "a", "b", "b"]
        rigs = [0, 1, 0, 1]
        # Shape a doubles on the aged rig, shape b halves: geomean 1.
        self.assertAlmostEqual(perfstats.latency_drift(
            shapes, rigs, [2.0, 1.0, 0.5, 1.0], self.CYCLE), 1.0)
        self.assertAlmostEqual(perfstats.latency_drift(
            shapes, rigs, [4.0, 1.0, 4.0, 1.0], self.CYCLE), 4.0)
        self.assertAlmostEqual(perfstats.latency_drift(
            shapes, rigs, [9.0, 1.0, 1.0, 1.0], self.CYCLE), 3.0)

    def test_missing_shape_refused(self):
        with self.assertRaises(perfstats.TooFewSamples):
            perfstats.latency_drift(["a", "b"], [0, 1], [1.0, 1.0], self.CYCLE)


class FailRatioTest(unittest.TestCase):
    def doc(self, ok, wrong):
        n = len(ok)
        return {"shapes": ["s"], "cycle": ["s"], "clients": [{
            "shape": [0] * n, "episode": [0] * n,
            "start_us": list(range(n)), "latency_us": [1.0] * n,
            "ok": ok, "wrong": wrong}],
            "drift": {"shape": [0, 0], "rig": [0, 1], "latency_us": [1.0, 1.0],
                      "ok": [1, 0], "wrong": [0, 0]}}

    def test_counts_errors_and_wrong_answers_once(self):
        doc = self.doc(ok=[1, 0, 0, 1, 1], wrong=[0, 0, 1, 0, 0])
        # The drift comparison's statements count too: one of its two erred.
        self.assertEqual(perfstats.counts(doc), (7, 2, 1))
        self.assertAlmostEqual(perfstats.fail_ratio(*perfstats.counts(doc)),
                               3 / 7)

    def test_all_ok_is_zero(self):
        doc = self.doc(ok=[1] * 4, wrong=[0] * 4)
        doc["drift"]["ok"] = [1, 1]
        self.assertEqual(perfstats.fail_ratio(*perfstats.counts(doc)), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            perfstats.fail_ratio(0, 0, 0)


class NamesTest(unittest.TestCase):
    def test_character_set(self):
        for good in ("stmts_per_s", "core.exec_ms.q6_sum", "gpu.pass_log_len.end",
                     "0x", "a-b"):
            self.assertTrue(perfstats.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "é", "x" * 65):
            self.assertFalse(perfstats.valid_name(bad), bad)
        self.assertTrue(perfstats.valid_unit("1/s"))
        self.assertTrue(perfstats.valid_unit("%"))
        self.assertFalse(perfstats.valid_unit("m s"))

    def test_benchmark_json(self):
        spec = run.load_spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for key in ("end_to_end", "per_layer"):
            for m in spec[key]:
                self.assertTrue(perfstats.valid_name(m["name"]), m["name"])
                self.assertTrue(perfstats.valid_unit(m["unit"]), m["unit"])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))


class ReducedRunTest(unittest.TestCase):
    """Every workload end to end at reduced size, answers checked."""

    def run_workload(self, workload, trace):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "small"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        spec = run.load_spec()
        listed = spec["per_layer" if trace else "end_to_end"]
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 200)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in listed))
        return result["metrics"]

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.run_workload(workload, 0)
                for name, m in e2e.items():
                    self.assertGreater(m["value"], 0, name)
                layers = self.run_workload(workload, 1)
                self.assertGreater(layers["gpu.pass_log_len.end"]["value"],
                                   layers["gpu.pass_log_len.start"]["value"])
                self.assertEqual(layers["fail_ratio"]["value"], 0)
                self.assertEqual(layers["gpu.bytes_swapped"]["value"], 0)
                self.assertEqual(layers["admission.rejected"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
