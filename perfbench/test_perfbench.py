#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/test_perfbench.py

Checks that each workload prints every metric BENCHMARK.json names, with
its unit, in both modes, and writes its spans; that the output oracle
counts a deliberately wrong plan (--tamper) as failed; that two runs on
one seed print byte-identical deterministic columns; that the simulated
time table regenerates unchanged; and that the benchmark refuses to run
without the library sources. Runs everything through perfbench/run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics that are a pure function of the seed's inputs (not timings).
DETERMINISTIC_E2E = ["success_ratio", "full_tier_ratio", "plan_sim_us_geomean"]
DETERMINISTIC_UNITS = {"count", "bytes"}
DETERMINISTIC_LAYER = ["svc.cache_hit_ratio", "search.scored_ratio",
                       "verify.passed_ratio"]


def bench(workload, seed=7, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace), "--scale", "tiny"] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if r.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s\n%s" %
                             (" ".join(cmd), r.returncode, r.stdout[-3000:],
                              r.stderr[-3000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench(w, trace=0)
                self.check_metrics(r, SPEC["end_to_end"])
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                with tempfile.TemporaryDirectory() as d:
                    out = os.path.join(d, "trace.json")
                    t = bench(w, trace=1, extra=["--trace-out", out])
                    with open(out) as f:
                        spans = json.load(f)["traceEvents"]
                self.check_metrics(t, SPEC["per_layer"])
                self.assertTrue(t["correct"])
                self.assertTrue(any(e["name"] == "request" for e in spans))

    def test_oracle_counts_a_wrong_plan_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench(w, extra=["--tamper"])
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertLess(r["metrics"]["success_ratio"]["value"], 1)

    def test_deterministic_columns_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = bench(w, seed=11), bench(w, seed=11)
                for k in DETERMINISTIC_E2E:
                    self.assertEqual(a["metrics"][k], b["metrics"][k], k)
                ta, tb = bench(w, seed=11, trace=1), bench(w, seed=11,
                                                          trace=1)
                for k, v in ta["metrics"].items():
                    if v["unit"] in DETERMINISTIC_UNITS or \
                            k in DETERMINISTIC_LAYER:
                        self.assertEqual(v, tb["metrics"][k], k)

    def test_simulated_time_table_regenerates(self):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "simulate_paper", "--print-sim-table"], cwd=ROOT,
            capture_output=True, text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        with open(os.path.join(HERE, "expected_simulate_paper.txt")) as f:
            self.assertEqual(r.stdout, f.read())

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=d, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
