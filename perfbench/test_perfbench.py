#!/usr/bin/env python3
"""Self-tests of the benchmark, at toy size.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as perfbench/run.py does), then checks that every
workload passes its correctness checks, that every metric named in
BENCHMARK.json is emitted with its unit in both modes, that a planted bad
outcome (a truncated fetch) trips the correctness check, and that the
simulated outcome digest is reproducible.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    """Runs the benchmark binary at toy size; returns (exit code, stdout)."""
    cmd = [run.BINARY, "--scale", "toy", "--seconds", "0.05",
           "--out", os.path.join(run.BUILD, "test-out")] + list(args)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("outcome_digest "):
            return line.split()[1]
    return None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def assert_metrics(self, res, spec):
        self.assertEqual(set(res["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_is_correct_and_emits_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, out = bench("--workload", w, "--seed", "3", "--trace", "0")
                self.assertEqual(code, 0)
                res = result(out)
                self.assertTrue(res["correct"], out)
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assert_metrics(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                       m["name"])

    def test_traced_run_emits_every_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, out = bench("--workload", w, "--seed", "3", "--trace", "1")
                self.assertEqual(code, 0)
                res = result(out)
                self.assertTrue(res["correct"], out)
                self.assert_metrics(res, SPEC["per_layer"])

    def test_planted_truncated_fetch_trips_the_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, out = bench("--workload", w, "--seed", "3", "--trace", "0",
                                  "--plant", "truncated_fetch")
                self.assertEqual(code, 0)
                res = result(out)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertIn("CHECK FAILED: fetch of", out)

    def test_outcome_digest_depends_only_on_the_seed(self):
        w = WORKLOADS[0]
        a = digest(bench("--workload", w, "--seed", "5", "--trace", "0")[1])
        b = digest(bench("--workload", w, "--seed", "5", "--trace", "0")[1])
        c = digest(bench("--workload", w, "--seed", "6", "--trace", "0")[1])
        self.assertIsNotNone(a)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_bad_arguments_fail_without_a_result(self):
        code, out = bench("--workload", "no_such_workload", "--seed", "1",
                          "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertEqual(out.strip(), "")


if __name__ == "__main__":
    unittest.main()
