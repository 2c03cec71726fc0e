#!/usr/bin/env python3
"""Tests of the benchmark harness itself, on the tiny `smoke` dataset.

    python3 perfbench/test_perfbench.py

Builds the harness like run.py does, then checks that every metric named in
BENCHMARK.json is emitted with its unit, and that an altered leg output or
query-answer stream trips the self-check.
"""

import json
import math
import subprocess
import tempfile
import unittest
from pathlib import Path

import run as perfbench

SPEC = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())


def bench(work, *extra, seed=3, trace=0, state=None):
    """Run the smoke workload; returns (exit code, result JSON or None)."""
    cmd = [str(BINARY), "--workload", "smoke", "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--work", str(work)]
    if state is not None:
        cmd += ["--state", str(state)]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = perfbench.build()

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(dir=perfbench.build_dir())
        self.work = Path(self.tmp.name) / "work"
        self.state = Path(self.tmp.name) / "state"

    def tearDown(self):
        self.tmp.cleanup()

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got[m["name"]]["value"]), m["name"])

    def test_end_to_end_metrics_emitted_with_units(self):
        rc, result = bench(self.work, state=self.state)
        self.assertEqual(rc, 0)
        self.check_metrics(result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics_emitted_with_units(self):
        rc, result = bench(self.work, trace=1, state=self.state)
        self.assertEqual(rc, 0)
        self.check_metrics(result, SPEC["per_layer"])
        for leg in ("setup", "analyze_serial", "analyze_parallel", "serve",
                    "serve_ckpt"):
            coverage = result["metrics"][f"trace.{leg}.coverage"]["value"]
            self.assertGreater(coverage, 0.9, leg)

    def test_altered_leg_output_trips_self_check(self):
        for leg in ("analyze_parallel", "serve", "serve_ckpt"):
            rc, result = bench(self.work, "--tamper", leg)
            self.assertNotEqual(rc, 0, leg)
            self.assertFalse(result["correct"], leg)
            self.assertGreaterEqual(result["failed"], 1, leg)

    def test_altered_answer_stream_trips_cross_run_check(self):
        rc, first = bench(self.work, seed=5, state=self.state)
        self.assertEqual(rc, 0)
        self.assertTrue(first["correct"])
        rc, again = bench(self.work, "--tamper", "query", seed=5,
                          state=self.state)
        self.assertNotEqual(rc, 0)
        self.assertFalse(again["correct"])
        self.assertGreater(again["failed"], 1)


if __name__ == "__main__":
    unittest.main()
