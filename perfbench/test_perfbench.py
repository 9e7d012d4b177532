#!/usr/bin/env python3
"""Self-tests of the benchmark, at small budgets. Run from the repository
root (the first run builds .bench_build/):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def run(workload, trace, budget, seed=7, seconds=0):
    """Runs one benchmark invocation and returns its parsed result."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--budget", str(budget)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_use_only_allowed_characters(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_printed_names_use_allowed_characters(self):
        result = run("feedback-mem", trace=1, budget=300)
        for name in result["metrics"]:
            self.assertRegex(name, NAME_RE)


class TracedLoopEquivalence(unittest.TestCase):
    """The traced replay must land on the untraced campaign's edges, corpus
    size and unique-bug set; lego_perf counts any mismatch as a failure."""

    def check(self, workload):
        result = run(workload, trace=1, budget=2000)
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["metrics"]["trace.span_share"]["value"],
                                0.95)

    def test_feedback_mem(self):
        self.check("feedback-mem")

    def test_paged_oracle(self):
        self.check("paged-oracle")


class FleetDeterminism(unittest.TestCase):
    def test_fleet_edges_repeat_exactly(self):
        # Each invocation runs at least three fleets and fails on any edge
        # mismatch among them; two invocations must also agree.
        first = run("fleet-2", trace=0, budget=300)
        second = run("fleet-2", trace=0, budget=300)
        self.assertTrue(first["correct"] and second["correct"])
        self.assertEqual(first["metrics"]["edges"]["value"],
                         second["metrics"]["edges"]["value"])


if __name__ == "__main__":
    unittest.main()
