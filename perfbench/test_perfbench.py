#!/usr/bin/env python3
"""Tests of the repository benchmark, in smoke mode (tiny sizes).

Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

Each workload runs untraced and one traced run follows; every result object
must be correct and carry exactly the metrics BENCHMARK.json names. Outside
a source tree the benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, seed=1):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check_result(self, done, names, nonzero):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            if nonzero:
                self.assertNotEqual(metric["value"], 0, name)
        self.assertTrue(done.stdout.startswith("# run {"), done.stdout[:200])
        return result

    def test_every_workload_reports_every_end_to_end_metric(self):
        benchmark = spec()
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        counts = {}
        for workload in (w["name"] for w in benchmark["workloads"]):
            with self.subTest(workload=workload):
                result = self.check_result(run(workload, 0), units, nonzero=True)
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name])
                counts[workload] = {name: result["metrics"][name]["value"]
                                    for name in ("rounds_per_exec", "msgs_per_node")}
        # The paper's measures are exact for a seed: a second process agrees.
        again = result_of(run("crash_consensus", 0))
        for name, value in counts["crash_consensus"].items():
            self.assertEqual(again["metrics"][name]["value"], value, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        benchmark = spec()
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        # Per-layer counts may be 0 (fleet.steals when no worker runs dry).
        workload = benchmark["workloads"][0]["name"]
        result = self.check_result(run(workload, 1), units, nonzero=False)
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
        # The span trace is written at the end: one JSON object per line,
        # spans of every layer included.
        path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                            "perfbench", "trace-%s.jsonl" % workload)
        with open(path, encoding="utf-8") as f:
            names = {json.loads(line)["name"] for line in f}
        for name in ("sim.run_system", "singleport.run_linear_consensus",
                     "scenarios.run_at.gossip", "client.recv_ack", "ordering.step"):
            self.assertIn(name, names)

    def test_fails_without_a_source_tree(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, RUN, "--workload", "crash_consensus", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180, check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
