"""Smoke test of the benchmark: each workload on a tiny input.

    python3 perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json prints with its unit, in both
trace modes, and that a corrupted reference value makes error_rate > 0.
Takes about ten seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def bench(workload, trace, reference=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    if reference:
        cmd += ["--reference", reference]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)


def corrupt_reference(path):
    """Copy of the reference data with one value changed per file, each
    one that a tiny run with seed SEED reads."""
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "data"), path)

    verify = os.path.join(path, "verify.json")
    with open(verify, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["reports"]["4"]["psi-mhs_weak"]["max_diff"] += 1
    with open(verify, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)

    panel = os.path.join(path, "panel.json")
    with open(panel, encoding="utf-8") as fh:
        ref = json.load(fh)
    stratum, j = inputs.panel_draw(SEED, True)[0]
    ref[stratum][j]["beta"] += 1
    with open(panel, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_metric_prints_with_its_unit(self):
        for workload in self.workloads:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    result = self.result(proc)
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    want = {m["name"]: m["unit"] for m in self.spec[listed]}
                    self.assertEqual(set(metrics), set(want))
                    for name, unit in want.items():
                        self.assertEqual(metrics[name]["unit"], unit)
                        self.assertIsInstance(metrics[name]["value"], (int, float))
                        self.assertRegex(proc.stdout, re.compile(
                            rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$", re.M))

    def test_corrupted_reference_counts_as_error(self):
        path = os.path.join(HERE, "_work", "corrupt-reference")
        corrupt_reference(path)
        try:
            for workload in self.workloads:
                with self.subTest(workload=workload):
                    proc = bench(workload, 0, reference=path)
                    result = self.result(proc)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    rate = re.search(r"^  error_rate = (\S+)", proc.stdout, re.M)
                    self.assertGreater(float(rate.group(1)), 0)
        finally:
            shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
