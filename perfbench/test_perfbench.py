#!/usr/bin/env python3
"""The benchmark's own tests: tiny runs of every workload print every
metric of BENCHMARK.json with its unit, and the negative control fails.

    python3 perfbench/test_perfbench.py
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    """One tiny run. @return (provenance line, result line) as dicts."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, check=True,
                         timeout=900).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, metrics):
        info, result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in metrics])
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if trace == 0:
                self.assertNotEqual(got["value"], 0, m["name"])
        prov = info["provenance"]
        self.assertEqual(prov["seed"], 7)
        self.assertEqual(prov["workload"], workload)
        for key in ("nproc", "cpu_model", "build_type"):
            self.assertIn(key, prov)

    def test_every_workload_prints_every_metric(self):
        # kv-b is out of BENCHMARK.json for the run budget but still runs.
        for name in [w["name"] for w in SPEC["workloads"]] + ["kv-b"]:
            with self.subTest(workload=name, trace=0):
                self.check(name, 0, SPEC["end_to_end"])
            with self.subTest(workload=name, trace=1):
                self.check(name, 1, SPEC["per_layer"])


class NegativeControl(unittest.TestCase):
    def test_injected_probe_fault_fails_the_run(self):
        _, result = run("fuzz-crash", 0, "--break-probe-invalidate")
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
