#!/usr/bin/env python3
"""Self-tests of the benchmark: every workload at reduced size, both modes.

Run from anywhere:

    python3 perfbench/test_perfbench.py

Each test runs `perfbench/run.py --selftest 1` and checks that the last stdout
line is the result object, that every correctness gate passed, and that every
metric BENCHMARK.json declares for the mode is emitted, by name, with its unit.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("series_cpu", "series_wan", "server_ingest")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--selftest", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class SelfTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith("provenance: ") for l in lines))
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads_declared(self):
        # server_ingest runs here but is not declared: its runs spread past
        # the bounds on a shared host (perfbench/README.md).
        declared = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(declared, [w for w in WORKLOADS if w != "server_ingest"])

    def test_missing_sources_fail_fast(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("series_cpu", 0, cwd=d)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


def add_workload_tests():
    for w in WORKLOADS:
        for trace in (0, 1):
            def test(self, w=w, trace=trace):
                self.check(w, trace)
            setattr(SelfTest, "test_%s_trace%d" % (w, trace), test)


add_workload_tests()

if __name__ == "__main__":
    unittest.main()
