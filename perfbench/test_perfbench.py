#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny input size.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
in the JSON result and in the human-readable report, that the traced run
passes its self-check and writes its spans, and that an injected wrong
reference digest shows in failed_frac and the exit status.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, trace, *extra):
    """One tiny single-pass run; returns (exit code, stdout lines, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "42", "--seconds", "0",
           "--trace", str(trace), "--preset", "tiny"]
    p = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, lines, result, wanted):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))
            row = re.compile(r"^\s+%s\s+\S+\s+%s\b" % (
                re.escape(m["name"]), re.escape(m["unit"])))
            self.assertTrue(any(row.match(l) for l in lines),
                            "no report row for " + m["name"])

    def test_end_to_end_metrics(self):
        code, lines, result = bench("sweep-tiny", 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 80)
        self.check_metrics(lines, result, spec()["end_to_end"])
        self.assertTrue(any(re.match(r"^\s+failed_frac\s+0\s+fraction", l)
                            for l in lines))
        for key in ("policy=sched=random", "backend=timing", "preset=tiny",
                    "cores=1,4,16,64,256", "compiler=", "nproc=",
                    "revision="):
            self.assertTrue(any(key in l for l in lines), key)

    def test_traced_run(self):
        for workload in ("fig-64c", "functional-256"):
            code, lines, result = bench(workload, 1)
            self.assertEqual(code, 0, workload)
            self.check_metrics(lines, result, spec()["per_layer"])
            self.assertTrue(any(l.startswith("self-check") and
                                l.endswith(": equal") for l in lines))
            self.assertGreater(result["metrics"]["backend.access_calls"]
                               ["value"], 0)
            path = os.path.join(ROOT, ".bench_build", "spans",
                                "%s-seed42.json" % workload)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            names = {e["name"] for e in events}
            self.assertTrue({"apps.setup", "machine.construct",
                             "apps.enqueue_initial", "machine.run",
                             "apps.validate"} <= names)

    def test_wrong_reference_fails_run(self):
        code, lines, result = bench("functional-256", 0,
                                    "--corrupt-reference")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        frac = [l for l in lines if re.match(r"^\s+failed_frac\s", l)]
        self.assertEqual(len(frac), 1)
        self.assertGreater(float(frac[0].split()[1]), 0)


if __name__ == "__main__":
    unittest.main()
