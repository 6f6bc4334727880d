#!/usr/bin/env python3
"""Tests for scripts/compare_reports.py (the perf-regression gate).

Each case materialises baseline/candidate report JSON into a temp dir and
runs the script as a subprocess, asserting on its exit code — the contract
check.sh and CI actually consume (0 = ok, 1 = regression, 2 = bad input).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "compare_reports.py")


def make_report(schema="snb-report-v5", ops_per_second=1000.0, ops=None,
                on_time_fraction=0.99, compliance=True):
    doc = {
        "schema": schema,
        "driver": {"ops_per_second": ops_per_second},
        "ops": ops if ops is not None else [
            {"op": "complex_2", "count": 100,
             "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 4.0},
            {"op": "short_1", "count": 200,
             "p50_ms": 0.1, "p95_ms": 0.2, "p99_ms": 0.4},
        ],
    }
    if compliance:
        doc["compliance"] = {"on_time_fraction": on_time_fraction}
    return doc


class CompareReportsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_compare(self, base, cand, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, base, cand, *extra],
            capture_output=True, text=True)

    def test_identical_reports_pass(self):
        base = self.write("base.json", make_report())
        cand = self.write("cand.json", make_report())
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK: within thresholds", result.stdout)

    def test_throughput_drop_fails(self):
        base = self.write("base.json", make_report(ops_per_second=1000.0))
        cand = self.write("cand.json", make_report(ops_per_second=500.0))
        result = self.run_compare(base, cand)  # Default max drop: 30%.
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION: throughput", result.stdout)

    def test_latency_slack_absorbs_small_absolute_growth(self):
        # short_1 p99 triples (far past the 50% relative ceiling) but grows
        # only 0.8 ms absolute — under the 1.0 ms slack, so it must pass.
        base = self.write("base.json", make_report())
        fast_ops = [
            {"op": "short_1", "count": 200,
             "p50_ms": 0.1, "p95_ms": 0.2, "p99_ms": 1.2},
        ]
        cand = self.write("cand.json", make_report(ops=fast_ops))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_latency_inflation_past_slack_fails(self):
        slow_ops = [
            {"op": "complex_2", "count": 100,
             "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 9.0},
        ]
        base = self.write("base.json", make_report())
        cand = self.write("cand.json", make_report(ops=slow_ops))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("complex_2 p99_ms", result.stdout)

    def test_baseline_without_compliance_skips_compliance(self):
        # A baseline with no compliance section: a terrible candidate
        # fraction must not be compared against it.
        base = self.write("base.json", make_report(compliance=False))
        cand = self.write("cand.json", make_report(on_time_fraction=0.10))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_compliance_drop_fails(self):
        base = self.write("base.json", make_report(on_time_fraction=0.99))
        cand = self.write("cand.json", make_report(on_time_fraction=0.80))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION: compliance", result.stdout)

    def hw_ops(self, ipc, llc_mpki, hw_samples=100):
        return [{"op": "complex_9", "count": 100,
                 "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 4.0,
                 "hw_samples": hw_samples, "ipc": ipc,
                 "llc_miss_per_kinstr": llc_mpki}]

    def test_identical_counter_reports_pass(self):
        doc = make_report(ops=self.hw_ops(2.0, 1.0))
        base = self.write("base.json", doc)
        cand = self.write("cand.json", doc)
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_injected_ipc_regression_fails(self):
        # IPC halves (well past the default 20% drop): the gate must trip
        # even though every wall-clock number is identical.
        base = self.write("base.json", make_report(
            ops=self.hw_ops(2.0, 1.0)))
        cand = self.write("cand.json", make_report(
            ops=self.hw_ops(1.0, 1.0)))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("complex_9 ipc", result.stdout)

    def test_small_ipc_wobble_passes(self):
        base = self.write("base.json", make_report(
            ops=self.hw_ops(2.0, 1.0)))
        cand = self.write("cand.json", make_report(
            ops=self.hw_ops(1.9, 1.0)))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_llc_miss_inflation_fails(self):
        base = self.write("base.json", make_report(
            ops=self.hw_ops(2.0, 1.0)))
        cand = self.write("cand.json", make_report(
            ops=self.hw_ops(2.0, 3.0)))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("llc_miss_per_kinstr", result.stdout)

    def test_llc_slack_absorbs_small_absolute_growth(self):
        # 0.1 -> 0.4 misses/kinstr is 4x relative but only 0.3 absolute —
        # under the 0.5 slack, so near-zero baselines don't trip on noise.
        base = self.write("base.json", make_report(
            ops=self.hw_ops(2.0, 0.1)))
        cand = self.write("cand.json", make_report(
            ops=self.hw_ops(2.0, 0.4)))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_counterless_baseline_skips_hw_checks(self):
        # A wall-clock-only baseline (no hw fields) must not be compared
        # against a candidate that happens to carry counters.
        base = self.write("base.json", make_report())
        cand = self.write("cand.json", make_report(
            ops=self.hw_ops(0.1, 50.0)))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_too_few_hw_samples_skips_hw_checks(self):
        base = self.write("base.json", make_report(
            ops=self.hw_ops(2.0, 1.0)))
        cand = self.write("cand.json", make_report(
            ops=self.hw_ops(0.5, 1.0, hw_samples=2)))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def profile_report(self, backend="timer", captured=1000,
                       overhead_ns=10_000, task_clock_ns=10_000_000):
        doc = make_report()
        doc["profile"] = {
            "backend": backend, "captured": captured,
            "attributed": captured, "unattributed": 0, "dropped": 0,
            "self_overhead_ns": overhead_ns,
            "task_clock_ns": task_clock_ns,
        }
        return doc

    def test_low_profiler_overhead_passes(self):
        base = self.write("base.json", make_report())
        # 10 us over 10 ms = 0.1%, well under the 2% gate.
        cand = self.write("cand.json", self.profile_report())
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_excessive_profiler_overhead_fails(self):
        base = self.write("base.json", make_report())
        # 500 us over 10 ms = 5% — past the 2% default gate. The gate is
        # absolute on the candidate: the baseline carries no profile.
        cand = self.write("cand.json",
                          self.profile_report(overhead_ns=500_000))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("profiler self-overhead", result.stdout)

    def test_few_samples_skip_overhead_gate(self):
        base = self.write("base.json", make_report())
        # Same 5% overhead ratio, but from 3 samples: too noisy to gate.
        cand = self.write("cand.json",
                          self.profile_report(captured=3,
                                              overhead_ns=500_000))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_noop_backend_skips_overhead_gate(self):
        base = self.write("base.json", make_report())
        cand = self.write("cand.json",
                          self.profile_report(backend="noop", captured=0,
                                              overhead_ns=0,
                                              task_clock_ns=0))
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_overhead_threshold_is_tunable(self):
        base = self.write("base.json", make_report())
        # 0.1% overhead trips a deliberately cruel 0.01% threshold.
        cand = self.write("cand.json", self.profile_report())
        result = self.run_compare(base, cand,
                                  "--max-profiler-overhead", "0.0001")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("profiler self-overhead", result.stdout)

    def test_unknown_schema_is_bad_input(self):
        base = self.write("base.json", make_report(schema="not-a-report"))
        cand = self.write("cand.json", make_report())
        result = self.run_compare(base, cand)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)

    def test_older_report_schemas_are_unsupported(self):
        # v5 is the one report schema; v1-v4 documents are refused by name
        # on either side rather than read as subsets.
        for old in ("snb-report-v1", "snb-report-v2", "snb-report-v3",
                    "snb-report-v4"):
            with self.subTest(schema=old):
                v5 = self.write("v5.json", make_report())
                older = self.write("old.json", make_report(schema=old))
                for base, cand in ((older, v5), (v5, older)):
                    result = self.run_compare(base, cand)
                    self.assertEqual(result.returncode, 2,
                                     result.stdout + result.stderr)
                    self.assertIn("unsupported schema", result.stderr)


if __name__ == "__main__":
    unittest.main()
