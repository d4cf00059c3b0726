#!/usr/bin/env python3
"""Tests for tools/check_bench.py, the bench-regression gate.

Each case writes a baseline and a fresh bench JSON to a temporary
directory, runs the gate with --strict (so a flagged regression exits 1)
and checks the exit code and the message.

Run: python3 tests/tools/check_bench_test.py   (ctest -L tools)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, os.pardir, "tools", "check_bench.py")


def row(**overrides):
    """One table-bench row; keyword arguments replace fields."""
    r = {"circuit": "s1423", "config": "var", "seconds": 0.5,
         "m": 1.13616, "t": 1.03486, "tv": 198, "ex": 198,
         "counters": {"podem.calls": 100, "tracker.cycles": 198}}
    r.update(overrides)
    return r


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, rows, threads=1):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump({"bench": "table2", "threads": threads,
                       "configs": rows}, f)
        return path

    def check(self, base_rows, fresh_rows, baseline=None, fresh_threads=1):
        base = baseline or self.write("base.json", base_rows)
        fresh = self.write("fresh.json", fresh_rows, threads=fresh_threads)
        return subprocess.run(
            [sys.executable, CHECK_BENCH, "--fresh", fresh, "--baseline",
             base, "--strict"],
            capture_output=True, text=True)

    def test_m_drift_is_flagged(self):
        out = self.check([row()], [row(m=1.13617)])
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("s1423/var m: 1.13617 vs baseline 1.13616", out.stdout)

    def test_counter_mismatch_is_flagged(self):
        out = self.check(
            [row()], [row(counters={"podem.calls": 101, "tracker.cycles": 198})])
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("counters.podem.calls: 101 vs baseline 100", out.stdout)

    def test_one_sided_nonzero_counter_is_flagged(self):
        counters = {"podem.calls": 100, "tracker.cycles": 198,
                    "atpg.aborted_faults": 3}
        out = self.check([row()], [row(counters=counters)])
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("counters.atpg.aborted_faults: only in fresh run",
                      out.stdout)

    def test_missing_baseline_exits_1(self):
        missing = os.path.join(self.tmp.name, "no_such_baseline.json")
        out = self.check(None, [row()], baseline=missing)
        self.assertEqual(out.returncode, 1)
        self.assertIn("baseline not found", out.stderr)

    def test_timing_inside_tolerance_is_not_flagged(self):
        out = self.check([row()], [row(seconds=0.6)])  # +20% of ±25%
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("no regressions beyond tolerance", out.stdout)

    def test_timings_at_other_thread_count_are_skipped(self):
        out = self.check([row()], [row(seconds=3.0)], fresh_threads=4)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("fresh run used 4 threads vs baseline 1", out.stdout)
        self.assertIn("no regressions beyond tolerance", out.stdout)

    def test_counter_mismatch_at_other_thread_count_is_flagged(self):
        out = self.check(
            [row()],
            [row(seconds=3.0,
                 counters={"podem.calls": 101, "tracker.cycles": 198})],
            fresh_threads=4)
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("counters.podem.calls: 101 vs baseline 100", out.stdout)
        self.assertNotIn("seconds", out.stdout)


if __name__ == "__main__":
    unittest.main()
