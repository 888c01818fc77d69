#!/usr/bin/env python3
"""The benchmark's own test: two cold runs of the same input set print
bit-equal deterministic counts, outputs and quality figures, and pass every
check, on every workload.

    python3 perfbench/test_perfbench.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import run  # noqa: E402

EXACT_FIELDS = ("counts", "output", "carbon_kg", "mean_rtt_ms", "placed", "rejected", "events")


class DeterministicCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        os.makedirs(run.build_dir(), exist_ok=True)

    def cold_run(self, workload, instance):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as scratch:
            rep = run.run_rep(self.binary, workload, instance, False,
                              os.path.join(scratch, "store"))
        self.assertIsNotNone(rep["cold"], f"{workload} cold run failed")
        self.assertIsNotNone(rep["resume"], f"{workload} resume run failed")
        return rep

    def test_two_runs_agree(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.cold_run(workload, 0)
                second = self.cold_run(workload, 0)
                for field in EXACT_FIELDS:
                    self.assertEqual(first["cold"][field], second["cold"][field], field)
                self.assertEqual(first["resume"]["counts"], second["resume"]["counts"])
                failed = [name for name, ok in run.run_checks(workload, [first, second]).items()
                          if not ok]
                self.assertEqual(failed, [])


if __name__ == "__main__":
    unittest.main()
