"""Tests of the benchmark's workloads: same seed, same work; other seed, same regime.

    python3 -m unittest discover -s bench -p "test_*.py"

Uses numpy and the standard library only; takes about 20 s.
"""

import hashlib
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import harness  # noqa: E402

SEED, OTHER_SEED = 3, 4


def fit_seed(w: harness.Workload, seed: int):
    inputs = harness.make_inputs(w, seed)
    model = harness.fit_workload(w, inputs.train)
    digest = hashlib.sha256(model.labels.tobytes()).hexdigest()
    return inputs, {**harness.counters(model), "labels": digest}


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.first = {name: fit_seed(w, SEED) for name, w in harness.WORKLOADS.items()}

    def test_same_seed_repeats_counters_exactly(self):
        for name, w in harness.WORKLOADS.items():
            with self.subTest(workload=name):
                inputs, found = fit_seed(w, SEED)
                first_inputs, first = self.first[name]
                self.assertTrue(np.array_equal(inputs.train, first_inputs.train))
                self.assertEqual(found, first)

    def test_other_seed_changes_data_but_not_regime(self):
        for name, w in harness.WORKLOADS.items():
            with self.subTest(workload=name):
                inputs, other = fit_seed(w, OTHER_SEED)
                first_inputs, first = self.first[name]
                self.assertFalse(np.array_equal(inputs.train, first_inputs.train))
                lo, hi = w.groups
                for counts in (first, other):
                    self.assertGreaterEqual(counts["groups"], lo)
                    self.assertLess(counts["groups"], hi)
                    self.assertEqual(counts["clusters"], harness.K)


if __name__ == "__main__":
    unittest.main()
