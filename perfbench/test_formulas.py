"""Hand-computed checks of the benchmark's own formulas.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from formulas import (  # noqa: E402
    failed_frac,
    normalised_s,
    primal_integral_pct,
    shifted_geometric_mean,
    tail,
)


class TailTest(unittest.TestCase):
    def test_eleven_samples_give_the_lowest_with_ten_beyond(self):
        value, pct = tail([float(v) for v in range(11, 0, -1)])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_forty_samples_give_the_75th_percentile(self):
        value, pct = tail([float(v) for v in range(1, 41)])
        self.assertEqual(value, 30.0)  # ten samples, 31..40, lie beyond it
        self.assertEqual(pct, 75.0)

    def test_unproven_instances_at_the_budget_reach_the_tail(self):
        # 15 proofs plus 15 instances stopped at a 2 s budget.
        times = [0.1 * k for k in range(1, 16)] + [2.0] * 15
        value, pct = tail(times)
        self.assertEqual(value, 2.0)
        self.assertAlmostEqual(pct, 100.0 * 20 / 30)

    def test_ten_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            tail([1.0] * 10)


class ShiftedGeometricMeanTest(unittest.TestCase):
    def test_equal_values_return_that_value(self):
        self.assertAlmostEqual(shifted_geometric_mean([0.5] * 7, 0.1), 0.5)

    def test_hand_computed(self):
        # (0.9 + 0.1) * (9.9 + 0.1) = 10, sqrt = sqrt(10).
        self.assertAlmostEqual(
            shifted_geometric_mean([0.9, 9.9], 0.1), math.sqrt(10.0) - 0.1
        )

    def test_shift_damps_a_near_zero_time(self):
        unshifted = math.sqrt(1e-6 * 1.0)
        shifted = shifted_geometric_mean([1e-6, 1.0], 0.1)
        self.assertGreater(shifted, unshifted)

    def test_rejects_bad_input(self):
        for values, shift in (([], 0.1), ([1.0], 0.0), ([-1.0], 0.1)):
            with self.assertRaises(ValueError):
                shifted_geometric_mean(values, shift)


class PrimalIntegralTest(unittest.TestCase):
    def test_no_incumbent_is_a_full_gap(self):
        self.assertEqual(primal_integral_pct(2.0, [], None, None), 100.0)

    def test_immediate_optimum_and_proof(self):
        self.assertEqual(primal_integral_pct(4.0, [(0.0, 50)], 50, 1.0), 0.0)

    def test_gap_until_proof_then_zero(self):
        # 100% on [0, 1), gap (100 - 80) / 100 = 20% on [1, 2), proof at 2 s.
        value = primal_integral_pct(4.0, [(1.0, 100)], 80, 2.0)
        self.assertAlmostEqual(value, 100.0 * (1.0 * 1.0 + 1.0 * 0.2) / 4.0)

    def test_unproven_gap_runs_to_the_budget(self):
        # 100% on [0, 1), 50% on [1, 3), 20% on [3, 10): (1 + 1 + 1.4) / 10.
        trace = [(1.0, 200), (3.0, 125)]
        value = primal_integral_pct(10.0, trace, 100, None)
        self.assertAlmostEqual(value, 100.0 * (1.0 + 2 * 0.5 + 7 * 0.2) / 10.0)

    def test_incumbents_after_the_budget_are_clipped(self):
        value = primal_integral_pct(1.0, [(0.5, 10), (1.5, 5)], 5, None)
        self.assertAlmostEqual(value, 100.0 * (0.5 + 0.5 * 0.5) / 1.0)

    def test_unknown_bound_keeps_a_full_gap(self):
        self.assertEqual(primal_integral_pct(3.0, [(1.0, 10)], None, None), 100.0)


class NormalisedSecondsTest(unittest.TestCase):
    def test_full_speed_leaves_wall_seconds(self):
        self.assertAlmostEqual(normalised_s(0.5, 0.002, 0.002, 0.002), 0.5)

    def test_half_speed_halves_the_time(self):
        self.assertAlmostEqual(normalised_s(1.0, 0.004, 0.004, 0.002), 0.5)

    def test_pace_is_the_mean_of_both_readings(self):
        self.assertAlmostEqual(normalised_s(0.3, 0.002, 0.004, 0.002), 0.2)

    def test_rejects_a_zero_reading(self):
        with self.assertRaises(ValueError):
            normalised_s(1.0, 0.0, 0.002, 0.002)


class FailedFracTest(unittest.TestCase):
    def test_fractions(self):
        self.assertEqual(failed_frac(40, 0), 0.0)
        self.assertEqual(failed_frac(40, 10), 0.25)
        self.assertEqual(failed_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                failed_frac(attempted, failed)


if __name__ == "__main__":
    unittest.main()
