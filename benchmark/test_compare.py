#!/usr/bin/env python3
"""Unit tests for benchmark/compare.py (stdlib only).

    python3 benchmark/test_compare.py
"""
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_hundred_samples_report_p90_with_ten_beyond(self):
        self.assertEqual(compare.tail_percentile(range(1, 101)), (90.0, 90))

    def test_thousand_samples_report_p99(self):
        self.assertEqual(compare.tail_percentile(range(1, 1001)), (99.0, 990))

    def test_input_order_does_not_matter(self):
        values = list(range(1, 101))
        values.reverse()
        self.assertEqual(compare.tail_percentile(values), (90.0, 90))

    def test_level_drops_until_ten_samples_lie_beyond(self):
        # 99 samples: p90 leaves 9 beyond, so p75 (rank 75, 24 beyond).
        self.assertEqual(compare.tail_percentile(range(1, 100)), (75.0, 75))
        # 20 samples: only the median keeps 10 beyond.
        self.assertEqual(compare.tail_percentile(range(1, 21)), (50.0, 10))

    def test_too_few_samples(self):
        self.assertIsNone(compare.tail_percentile(range(1, 20)))
        self.assertIsNone(compare.tail_percentile([]))


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertTrue(compare.within_bound("lower", 0.1, 1.0, 1.09))
        self.assertFalse(compare.within_bound("lower", 0.1, 1.0, 1.11))

    def test_higher_is_better(self):
        self.assertTrue(compare.within_bound("higher", 0.1, 100.0, 91.0))
        self.assertFalse(compare.within_bound("higher", 0.1, 100.0, 89.0))

    def test_improvement_is_always_within_bound(self):
        self.assertTrue(compare.within_bound("lower", 0.0, 1.0, 0.5))
        self.assertTrue(compare.within_bound("higher", 0.0, 1.0, 2.0))

    def test_one_ms_floor_covers_sub_millisecond_setup(self):
        # 10 % of 0.2 ms is 0.02 ms; the 1 ms floor allows up to 1.2 ms.
        self.assertTrue(compare.within_bound("lower", 0.1, 0.0002, 0.0011, 0.001))
        self.assertFalse(compare.within_bound("lower", 0.1, 0.0002, 0.0013, 0.001))

    def test_floor_does_not_loosen_large_values(self):
        # 10 % of 100 ms is 10 ms, more than the floor: the bound rules.
        self.assertTrue(compare.within_bound("lower", 0.1, 0.1, 0.109, 0.001))
        self.assertFalse(compare.within_bound("lower", 0.1, 0.1, 0.111, 0.001))

    def test_error_rate_may_not_rise(self):
        self.assertTrue(compare.within_bound("lower", 0.0, 0.0, 0.0))
        self.assertFalse(compare.within_bound("lower", 0.0, 0.0, 0.01))


class CompareTest(unittest.TestCase):
    TABLE = [("rounds_per_s", "higher", 0.1, 0.0), ("setup_s", "lower", 0.1, 0.001),
             ("error_rate", "lower", 0.0, 0.0)]

    @staticmethod
    def result(**workloads):
        return {"workloads": {w: {"e2e": e2e} for w, e2e in workloads.items()}}

    def test_rows_per_metric_and_workload(self):
        a = self.result(w1={"rounds_per_s": 100.0, "setup_s": 0.0002, "error_rate": 0.0})
        b = self.result(w1={"rounds_per_s": 85.0, "setup_s": 0.0009, "error_rate": 0.0})
        rows = {(r[0], r[1]): r for r in compare.compare(a, b, self.TABLE)}
        self.assertEqual(len(rows), 3)
        self.assertFalse(rows[("w1", "rounds_per_s")][6])
        self.assertAlmostEqual(rows[("w1", "rounds_per_s")][4], -0.15)
        self.assertTrue(rows[("w1", "setup_s")][6])
        self.assertTrue(rows[("w1", "error_rate")][6])

    def test_missing_values_are_flagged(self):
        a = self.result(w1={"rounds_per_s": 1.0}, w2={"rounds_per_s": 1.0})
        b = self.result(w1={"rounds_per_s": 1.0})
        rows = compare.compare(a, b, self.TABLE[:1])
        self.assertEqual([r[6] for r in rows], [True, None])

    def test_table_reads_benchmark_json(self):
        table = {row[0]: row for row in compare.load_metric_table()}
        self.assertEqual(table["setup_s"][1:2], ("lower",))
        self.assertEqual(table["setup_s"][3], 0.001)
        self.assertEqual(table["error_rate"], ("error_rate", "lower", 0.0, 0.0))
        self.assertTrue(all(0.0 <= row[2] <= 0.25 for row in table.values()))


if __name__ == "__main__":
    unittest.main()
