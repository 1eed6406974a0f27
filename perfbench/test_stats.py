"""Tests of the benchmark's statistics code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        v = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(stats.percentile(v, 0), 1.0)
        self.assertEqual(stats.percentile(v, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(v, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(v, 90), 3.7)

    def test_order_does_not_matter(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(v, 50), 3.0)

    def test_single_value_and_empty(self):
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailRuleTest(unittest.TestCase):
    def test_hundred_samples_support_p90_exactly(self):
        v = [float(i) for i in range(100)]
        self.assertEqual(stats.beyond(v, 90), 10)
        self.assertTrue(stats.tail_supported(v, 90))
        self.assertFalse(stats.tail_supported(v, 99))

    def test_too_few_samples(self):
        v = [float(i) for i in range(91)]
        self.assertEqual(stats.beyond(v, 90), 9)
        self.assertFalse(stats.tail_supported(v, 90))

    def test_ties_at_the_percentile_are_not_beyond(self):
        v = [1.0] * 200
        self.assertEqual(stats.beyond(v, 90), 0)
        self.assertFalse(stats.tail_supported(v, 90))

    def test_min_samples_for(self):
        self.assertEqual(stats.min_samples_for(90), 92)
        self.assertEqual(stats.min_samples_for(99), 902)
        self.assertEqual(stats.min_samples_for(50), 20)
        for q in (50, 90, 95, 99):
            n = stats.min_samples_for(q)
            self.assertTrue(
                stats.tail_supported([float(i) for i in range(n)], q), q)
            self.assertFalse(
                stats.tail_supported([float(i) for i in range(n - 1)], q), q)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 9.9, 10.1]
        q1, med, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(stats.quartile_spread(v), (q3 - q1) / med)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)

    def test_scale_free(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0]
        w = [x * 1000 for x in v]
        self.assertAlmostEqual(stats.quartile_spread(v),
                               stats.quartile_spread(w))


def span(i, parent, start, end, name="s"):
    return {"id": i, "parent": parent, "start": start, "end": end,
            "name": name, "group": 1}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        st = stats.self_times([span(0, -1, 0.0, 2.0)])
        self.assertAlmostEqual(st[0], 2.0)

    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 3.0),
                 span(2, 0, 5.0, 6.0)]
        st = stats.self_times(spans)
        self.assertAlmostEqual(st[0], 7.0)
        self.assertAlmostEqual(st[1], 2.0)
        self.assertAlmostEqual(st[2], 1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0),
                 span(2, 0, 3.0, 5.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 0.0, 4.0), span(1, 0, 3.0, 9.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 3.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 2.0, 8.0),
                 span(2, 1, 3.0, 4.0)]
        st = stats.self_times(spans)
        self.assertAlmostEqual(st[0], 4.0)
        self.assertAlmostEqual(st[1], 5.0)

    def test_by_name(self):
        spans = [span(0, -1, 0.0, 10.0, "a"), span(1, 0, 1.0, 3.0, "b"),
                 span(2, 0, 4.0, 5.0, "b")]
        by = stats.self_time_by_name(spans)
        self.assertEqual(by["b"][0], 2)
        self.assertAlmostEqual(by["b"][1], 3.0)
        self.assertAlmostEqual(by["a"][1], 7.0)


if __name__ == "__main__":
    unittest.main()
