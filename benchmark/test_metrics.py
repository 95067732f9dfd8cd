"""Tests of the benchmark's arithmetic (metrics.py).

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import unittest

import metrics


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(9999), 99.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)
        self.assertEqual(metrics.tail_percentile(20), 50.0)

    def test_too_few_samples_for_any(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertIsNone(metrics.tail_percentile(0))


class Percentile(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(metrics.percentile(xs, 0), 1.0)
        self.assertEqual(metrics.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(metrics.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(metrics.percentile(list(range(101)), 90), 90.0)

    def test_single_sample(self):
        self.assertEqual(metrics.percentile([7.0], 90), 7.0)


def span(name, parent, start, end):
    return {"name": name, "parent": parent, "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("job", -1, 0.0, 10.0),
            span("lang.load", 0, 0.0, 1.0),
            span("core.verify", 0, 1.0, 7.0),
            span("synth.cert_check", 0, 8.0, 9.0),
        ]
        t = metrics.self_times(spans)
        self.assertAlmostEqual(t["job"], 2.0)  # 7..8 and 9..10
        self.assertAlmostEqual(t["lang.load"], 1.0)
        self.assertAlmostEqual(t["core.verify"], 6.0)
        self.assertAlmostEqual(t["synth.cert_check"], 1.0)

    def test_grandchildren_count_against_their_own_parent_only(self):
        spans = [
            span("job", -1, 0.0, 10.0),
            span("core.verify", 0, 0.0, 8.0),
            span("synth.search", 1, 2.0, 5.0),
        ]
        t = metrics.self_times(spans)
        self.assertAlmostEqual(t["job"], 2.0)
        self.assertAlmostEqual(t["core.verify"], 5.0)
        self.assertAlmostEqual(t["synth.search"], 3.0)

    def test_overlapping_and_overhanging_children(self):
        spans = [
            span("job", -1, 0.0, 10.0),
            span("a", 0, 1.0, 4.0),
            span("b", 0, 3.0, 6.0),    # overlaps a: union 1..6
            span("c", 0, 9.0, 12.0),   # clipped to the parent: 9..10
        ]
        t = metrics.self_times(spans)
        self.assertAlmostEqual(t["job"], 10.0 - 5.0 - 1.0)

    def test_sums_by_name(self):
        spans = [span("job", -1, 0.0, 1.0), span("job", -1, 5.0, 7.0)]
        self.assertAlmostEqual(metrics.self_times(spans)["job"], 3.0)


def job(verdict, failure="", checked=None):
    return {"verdict": verdict, "failure": failure,
            "checked": verdict in ("S", "U") if checked is None else checked}


class DecidedFrac(unittest.TestCase):
    def test_unknown_and_error_are_undecided(self):
        jobs = [job("S"), job("U"), job("?"),
                job("?", failure="source failed to load: parse error"),
                job("U")]
        self.assertAlmostEqual(metrics.decided_frac(jobs), 3 / 5)

    def test_failed_check_is_undecided(self):
        jobs = [job("S"), job("S", failure="invariant map failed the check")]
        self.assertAlmostEqual(metrics.decided_frac(jobs), 0.5)

    def test_no_jobs(self):
        with self.assertRaises(ValueError):
            metrics.decided_frac([])


class Spread(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        vals = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(metrics.spread(vals), 0.0)
        vals = [9.0, 10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 11.0, 10.0, 10.0]
        q1, q2, q3 = 9.75, 10.0, 10.25  # statistics.quantiles, exclusive
        self.assertAlmostEqual(metrics.spread(vals), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
