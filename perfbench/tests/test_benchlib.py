"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import tempfile
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchlib import gate, prom, records, spans, stats  # noqa: E402


class TailPercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        # Interpolated p99 of n samples sits at index 0.99 * (n - 1).
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertTrue(stats.tail_ok(902, 0.99))
        self.assertEqual(stats.samples_beyond(901, 0.99), 9)
        self.assertFalse(stats.tail_ok(901, 0.99))

    def test_samples_beyond_matches_the_quantile(self):
        for count in (1, 2, 10, 101, 1000, 1234):
            values = list(range(count))
            for q in (0.5, 0.9, 0.99):
                cut = stats.quantile(values, q)
                self.assertEqual(sum(1 for v in values if v > cut),
                                 stats.samples_beyond(count, q), (count, q))

    def test_better_quartile(self):
        rounds = [10.0, 30.0, 20.0, 40.0, 50.0]
        self.assertEqual(stats.better_quartile(rounds, higher_is_better=True), 40.0)
        self.assertEqual(stats.better_quartile(rounds, higher_is_better=False), 20.0)

    def test_quantile_interpolates_and_keeps_failures_infinite(self):
        self.assertEqual(stats.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(stats.quantile([5], 0.99), 5)
        self.assertEqual(stats.quantile([1, math.inf, math.inf], 0.99), math.inf)
        with self.assertRaises(ValueError):
            stats.quantile([], 0.5)


PROM_BEFORE = """# TYPE serve_requests counter
serve_requests 100
# TYPE serve_request_seconds histogram
serve_request_seconds_bucket{le="0.001"} 90
serve_request_seconds_bucket{le="+Inf"} 100
serve_request_seconds_sum 0.25
serve_request_seconds_count 100
# TYPE engine_simd_width gauge
engine_simd_width 8
"""

PROM_AFTER = """note: --engine=auto: compiled plan certificate 3.2e-06 exceeds tolerance 1e-09
# TYPE serve_requests counter
serve_requests 1100
# TYPE serve_shed counter
serve_shed 11
# TYPE serve_request_seconds histogram
serve_request_seconds_bucket{le="0.001"} 990
serve_request_seconds_bucket{le="+Inf"} 1100
serve_request_seconds_sum 2.75
serve_request_seconds_count 1100
"""


class MetricsDelta(unittest.TestCase):
    def setUp(self):
        self.before = prom.parse(PROM_BEFORE)
        self.after = prom.parse(PROM_AFTER)

    def test_counters_and_histogram_sum_count(self):
        self.assertEqual(prom.delta(self.before, self.after, "serve_requests"), 1000)
        self.assertAlmostEqual(prom.delta(self.before, self.after, "serve_request_seconds_sum"), 2.5)
        self.assertEqual(prom.delta(self.before, self.after, "serve_request_seconds_count"), 1000)

    def test_buckets_and_other_lines_are_skipped(self):
        self.assertFalse(any("{" in name for name in self.after))
        self.assertNotIn("note:", self.after)
        self.assertEqual(self.before["engine_simd_width"], 8)

    def test_lazily_created_metric_counts_from_zero(self):
        self.assertEqual(prom.delta(self.before, self.after, "serve_shed"), 11)
        self.assertAlmostEqual(prom.ratio(self.before, self.after, "serve_shed", "serve_requests"),
                               0.011)
        self.assertEqual(prom.ratio(self.before, self.after, "serve_shed", "absent"), 0.0)

    def test_merge_sums_processes(self):
        merged = prom.merge([self.before, self.after])
        self.assertEqual(merged["serve_requests"], 1200)


def record(lane, due, sent, done, connect=0, status="ok", ready=None):
    ready = due if ready is None else ready
    return records.Record(lane, 0, due, ready, sent, done, connect, status, "compiled", False,
                          "0.5")


class OpenLoopLateness(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        r = record(0, due=1_000_000, sent=3_000_000, done=4_000_000)
        self.assertEqual(records.latency_ms(r), 3.0)
        self.assertEqual(records.lateness_ms(r), 2.0)

    def test_waiting_for_the_previous_reply_is_latency_not_lateness(self):
        r = record(0, due=0, ready=5_000_000, sent=5_010_000, done=6_000_000)
        self.assertEqual(records.latency_ms(r), 6.0)
        self.assertAlmostEqual(records.lateness_ms(r), 0.01)

    def test_failures_miss_every_latency_limit(self):
        self.assertEqual(records.latency_ms(record(0, 0, 0, 5, status="overloaded")), math.inf)
        self.assertEqual(records.latency_ms(record(0, 0, 0, -1, status="hang")), math.inf)

    def test_connect_time_is_not_generator_lateness(self):
        r = record(-1, due=0, sent=4_000_000, done=5_000_000, connect=4_000_000)
        self.assertEqual(records.lateness_ms(r), 0.0)

    def test_on_schedule_generator_is_not_behind(self):
        recs = [record(0, k * 100_000, k * 100_000 + 50_000, k * 100_000 + 90_000)
                for k in range(1000)]
        lag = records.lag_summary(recs)
        self.assertAlmostEqual(lag["p99_ms"], 0.05)
        self.assertFalse(lag["behind"])

    def test_short_stalls_are_reported_not_fatal(self):
        recs = [record(0, k * 100_000, k * 100_000 + (20_000_000 if k % 50 == 0 else 50_000),
                       k * 100_000 + 90_000) for k in range(1000)]
        lag = records.lag_summary(recs)
        self.assertEqual(lag["max_ms"], 20.0)
        self.assertGreater(lag["p99_ms"], 10.0)
        self.assertFalse(lag["behind"])

    def test_falling_behind_marks_the_run(self):
        # Each send is 0.02 ms later than the last: a backlog that grows.
        recs = [record(0, k * 100_000, k * 120_000, k * 120_000 + 10) for k in range(1000)]
        lag = records.lag_summary(recs)
        self.assertGreater(lag["p50_ms"], records.LAG_LIMIT_MS)
        self.assertTrue(lag["behind"])
        self.assertTrue(records.lag_summary([])["behind"])

    def test_closed_loop_round_trip(self):
        self.assertEqual(records.round_trip_ms(record(0, 0, 1_000_000, 3_000_000)), 2.0)
        self.assertEqual(records.round_trip_ms(record(0, 0, 0, 5, status="overloaded")), math.inf)

    def test_record_line_round_trip(self):
        line = "-1 7 100 150 200 300 50 ok compiled 1 0.25\n"
        r = records.parse_line(line)
        self.assertEqual((r.lane, r.idx, r.ready, r.connect, r.degraded, r.value),
                         (-1, 7, 150, 50, True, "0.25"))


class ToleranceGate(unittest.TestCase):
    def test_stated_tolerances(self):
        self.assertEqual(gate.engine_tolerance("exact"), 0.0)
        self.assertEqual(gate.engine_tolerance("batch"), 1e-9)
        self.assertEqual(gate.engine_tolerance("kernel"), 1e-9)
        self.assertAlmostEqual(gate.engine_tolerance("compiled", certificate=3e-6), 3e-6 + 1e-12)
        self.assertAlmostEqual(gate.engine_tolerance("mc", trials=10000), 6.5 * 0.005)
        with self.assertRaises(KeyError):
            gate.engine_tolerance("compiled")
        with self.assertRaises(KeyError):
            gate.engine_tolerance("a_new_engine")

    def test_within_tolerance(self):
        exact = Fraction(1, 3)
        self.assertTrue(gate.within(1 / 3, exact, 0.0))  # the rounded exact value
        self.assertTrue(gate.within(1 / 3 + 5e-10, exact, 1e-9))
        self.assertFalse(gate.within(1 / 3 + 2e-9, exact, 1e-9))
        self.assertFalse(gate.within(1 / 3 + 1e-15, exact, 0.0))
        self.assertFalse(gate.within(math.nan, exact, 1.0))
        self.assertTrue(gate.within(0.25, 0.25, 0.0))

    def test_certified_enclosure(self):
        exact = Fraction(2, 7)
        self.assertTrue(gate.enclosure_contains(float(exact), 1e-90, exact))
        self.assertTrue(gate.enclosure_contains(2 / 7 + 4e-10, 1e-9, exact))
        self.assertFalse(gate.enclosure_contains(2 / 7 + 6e-10, 1e-9, exact))


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        traced = [spans.Span(1, 0, "job", 0, 0, 100), spans.Span(2, 1, "engine.select", 0, 10, 30),
                  spans.Span(3, 1, "core.batch", 0, 30, 90), spans.Span(4, 3, "util.x", 0, 40, 50)]
        selfs = spans.self_times(traced)
        self.assertEqual(selfs, {1: 20, 2: 20, 3: 50, 4: 10})
        layers = spans.layer_self_seconds(traced)
        self.assertAlmostEqual(layers["core"], 50e-9)
        self.assertAlmostEqual(layers["bench"], 20e-9)

    def test_read_spans(self):
        with tempfile.NamedTemporaryFile("w", suffix=".spans", delete=False) as f:
            f.write("1 0 pass.direct -1 0 500\n2 1 poly.compiled 0 10 20\n")
        try:
            traced = spans.read(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(spans.by_name(traced)["poly.compiled"], [10e-9])
        self.assertEqual(spans.layer_of("pass.direct"), "bench")

    def test_paired_differences_match_request_ids(self):
        # Request 0 runs the service first, request 1 the layer calls first;
        # request 2 has no service span and is left out.
        traced = [spans.Span(1, 0, "net.service", 0, 0, 500),
                  spans.Span(2, 0, "request", 0, 500, 1000),
                  spans.Span(3, 2, "engine.evaluate", 0, 550, 950),
                  spans.Span(4, 0, "request", 1, 1000, 1900),
                  spans.Span(5, 4, "engine.evaluate", 1, 1050, 1850),
                  spans.Span(6, 0, "net.service", 1, 1900, 2800),
                  spans.Span(7, 0, "engine.evaluate", 2, 3000, 3100)]
        diffs = spans.paired_differences(spans.per_request(traced, {"net.service"}),
                                         spans.per_request(traced, {"engine.evaluate"}))
        self.assertEqual(len(diffs), 2)
        self.assertAlmostEqual(diffs[0], 100e-9)
        self.assertAlmostEqual(diffs[1], 100e-9)
        self.assertAlmostEqual(stats.stderr(diffs), 0.0)
        self.assertAlmostEqual(stats.stderr([1.0, 3.0]), 1.0)


if __name__ == "__main__":
    unittest.main()
