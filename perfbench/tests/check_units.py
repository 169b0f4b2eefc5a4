"""Unit tests for the benchmark's statistics, span analysis and failure accounting.

Run from the repository root::

    python3 -m unittest discover -s perfbench/tests -p 'check_*.py' -t .

(The files are not named ``test_*`` so the program's own test suite
does not collect the benchmark's tests.)
"""

from __future__ import annotations

import math
import socket
import tempfile
import threading
import unittest
from types import SimpleNamespace

from perfbench.outcome import Outcome
from perfbench.serve_churn import Workload as ServeChurn
from perfbench.spans import Tracer, children_seconds, layer_self_seconds, self_times
from perfbench.stats import (
    OpenLoop,
    beyond,
    fastest,
    flatten,
    highest_supported,
    lateness,
    latency_from_due,
    percentile,
    summarize,
)


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50.5)
        self.assertAlmostEqual(percentile(values, 99), 99.01)
        self.assertEqual(percentile([7.0], 99), 7.0)
        self.assertEqual(percentile([3, 1, 2], 0), 1)
        self.assertEqual(percentile([3, 1, 2], 100), 3)

    def test_failures_count_as_missing_every_limit(self):
        values = [1.0] * 95 + [math.inf] * 5
        self.assertEqual(percentile(values, 50), 1.0)
        self.assertEqual(percentile(values, 99), math.inf)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            percentile([], 50)


class TailSupportTest(unittest.TestCase):
    def test_beyond_is_exact(self):
        self.assertEqual(beyond(1000, 99), 10)
        self.assertEqual(beyond(100, 90), 10)  # 100 * 0.1 is 9.999... in floats
        self.assertEqual(beyond(99, 90), 9)
        self.assertEqual(beyond(10000, 99.9), 10)

    def test_highest_supported(self):
        self.assertIsNone(highest_supported(19))
        self.assertEqual(highest_supported(20), 50)
        self.assertEqual(highest_supported(100), 90)
        self.assertEqual(highest_supported(200), 95)
        self.assertEqual(highest_supported(999), 95)
        self.assertEqual(highest_supported(1000), 99)

    def test_summary_reports_count_and_support(self):
        summary = summarize([float(i) for i in range(1000)], 99)
        self.assertEqual(summary.n, 1000)
        self.assertEqual(summary.p50, 499.5)
        self.assertTrue(summary.tail_supported)
        self.assertIn("n=1000", summary.describe())
        self.assertFalse(summarize([1.0] * 50, 99).tail_supported)


class FastestTest(unittest.TestCase):
    def test_mean_of_each_operations_fastest_sample(self):
        # A slow operation keeps its weight however few times it ran.
        samples = {"cheap": [3.0, 1.0, 2.0, 1.5, 9.0], "dear": [10.0, 12.0]}
        self.assertEqual(fastest(samples), 5.5)

    def test_a_failed_repeat_is_never_the_fastest(self):
        self.assertEqual(fastest({"a": [math.inf, 2.0], "b": [4.0]}), 3.0)
        self.assertEqual(fastest({"a": [math.inf]}), math.inf)

    def test_flatten_keeps_every_sample(self):
        self.assertEqual(sorted(flatten({"a": [2.0, 1.0], "b": [3.0]})), [1.0, 2.0, 3.0])

    def test_no_operations(self):
        with self.assertRaises(ValueError):
            fastest({})


class OpenLoopTest(unittest.TestCase):
    def test_due_times(self):
        loop = OpenLoop(start=10.0, rate=4.0)
        self.assertEqual([loop.due(i) for i in range(3)], [10.0, 10.25, 10.5])
        with self.assertRaises(ValueError):
            OpenLoop(0.0, 0)

    def test_a_stall_shows_in_every_request_behind_it(self):
        # Four requests due 10 ms apart; the generator stalls until
        # t=100 ms and then sends the three overdue ones at once; each
        # takes 1 ms.  Timed from the send they look uniformly fast.
        due = [0.0, 0.010, 0.020, 0.030]
        sent = [0.0, 0.100, 0.100, 0.100]
        done = [s + 0.001 for s in sent]
        from_send = [d - s for s, d in zip(sent, done)]
        from_due = [latency_from_due(u, d) for u, d in zip(due, done)]
        self.assertTrue(all(abs(x - 0.001) < 1e-12 for x in from_send))
        for got, want in zip(from_due, [0.001, 0.091, 0.081, 0.071]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(lateness(due, sent), [0.0, 0.090, 0.080, 0.070]):
            self.assertAlmostEqual(got, want)

    def test_early_send_is_not_negative_lateness(self):
        self.assertEqual(lateness([1.0], [0.9]), [0.0])

    def test_unanswered_request_is_infinitely_late(self):
        self.assertEqual(latency_from_due(1.0, None), math.inf)


def _span(sid, name, parent, start, end, layer="x", request=None, **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end,
            "request": request, "layer": layer, "attrs": attrs}


class SpanAnalysisTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            _span(2, "compile", 1, 1.0, 3.0, layer="rewrite"),
            _span(3, "eval", 1, 3.0, 4.0, layer="seminaive"),
            _span(4, "inner", 3, 3.2, 3.7, layer="database"),
            _span(1, "ask", 0, 0.0, 5.0, layer="query"),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[3], 0.5)
        layers = layer_self_seconds(spans)
        self.assertAlmostEqual(layers["query"], 2.0)
        self.assertAlmostEqual(layers["rewrite"], 2.0)
        self.assertAlmostEqual(sum(layers.values()), 5.0)
        self.assertEqual(children_seconds(spans, "ask", "inner"), {1: 0.5})

    def test_tracer_records_parent_and_request(self):
        tracer = Tracer()

        def inner(x):
            return x + 1

        inner = tracer.wrap(inner, "inner", "b")
        outer = tracer.wrap(lambda x: inner(x) * 2, "outer", "a", after=lambda r, a: {"r": r})
        tracer.set_request("req-1")
        self.assertEqual(outer(1), 4)
        spans = {s["name"]: s for s in tracer.records()}
        self.assertEqual(spans["inner"]["parent"], spans["outer"]["id"])
        self.assertEqual(spans["outer"]["parent"], 0)
        self.assertEqual(spans["outer"]["attrs"], {"r": 4})
        self.assertEqual({s["request"] for s in spans.values()}, {"req-1"})

    def test_failed_call_is_recorded_and_reraised(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap(boom, "boom", "a")()
        (span,) = tracer.records()
        self.assertTrue(span["attrs"]["error"])


class ClosedConnectionTest(unittest.TestCase):
    def test_a_server_that_hangs_up_fails_operations_instead_of_raising(self):
        # Accepts both client connections and closes them at once.
        listener = socket.create_server(("127.0.0.1", 0))

        def hang_up():
            for _ in range(2):
                conn, _ = listener.accept()
                conn.close()

        closer = threading.Thread(target=hang_up)
        closer.start()
        try:
            with tempfile.TemporaryDirectory() as workdir:
                workload = ServeChurn(1, True, workdir)
                state, outcome = {}, Outcome()
                workload.check_oracle(state, outcome)
                server = SimpleNamespace(address=listener.getsockname())
                workload._drive(state, server, 0.5, outcome)
        finally:
            closer.join()
            listener.close()
        self.assertGreater(outcome.failed, 0)
        self.assertGreaterEqual(outcome.attempted, outcome.failed)
        self.assertTrue(any("connection" in p for p in outcome.problems), outcome.problems)


if __name__ == "__main__":
    unittest.main()
