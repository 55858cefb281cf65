"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that every workload emits exactly the metrics
``BENCHMARK.json`` names, with their units; that each correctness gate
fails on a deliberately broken input; and that the tracer's self time
is right on nested synthetic spans.
"""

from __future__ import annotations

import unittest
import warnings

import run  # sets up the import path and the kernel cache
import answer
import batch_fit
import common
import wire_ingest
from tracer import Span, Tracer, covered_ns

TINY = {
    wire_ingest.NAME: wire_ingest.Sizes(
        users=20_000, forge_every=10, setup_per_round=2,
        lowdim_queries=20, highdim_queries=4),
    batch_fit.NAME: batch_fit.Sizes(users=20_000, setup_per_round=2,
                                    check_queries=20),
    answer.NAME: answer.Sizes(users=20_000, pool=2, highdim_pool=2,
                              sample=4, traced_rounds=1),
}
PANEL_USERS = 20_000


def setUpModule():
    warnings.simplefilter("ignore")


class MetricSets(unittest.TestCase):
    """Each workload emits exactly the named metrics, with units."""

    def check(self, workload: str, trace: bool) -> None:
        spec = run.load_spec()
        result, _ = run.result_line(workload, 5, 0.2, trace, spec,
                                    sizes=TINY[workload],
                                    panel_users=PANEL_USERS)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: metric["unit"]
             for name, metric in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], float, name)

    def test_untraced_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, trace=False)

    def test_traced_per_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, trace=True)

    def test_end_to_end_metrics_never_zero(self):
        spec = run.load_spec()
        for workload in run.WORKLOADS:
            result, _ = run.result_line(workload, 6, 0.2, False, spec,
                                        sizes=TINY[workload],
                                        panel_users=PANEL_USERS)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0.0, (workload, name))


class Gates(unittest.TestCase):
    """Every gate fails on one deliberately broken input."""

    def test_unscheduled_forged_frame(self):
        inputs = wire_ingest.prepare(7, TINY[wire_ingest.NAME])
        honest = inputs.kinds.index(wire_ingest.HONEST)
        forged = next(f for f, k in zip(inputs.frames, inputs.kinds)
                      if k == wire_ingest.PIN)
        # a pin forgery the schedule calls honest
        inputs.frames.insert(honest + 1, forged)
        inputs.kinds.insert(honest + 1, wire_ingest.HONEST)
        with self.assertRaises(common.GateError):
            wire_ingest.run(inputs, 0.1)

    def test_wire_answer_differs_from_reference(self):
        inputs = wire_ingest.prepare(7, TINY[wire_ingest.NAME])
        inputs.reference["lowdim"][0] += 1e-12
        with self.assertRaises(common.GateError):
            wire_ingest.run(inputs, 0.1)

    def test_repeated_fit_differs(self):
        inputs = batch_fit.prepare(7, TINY[batch_fit.NAME])
        original = batch_fit.fingerprint
        calls = []

        def altered(model, inputs):
            answers, state = original(model, inputs)
            calls.append(1)
            if len(calls) == 2:
                answers = answers.copy()
                answers[0] += 1e-12
            return answers, state

        batch_fit.fingerprint = altered
        try:
            with self.assertRaises(common.GateError):
                batch_fit.run(inputs, 10.0)
        finally:
            batch_fit.fingerprint = original
        self.assertEqual(len(calls), 2)

    def test_batch_answer_differs_from_single_query(self):
        inputs = answer.prepare(7, TINY[answer.NAME])
        analyst = answer.Analyst(answer.construct(inputs), inputs, None)
        analyst.round(lambda: 0.0)
        analyst.check_against_single_queries()
        analyst.first[answer.LOWDIM][0][0] += 1e-12
        with self.assertRaises(common.GateError):
            analyst.check_against_single_queries()

    def test_repeated_batch_differs(self):
        inputs = answer.prepare(7, TINY[answer.NAME])
        analyst = answer.Analyst(answer.construct(inputs), inputs, None)
        analyst.batch(answer.HIGHDIM)
        analyst.first[answer.HIGHDIM][0][0] += 1e-12
        analyst.cursor[answer.HIGHDIM] = 0
        with self.assertRaises(common.GateError):
            analyst.batch(answer.HIGHDIM)

    def test_answer_outside_unit_interval(self):
        with self.assertRaises(common.GateError):
            common.check_answers([0.5, 1.0 + 1e-12], "probe")
        with self.assertRaises(common.GateError):
            common.check_answers([float("nan")], "probe")

    def test_mixed_kernel_tiers(self):
        from repro.fo import kernels
        original = kernels.active_backends
        kernels.active_backends = lambda: {"grr_apply": "cc",
                                           "support_counts": "numpy"}
        try:
            with self.assertRaises(common.GateError):
                common.pin_kernel_tier()
        finally:
            kernels.active_backends = original


class SelfTime(unittest.TestCase):
    """Self time is duration minus the union of the children's spans."""

    @staticmethod
    def span(id, start, end, parent=None):
        span = Span(id, f"s{id}", start, parent, None, 0)
        span.end = end
        return span

    def test_overlapping_and_nested_children(self):
        parent = self.span(1, 0, 100)
        children = [self.span(2, 10, 30, 1), self.span(3, 20, 50, 1),
                    self.span(4, 60, 70, 1), self.span(5, 95, 120, 1)]
        self.assertEqual(covered_ns(parent, children), 40 + 10 + 5)

    def test_layer_times_on_a_synthetic_tree(self):
        tracer = Tracer()
        root = self.span(1, 0, 1000)
        child = self.span(2, 100, 600, 1)
        grandchild = self.span(3, 200, 300, 2)
        sibling = self.span(4, 700, 800, 1)
        tracer.spans = [grandchild, child, sibling, root]
        times = tracer.layer_times()
        self.assertAlmostEqual(times["s1"]["self_s"], 400 / 1e9)
        self.assertAlmostEqual(times["s2"]["self_s"], 400 / 1e9)
        self.assertAlmostEqual(times["s3"]["self_s"], 100 / 1e9)
        self.assertAlmostEqual(times["s1"]["total_s"], 1000 / 1e9)

    def test_wrapped_calls_nest(self):
        tracer = Tracer()

        class Box:
            @staticmethod
            def inner():
                return 1

            @staticmethod
            def outer():
                return Box.inner() + 1

        tracer.wrap(Box, "inner", "inner")
        tracer.wrap(Box, "outer", "outer")
        try:
            self.assertEqual(Box.outer(), 2)
        finally:
            tracer.uninstall()
        inner, outer = tracer.spans
        self.assertEqual(inner.parent, outer.id)
        self.assertLessEqual(outer.start, inner.start)
        self.assertLessEqual(inner.end, outer.end)
        self.assertEqual(tracer.counters["inner.calls"], 1)
        self.assertEqual(Box.inner(), 1)  # uninstalled


if __name__ == "__main__":
    unittest.main()
