"""Tests for the sharded parallel collection pipeline.

Covers the determinism contract (every group's sharded state is the fold
of the serial reference's report, bit for bit, under a fixed seed for
every registered protocol; output invariant to ``workers``), the
executor plumbing through
``Aggregator``/``Felip``/``StreamingCollector``, the stage timers, and the
satellite regressions: SUE/SHE/THE streaming, the budget×AHEAD config
rejection, and the streaming oracle cache.
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import StreamingCollector, partition_users, plan_grids
from repro.core.client import (
    ExecutionContext,
    collect_reports,
    collect_reports_budget_split,
)
from repro.core.parallel import chunk_bounds, resolve_workers, run_sharded
from repro.data import normal_dataset
from repro.errors import ConfigurationError, ProtocolError
from repro.fo import kernels, registry
from repro.fo.grr import GRRReport
from repro.queries import Query, between
from repro.rng import ensure_rng
from repro.robustness import IngestPolicy
from repro.robustness.ingest import Reject

from tests.collect_reference import collect_reports_serial, folded

ALL_PROTOCOLS = ("grr", "olh", "oue", "sue", "she", "the", "sw", "hr")


def config_for(protocol, epsilon=1.0):
    """A FelipConfig pinning one protocol (1-D-only backends via the
    one_d_protocol knob, everything else via the candidate tuple)."""
    if protocol == "sw":
        return FelipConfig(epsilon=epsilon, one_d_protocol="sw")
    return FelipConfig(epsilon=epsilon, protocols=(protocol,))


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(20_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=1)


def assert_same_reports(actual, expected):
    """Bit-for-bit equality of two GroupReport lists (folded states: the
    user count and the vector's dtype and bytes)."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.planned.key == e.planned.key
        assert a.group_size == e.group_size
        if e.report is None:
            assert a.report is None
            continue
        assert type(a.report) is type(e.report)
        for name in vars(e.report):
            av, ev = getattr(a.report, name), getattr(e.report, name)
            if isinstance(ev, np.ndarray):
                assert av.dtype == ev.dtype, name
                assert av.tobytes() == ev.tobytes(), name
            else:
                assert av == ev, name


def context_for(config, **settings):
    """An execution context for ``config`` with ``settings`` replaced."""
    return ExecutionContext(replace(config, **settings))


def planned_collection(dataset, config, seed=11):
    plans = plan_grids(dataset.schema, config, dataset.n)
    assignment = partition_users(dataset.n, len(plans), ensure_rng(seed))
    return plans, assignment


class TestSerialEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS + ("default",))
    def test_sharded_bit_identical_to_serial(self, dataset, protocol,
                                             workers):
        """chunk_size=None: each group's sharded state is the fold of the
        serial reference's report, for every registered protocol and for
        the default adaptive choice, at any worker count."""
        config = (FelipConfig(epsilon=1.0) if protocol == "default"
                  else config_for(protocol))
        plans, assignment = planned_collection(dataset, config)
        serial = collect_reports_serial(
            dataset.records, assignment, plans, config.epsilon, rng=23)
        sharded = collect_reports(
            context_for(config, workers=workers, chunk_size=None),
            dataset.records, assignment, plans, config.epsilon, rng=23)
        assert_same_reports(sharded, folded(serial, config.epsilon))

    def test_chunked_output_invariant_to_workers(self, dataset):
        """Finite chunk_size: a new stream, but invariant to the worker
        count."""
        config = FelipConfig(epsilon=1.0)
        plans, assignment = planned_collection(dataset, config)
        runs = [collect_reports(context_for(config, workers=w,
                                            chunk_size=1_000),
                                dataset.records, assignment, plans,
                                config.epsilon, rng=29)
                for w in (1, 2, 4)]
        for run in runs[1:]:
            assert_same_reports(run, runs[0])

    def test_budget_split_invariant_to_workers(self, dataset):
        config = FelipConfig(epsilon=1.0, partition_mode="budget")
        plans = plan_grids(dataset.schema, config, dataset.n)
        runs = [collect_reports_budget_split(
                    context_for(config, workers=w, chunk_size=2_500),
                    dataset.records, plans, config.epsilon, rng=31)
                for w in (1, 4)]
        assert_same_reports(runs[1], runs[0])

    def test_full_fit_identical_across_workers(self, dataset):
        """End-to-end: answers are a pure function of the seed — identical
        inline, on a 4-thread pool, and on one thread per CPU."""
        q = Query([between("num_0", 5, 20), between("num_1", 5, 20)])
        answers, marginals = [], []
        for workers in (1, 4, 0):
            model = Felip(dataset.schema,
                          FelipConfig(epsilon=1.0, workers=workers))
            model.fit(dataset, rng=37)
            answers.append(model.answer(q))
            marginals.append(model.marginal("num_0"))
        assert all(a == answers[0] for a in answers[1:])
        for m in marginals[1:]:
            np.testing.assert_array_equal(m, marginals[0])

    def test_streaming_invariant_to_worker_count(self, dataset):
        """Streaming output is worker-count independent — inline
        (workers=1) included."""
        q = Query([between("num_0", 5, 20)])
        answers = []
        for workers in (1, 2, 4):
            collector = StreamingCollector(
                dataset.schema,
                FelipConfig(epsilon=1.0, workers=workers),
                expected_users=dataset.n, rng=41)
            for start in range(0, dataset.n, 5_000):
                collector.observe(dataset.records[start:start + 5_000])
            answers.append(collector.finalize().answer(q))
        assert all(a == answers[0] for a in answers[1:])

    def test_backend_knob_removed(self):
        """There is one executor: no call site accepts ``backend=``."""
        with pytest.raises(TypeError):
            FelipConfig(backend="thread")
        with pytest.raises(TypeError):
            run_sharded([lambda: 1], 1, backend="thread")


class TestWorkerResolution:
    def test_resolve_workers_respects_cpu_affinity(self, monkeypatch):
        """resolve_workers(0) must see the *schedulable* CPUs, not the
        machine total: in a cgroup-pinned container os.cpu_count() lies."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(0) == 3

    def test_resolve_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_workers(0) == 5

    def test_resolve_workers_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1


class TestExecutorPlumbing:
    def test_stage_timings_recorded(self, dataset):
        model = Felip(dataset.schema, FelipConfig(epsilon=1.0, workers=2))
        assert model.aggregator.timings.as_dict() == {}
        model.fit(dataset, rng=43)
        seconds = model.aggregator.timings.as_dict()
        assert set(seconds) == {"plan", "warm", "collect", "estimate",
                                "postprocess"}
        assert all(v >= 0.0 for v in seconds.values())
        assert "collect" in repr(model.aggregator.timings)

    def test_config_validates_executor_knobs(self):
        assert FelipConfig(workers=0).workers == 0
        with pytest.raises(ConfigurationError):
            FelipConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            FelipConfig(chunk_size=0)

    def test_run_sharded_preserves_task_order(self):
        tasks = [(lambda i=i: i * i) for i in range(50)]
        assert run_sharded(tasks, 4) == [i * i for i in range(50)]
        assert run_sharded(tasks, 1) == [i * i for i in range(50)]
        assert run_sharded([], 4) == []

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_group_cells_matches_flatnonzero(self, backend):
        """Grouping keeps row order within each group: through an
        identity table over a column of row numbers, group ``g``'s cells
        are exactly ``np.flatnonzero(assignment == g)``."""
        rng = ensure_rng(5)
        assignment = rng.integers(0, 7, size=10_000)
        rows = np.arange(10_000).reshape(-1, 1)
        axes = [((0, np.arange(10_000)),)] * 7
        with kernels.use_backend(backend):
            cells, offsets = kernels.group_cells(rows, assignment, axes)
        for g in range(7):
            np.testing.assert_array_equal(
                cells[offsets[g]:offsets[g + 1]],
                np.flatnonzero(assignment == g))

    def test_chunk_bounds_geometry(self):
        assert chunk_bounds(10, None) == [(0, 10)]
        assert chunk_bounds(10, 100) == [(0, 10)]
        assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_bounds(0, 4) == []
        with pytest.raises(ConfigurationError):
            chunk_bounds(10, 0)

    def test_admission_accounting_invariant_to_workers(self, dataset,
                                                       monkeypatch):
        """Shards are checked inside their pool tasks, but the verdicts
        are recorded in ``(group, chunk)`` order once every shard has
        run: with a bounded quarantine, more workers than cores and a
        tiny switch interval, the accounting — down to which audit
        entries are kept — equals the inline run's, and every user is
        counted once."""
        spec = registry.spec_for_report(GRRReport)

        def reject_odd_sums(report, expected):
            spec.sanitizer(report, expected)
            total = int(report.values.sum())
            if total % 2:
                raise Reject("odd-sum", f"sum={total}")

        monkeypatch.setitem(registry._BY_REPORT_TYPE, GRRReport,
                            replace(spec, sanitizer=reject_odd_sums))
        config = config_for("grr")
        plans, assignment = planned_collection(dataset, config)
        policy = IngestPolicy(mode="quarantine", quarantine_capacity=4)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 16):
                context = context_for(config, workers=workers,
                                      chunk_size=250)
                context.ingest_policy = policy
                groups = collect_reports(
                    context, dataset.records, assignment, plans,
                    config.epsilon, rng=3)
                runs.append((groups, context.ingest_stats.state_dict()))
        finally:
            sys.setswitchinterval(interval)
        (inline, inline_stats), (pooled, pooled_stats) = runs
        assert pooled_stats == inline_stats
        assert_same_reports(pooled, inline)
        assert all(p.num_cells >= 2 for p in plans)
        shards = sum(len(chunk_bounds(group.group_size, 250))
                     for group in inline)
        assert inline_stats["dropped_reports"] > 4
        assert len(inline_stats["quarantine"]) == 4
        assert (inline_stats["accepted_reports"]
                + inline_stats["dropped_reports"]) == shards
        assert inline_stats["accepted_users"] == sum(
            group.report.n for group in inline if group.report is not None)
        assert (inline_stats["accepted_users"]
                + inline_stats["dropped_users"]) == dataset.n

    def test_ahead_runs_through_sharded_executor(self, dataset):
        model = Felip(dataset.schema,
                      FelipConfig(epsilon=1.0, one_d_protocol="ahead",
                                  workers=4))
        model.fit(dataset, rng=47)
        q = Query([between("num_0", 5, 20)])
        assert 0.0 <= model.answer(q) <= 1.0


class TestSatelliteRegressions:
    @pytest.mark.parametrize("protocol", ["sue", "she", "the"])
    def test_streaming_supports_histogram_protocols(self, dataset,
                                                    protocol):
        """Regression: SUE/SHE/THE reports must merge across batches
        (pre-fix this died with a ProtocolError at finalize)."""
        collector = StreamingCollector(
            dataset.schema,
            FelipConfig(epsilon=1.0, protocols=(protocol,)),
            expected_users=dataset.n, rng=53)
        for start in range(0, dataset.n, 5_000):
            collector.observe(dataset.records[start:start + 5_000])
        q = Query([between("num_0", 5, 20)])
        assert np.isfinite(collector.finalize().answer(q))

    def test_unmergeable_streaming_config_rejected_at_init(self, dataset):
        """AHEAD is rejected when the collector is built, not at
        finalize time, with a message naming the restriction."""
        with pytest.raises(ConfigurationError, match="AHEAD|stream"):
            StreamingCollector(
                dataset.schema,
                FelipConfig(epsilon=1.0, one_d_protocol="ahead"),
                expected_users=dataset.n)

    def test_budget_mode_rejects_ahead_at_config_time(self):
        """Regression: budget splitting + AHEAD used to die deep inside
        collection; now the config itself explains the conflict."""
        with pytest.raises(ConfigurationError,
                           match="budget.*ahead|ahead.*budget"):
            FelipConfig(partition_mode="budget", one_d_protocol="ahead")

    def test_budget_split_collector_rejects_ahead_plans(self, dataset):
        config = FelipConfig(epsilon=1.0, one_d_protocol="ahead")
        plans = plan_grids(dataset.schema, config, dataset.n)
        with pytest.raises(ProtocolError, match="AHEAD"):
            collect_reports_budget_split(ExecutionContext(config),
                                         dataset.records, plans,
                                         config.epsilon, rng=3)

    def test_streaming_builds_oracles_once(self, dataset, monkeypatch):
        """Regression: observe() used to rebuild every oracle per batch
        (for THE that re-ran its threshold optimization each time)."""
        import repro.core.streaming as streaming_module
        calls = []
        real_make_oracle = streaming_module.make_oracle
        monkeypatch.setattr(
            streaming_module, "make_oracle",
            lambda *a, **kw: calls.append(a) or real_make_oracle(*a, **kw))
        collector = StreamingCollector(
            dataset.schema, FelipConfig(epsilon=1.0),
            expected_users=dataset.n, rng=59)
        built_at_init = len(calls)
        assert built_at_init == len(collector.plans)
        for start in range(0, 15_000, 5_000):
            collector.observe(dataset.records[start:start + 5_000])
        assert len(calls) == built_at_init


class TestStreamingOneShotEquivalence:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_streaming_matches_one_shot(self, dataset, protocol):
        """Streamed batches and one-shot collection estimate the same
        distribution, for every mergeable protocol."""
        config = config_for(protocol, epsilon=4.0)
        q = Query([between("num_0", 5, 20)])
        truth = q.true_answer(dataset)

        one_shot = Felip(dataset.schema, config).fit(dataset, rng=61)
        collector = StreamingCollector(dataset.schema, config,
                                       expected_users=dataset.n, rng=61)
        for start in range(0, dataset.n, 4_000):
            collector.observe(dataset.records[start:start + 4_000])
        streamed = collector.finalize()

        assert one_shot.answer(q) == pytest.approx(truth, abs=0.12)
        assert streamed.answer(q) == pytest.approx(truth, abs=0.12)
        assert streamed.answer(q) == pytest.approx(one_shot.answer(q),
                                                   abs=0.15)
