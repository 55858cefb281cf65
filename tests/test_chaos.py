"""Chaos tests: injected shard faults, retry semantics, pool degradation.

The strongest property the fault-tolerant executor promises: a collection
that loses any shard to a transient fault and retries it is
**bit-identical** to the fault-free run at the same ``(seed, chunk_size)``
— retried shard tasks replay their snapshotted RNG stream. Also covered:
deterministic (ReproError) failures are never retried and fail fast
(queued shards are cancelled), a run that fails part way records no
admission, exhausted retries surface the original exception, pool-creation failure degrades to inline execution, and the
stage timers stay exact (and repr-safe) under concurrent updates.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import Aggregator, StreamingCollector, plan_grids
from repro.core.client import ExecutionContext, collect_reports
from repro.core.parallel import ExecutionStats, StageTimings, run_sharded
from repro.data import Dataset, normal_dataset
from repro.errors import (
    ConfigurationError,
    GridError,
    NotFittedError,
    ProtocolError,
)
from repro.queries import Query, between
from repro.robustness import (
    FaultInjector,
    PoisonedShardError,
    TransientShardFault,
)
from repro.service import restore_checkpoint, save_checkpoint

from tests.test_parallel_pipeline import (
    assert_same_reports,
    planned_collection,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(12_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=2)


class TestRetryBitIdentity:
    def _collect(self, dataset, injector=None, retries=0, workers=4,
                 chunk_size=1_000):
        """The collected groups, with the context they ran on (its
        ``drop``-policy admission and executor accounting)."""
        config = FelipConfig(epsilon=1.0, ingest_policy="drop",
                             workers=workers, chunk_size=chunk_size,
                             shard_retries=retries)
        plans, assignment = planned_collection(dataset, config, seed=13)
        context = ExecutionContext(config)
        context.fault_injector = injector
        reports = collect_reports(context, dataset.records, assignment,
                                  plans, config.epsilon, rng=17)
        return reports, context

    @pytest.mark.parametrize("doomed_shard", [0, 3, 7])
    def test_single_shard_killed_once_is_bit_identical(self, dataset,
                                                       doomed_shard):
        """Losing any single shard once → retried output ≡ fault-free."""
        baseline, _ = self._collect(dataset)
        injector = FaultInjector(fail=[(doomed_shard, 0)])
        faulted, context = self._collect(dataset, injector, retries=1)
        stats = context.exec_stats
        assert injector.total_injected == 1
        assert stats.retries == 1
        assert stats.retried_shards == {doomed_shard: 1}
        assert_same_reports(faulted, baseline)

    def test_every_shard_killed_once_is_bit_identical(self, dataset):
        baseline, _ = self._collect(dataset)
        injector = FaultInjector(fail_all_first_attempts=True)
        faulted, _ = self._collect(dataset, injector, retries=1)
        assert injector.total_injected > 1
        assert_same_reports(faulted, baseline)

    def test_retry_exhaustion_surfaces_the_fault(self, dataset):
        injector = FaultInjector(fail=[(2, 0), (2, 1)])
        with pytest.raises(TransientShardFault):
            self._collect(dataset, injector, retries=1)

    def test_fit_with_faults_matches_fault_free_fit(self, dataset):
        """End-to-end: a chaos-faulted fit answers identically."""
        q = Query([between("num_0", 5, 20), between("num_1", 5, 20)])
        config = FelipConfig(epsilon=1.0, workers=4, chunk_size=1_000,
                             shard_retries=2)
        clean = Felip(dataset.schema, config).fit(dataset, rng=19)
        faulted = Felip(dataset.schema, config)
        faulted.aggregator.fault_injector = FaultInjector(
            fail_all_first_attempts=True)
        faulted.fit(dataset, rng=19)
        assert faulted.answer(q) == clean.answer(q)
        report = faulted.aggregator.robustness_report()
        assert report["execution"]["retries"] > 0
        assert report["execution"]["failed_shards"] == 0

    def test_faulted_fit_counts_each_shard_once(self, dataset):
        """Every shard is checked in its task after the fold, so a fit
        whose every shard fails once and is retried admits each shard's
        users exactly once: its ingest accounting and every estimate
        equal the fault-free fit's."""
        config = FelipConfig(epsilon=1.0, ingest_policy="drop", workers=4,
                             chunk_size=1_000, shard_retries=1)
        clean = Felip(dataset.schema, config).fit(dataset, rng=29)
        faulted = Felip(dataset.schema, config)
        faulted.aggregator.fault_injector = FaultInjector(
            fail_all_first_attempts=True)
        faulted.fit(dataset, rng=29)
        clean_report = clean.aggregator.robustness_report()
        faulted_report = faulted.aggregator.robustness_report()
        assert faulted_report["execution"]["retries"] > 0
        assert faulted_report["ingest"] == clean_report["ingest"]
        assert clean_report["ingest"]["accepted_users"] == dataset.n
        for plan in clean.aggregator.plans:
            assert faulted.aggregator.estimate_for(plan.key).frequencies \
                .tobytes() == clean.aggregator.estimate_for(plan.key) \
                .frequencies.tobytes()

    def test_fold_failure_is_retried_before_the_check(self, dataset,
                                                      monkeypatch):
        """A transient fault inside a shard's fold, after its perturb,
        leaves no trace: the retried attempt replays the perturbation
        and the report is checked (and counted) once. Failures are keyed
        by the report's bytes, so three shards fail, each only on its
        first attempt (its retry replays the same report), however the
        threads interleave."""
        from repro.fo.base import FrequencyOracle
        clean, clean_context = self._collect(dataset)
        real_fold = FrequencyOracle.fold
        lock = threading.Lock()
        failed = set()

        def flaky_fold(oracle, state, reports):
            key = b"".join(value.tobytes() for report in reports
                           for value in vars(report).values()
                           if isinstance(value, np.ndarray))
            with lock:
                fail = key not in failed and len(failed) < 3
                if fail:
                    failed.add(key)
            if fail:
                raise TransientShardFault("fold lost")
            return real_fold(oracle, state, reports)

        monkeypatch.setattr(FrequencyOracle, "fold", flaky_fold)
        faulted, context = self._collect(dataset, retries=1)
        assert context.exec_stats.retries == 3
        assert_same_reports(faulted, clean)
        assert context.ingest_stats.as_dict() == \
            clean_context.ingest_stats.as_dict()

    def test_streaming_with_faults_matches_fault_free(self, dataset):
        q = Query([between("num_0", 5, 20)])
        answers = []
        for inject in (False, True):
            collector = StreamingCollector(
                dataset.schema,
                FelipConfig(epsilon=1.0, workers=4, shard_retries=1),
                expected_users=dataset.n, rng=23)
            if inject:
                collector.fault_injector = FaultInjector(
                    fail_all_first_attempts=True)
            for start in range(0, dataset.n, 4_000):
                collector.observe(dataset.records[start:start + 4_000])
            answers.append(collector.finalize().answer(q))
        assert answers[0] == answers[1]


class TestFailFast:
    def test_poisoned_shard_cancels_unstarted_shards(self):
        """Satellite regression: a deterministic failure used to let the
        pool drain every queued shard before surfacing. Now the first
        terminal error cancels the queue — on a poisoned 64-shard run
        only a handful of shards ever execute."""
        executed = []
        lock = threading.Lock()

        def make(i):
            def run():
                with lock:
                    executed.append(i)
                time.sleep(0.005)
                return i
            return run

        stats = ExecutionStats()
        with pytest.raises(PoisonedShardError):
            run_sharded([make(i) for i in range(64)], workers=2,
                        fault_injector=FaultInjector(poison=[0]),
                        stats=stats)
        assert stats.failed_shards == 1
        # Shard 0 dies on submission-order pickup; without fail-fast all
        # 63 others would run to completion before the error surfaced.
        assert len(executed) < 32

    def test_poisoned_shard_is_never_retried(self, dataset):
        """PoisonedShardError is a ReproError: deterministic, no retry."""
        config = FelipConfig(epsilon=1.0, workers=4, chunk_size=1_000,
                             shard_retries=5)
        plans, assignment = planned_collection(dataset, config, seed=13)
        injector = FaultInjector(poison=[1])
        context = ExecutionContext(config)
        context.fault_injector = injector
        with pytest.raises(PoisonedShardError):
            collect_reports(context, dataset.records, assignment, plans,
                            config.epsilon, rng=17)
        assert injector.injected == {(1, 0): 1}


class TestFailedRunsRecordNothing:
    """A collection that raises part way leaves no admission trace: the
    verdicts of the shards that did run are recorded only once every
    shard has."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failed_observe_leaves_the_stream_consistent(self, dataset,
                                                         workers):
        """observe() raises on a poisoned shard; finalize() and a
        checkpoint round trip then succeed, with the accounting and the
        estimates of a stream that never saw the failed batch."""
        config = FelipConfig(epsilon=1.0, ingest_policy="drop",
                             workers=workers, chunk_size=1_000)

        def stream():
            return StreamingCollector(dataset.schema, config,
                                      expected_users=dataset.n, rng=23)

        first, second = dataset.records[:6_000], dataset.records[6_000:]
        clean, failed = stream(), stream()
        for collector in (clean, failed):
            collector.observe(first, rng=1)
        failed.fault_injector = FaultInjector(poison=[2])
        with pytest.raises(PoisonedShardError):
            failed.observe(second, rng=2)
        failed.fault_injector = None
        assert failed.observed == clean.observed
        for collector in (clean, failed):
            collector.observe(second, rng=3)
        restored = restore_checkpoint(stream(), save_checkpoint(failed))
        expected = clean.finalize()
        assert expected.robustness_report()["ingest"]["accepted_users"] \
            == dataset.n
        for collector in (failed, restored):
            model = collector.finalize()
            assert model.n == expected.n
            assert model.robustness_report()["ingest"] == \
                expected.robustness_report()["ingest"]
            for plan in expected.plans:
                assert model.estimate_for(plan.key).frequencies \
                    .tobytes() == expected.estimate_for(plan.key) \
                    .frequencies.tobytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failed_observe_rewinds_the_stream(self, dataset, workers):
        """The same scenario on the collector's own generator (no
        ``rng`` on any batch): the failed batch leaves the generator
        where it was, so the failed stream's estimates and checkpoint
        are the clean stream's. Only the executor's accounting still
        shows the lost shard."""
        config = FelipConfig(epsilon=1.0, ingest_policy="drop",
                             workers=workers, chunk_size=1_000)

        def stream():
            return StreamingCollector(dataset.schema, config,
                                      expected_users=dataset.n, rng=23)

        first, second = dataset.records[:6_000], dataset.records[6_000:]
        clean, failed = stream(), stream()
        for collector in (clean, failed):
            collector.observe(first)
        failed.fault_injector = FaultInjector(poison=[2])
        with pytest.raises(PoisonedShardError):
            failed.observe(second)
        failed.fault_injector = None
        for collector in (clean, failed):
            collector.observe(second)
        expected, model = clean.finalize(), failed.finalize()
        for plan in expected.plans:
            assert model.estimate_for(plan.key).frequencies.tobytes() \
                == expected.estimate_for(plan.key).frequencies.tobytes()
        assert failed.exec_stats.failed_shards == 1
        clean.exec_stats.load_state(failed.exec_stats.state_dict())
        assert save_checkpoint(failed) == save_checkpoint(clean)

    def test_out_of_domain_batch_rewinds_the_stream(self, dataset):
        """A code outside its domain is refused by the grouping pass
        before any shard runs; the stream carries on as if the batch
        had never arrived, checkpoint bytes included."""
        config = FelipConfig(epsilon=1.0)

        def stream():
            return StreamingCollector(dataset.schema, config,
                                      expected_users=dataset.n, rng=29)

        first, second = dataset.records[:6_000], dataset.records[6_000:]
        poisoned = second.copy()
        poisoned[:, 0] = dataset.schema[0].domain_size
        clean, failed = stream(), stream()
        for collector in (clean, failed):
            collector.observe(first)
        with pytest.raises(GridError):
            failed.observe(poisoned)
        for collector in (clean, failed):
            collector.observe(second)
        assert save_checkpoint(failed) == save_checkpoint(clean)

    def test_failed_observe_counts_no_single_cell_users(self):
        """Members of a single-cell grid carry no report and are trusted;
        they too are counted only once every shard of their batch has
        run."""
        data = normal_dataset(2_000, num_numerical=1, num_categorical=2,
                              numerical_domain=8, categorical_domain=1,
                              rng=3)
        collector = StreamingCollector(
            data.schema, FelipConfig(epsilon=1.0, ingest_policy="drop"),
            expected_users=data.n, rng=5)
        assert any(plan.num_cells < 2 for plan in collector.plans)
        collector.observe(data.records[:1_000])
        observed, trusted = collector.observed, collector.trusted_users
        sizes = collector._group_sizes.copy()
        assert trusted > 0
        collector.fault_injector = FaultInjector(poison=[0])
        with pytest.raises(PoisonedShardError):
            collector.observe(data.records[1_000:])
        assert collector.observed == observed
        assert collector.trusted_users == trusted
        np.testing.assert_array_equal(collector._group_sizes, sizes)
        assert collector.finalize().n == observed

    def test_failed_fit_records_nothing(self, dataset):
        """A fit that raises on a poisoned shard counts none of the
        shards that ran before it: refitting the same aggregator accounts
        exactly what a fresh aggregator's fit does."""
        config = FelipConfig(epsilon=1.0, ingest_policy="drop",
                             chunk_size=1_000)
        clean = Felip(dataset.schema, config).fit(dataset, rng=29)
        refit = Felip(dataset.schema, config)
        refit.aggregator.fault_injector = FaultInjector(poison=[2])
        with pytest.raises(PoisonedShardError):
            refit.fit(dataset, rng=29)
        assert refit.aggregator.ingest_stats.accepted_reports == 0
        refit.aggregator.fault_injector = None
        refit.fit(dataset, rng=29)
        assert refit.aggregator.robustness_report()["ingest"] == \
            clean.aggregator.robustness_report()["ingest"]

    def test_failed_first_fit_leaves_the_model_unfitted(self, dataset):
        """A fit that raises commits nothing: the aggregator still
        refuses queries as unfitted instead of looking fitted with no
        grids."""
        aggregator = Aggregator(dataset.schema, FelipConfig(epsilon=1.0))
        aggregator.fault_injector = FaultInjector(poison=[0])
        with pytest.raises(PoisonedShardError):
            aggregator.fit(dataset, rng=29)
        with pytest.raises(NotFittedError):
            aggregator.answer(Query([between("num_0", 5, 20),
                                     between("num_1", 5, 20)]))
        with pytest.raises(NotFittedError):
            aggregator.fit_diagnostics()
        assert aggregator.n is None and aggregator.plans == []

    def test_failed_refit_keeps_the_previous_fit(self, dataset):
        """A refit that raises leaves the fitted model whole: its ``n``,
        plans, answers and accounting are the previous fit's, and every
        plan still matches its estimate."""
        config = FelipConfig(epsilon=1.0)
        aggregator = Aggregator(dataset.schema, config).fit(dataset,
                                                            rng=29)
        queries = [Query([between("num_0", 5, 20)]),
                   Query([between("num_0", 5, 20), between("num_1", 2, 9)])]
        answers = aggregator.answer_workload(queries)
        report = aggregator.robustness_report()
        sizes = [plan.num_cells for plan in aggregator.plans]
        small = Dataset(dataset.schema, dataset.records[:2_000])
        assert [plan.num_cells for plan
                in plan_grids(dataset.schema, config, small.n)] != sizes
        aggregator.fault_injector = FaultInjector(poison=[0])
        with pytest.raises(PoisonedShardError):
            aggregator.fit(small, rng=31)
        assert aggregator.n == dataset.n
        assert [plan.num_cells for plan in aggregator.plans] == sizes
        for plan in aggregator.plans:
            assert len(aggregator.estimate_for(plan.key).frequencies) \
                == plan.num_cells
        assert aggregator.answer_workload(queries).tobytes() == \
            answers.tobytes()
        assert aggregator.robustness_report() == report


class TestRefitAccounting:
    def test_refit_reports_only_the_latest_fit(self, dataset):
        """``robustness_report()`` covers the latest collection: a refit's
        accounting replaces the previous fit's (a faulted one here)
        instead of adding to it."""
        config = FelipConfig(epsilon=1.0, ingest_policy="drop",
                             chunk_size=1_000, shard_retries=1)
        refit = Aggregator(dataset.schema, config)
        refit.fault_injector = FaultInjector(fail_all_first_attempts=True)
        refit.fit(dataset, rng=29)
        assert refit.robustness_report()["execution"]["retries"] > 0
        refit.fault_injector = None
        refit.fit(dataset, rng=31)
        fresh = Aggregator(dataset.schema, config).fit(dataset, rng=31)
        assert refit.robustness_report()["ingest"] == \
            fresh.robustness_report()["ingest"]
        assert refit.robustness_report()["ingest"]["accepted_users"] == \
            dataset.n
        assert refit.robustness_report()["execution"] == \
            fresh.robustness_report()["execution"]


class TestRetryPolicy:
    def test_deterministic_errors_are_never_retried(self):
        attempts = []

        def bad_task():
            attempts.append(1)
            raise ProtocolError("structurally invalid, every time")

        stats = ExecutionStats()
        with pytest.raises(ProtocolError):
            run_sharded([bad_task], workers=1, retries=5, backoff=0.0,
                        stats=stats)
        assert len(attempts) == 1
        assert stats.retries == 0
        assert stats.failed_shards == 1

    def test_transient_errors_retry_until_success(self):
        failures = {"left": 2}

        def flaky():
            if failures["left"]:
                failures["left"] -= 1
                raise OSError("transient")
            return "ok"

        stats = ExecutionStats()
        result = run_sharded([flaky], workers=1, retries=3, backoff=0.0,
                             stats=stats)
        assert result == ["ok"]
        assert stats.retries == 2

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sharded([lambda: 1], workers=1, retries=-1)

    def test_pool_creation_failure_degrades_to_inline(self, monkeypatch):
        """No thread pool must not mean no collection."""
        import repro.core.parallel as parallel_module

        def exploding_pool(*args, **kwargs):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor",
                            exploding_pool)
        stats = ExecutionStats()
        tasks = [(lambda i=i: i * i) for i in range(20)]
        assert run_sharded(tasks, workers=4,
                           stats=stats) == [i * i for i in range(20)]
        assert stats.pool_fallbacks == 1

    def test_pool_degraded_fit_completes(self, dataset, monkeypatch):
        import repro.core.parallel as parallel_module

        def exploding_pool(*args, **kwargs):
            raise RuntimeError("thread limit reached")

        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor",
                            exploding_pool)
        model = Felip(dataset.schema, FelipConfig(epsilon=1.0, workers=4))
        model.fit(dataset, rng=29)
        q = Query([between("num_0", 5, 20)])
        assert 0.0 <= model.answer(q) <= 1.0
        assert model.aggregator.exec_stats.pool_fallbacks >= 1


class TestStageTimingsConcurrency:
    def test_concurrent_timers_never_lose_seconds(self):
        """Regression: the read-modify-write on the seconds dict used to
        race when estimate tasks timed stages from pool threads."""
        timings = StageTimings()
        workers = 8
        rounds = 200
        barrier = threading.Barrier(workers)

        def hammer():
            barrier.wait()
            for _ in range(rounds):
                with timings.time("stage"):
                    pass

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(hammer) for _ in range(workers)]
            for future in futures:
                future.result()
        assert timings.as_dict()["stage"] >= 0.0

    def test_concurrent_exact_increments_sum_exactly(self):
        """The lock is load-bearing: concurrent accumulation of exact
        increments sums exactly (a lock-free read-modify-write would
        drop some)."""
        timings = StageTimings()
        workers, rounds = 8, 500
        barrier = threading.Barrier(workers)

        def bump():
            barrier.wait()
            for _ in range(rounds):
                with timings._lock:
                    timings.seconds["x"] = timings.seconds.get("x", 0) + 1

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(bump) for _ in range(workers)]:
                future.result()
        assert timings.seconds["x"] == workers * rounds

    def test_repr_safe_while_stages_insert(self):
        """Satellite regression: __repr__ used to iterate the live
        seconds dict; a timer inserting a brand-new stage concurrently
        crashed it with "dictionary changed size during iteration". It
        now renders from the as_dict() snapshot."""
        timings = StageTimings()
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                # Cycling keys keeps the dict small (bounded memory) while
                # still inserting brand-new keys early on, which is what
                # used to blow up the live-dict iteration.
                with timings.time(f"stage-{i % 64}"):
                    pass
                i += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(300):
                assert repr(timings).startswith("StageTimings(")
        finally:
            stop.set()
            thread.join()

    def test_execution_stats_snapshot_is_a_copy(self):
        """as_dict() must hand out a copy of retried_shards — callers
        (robustness_report consumers) mutating the snapshot must not
        corrupt the live accounting."""
        stats = ExecutionStats()
        stats.record_retry(3)
        stats.record_retry(3)
        snapshot = stats.as_dict()
        snapshot["retried_shards"][9] = 99
        assert stats.as_dict()["retried_shards"] == {3: 2}
        assert "retries=2" in repr(stats)
