"""Chaos tests: injected shard faults, retry semantics, pool degradation.

The strongest property the fault-tolerant executor promises: a collection
that loses any shard to a transient fault and retries it is
**bit-identical** to the fault-free run at the same ``(seed, chunk_size)``
— retried shard tasks replay their snapshotted RNG stream. Also covered:
deterministic (ReproError) failures are never retried and fail fast
(queued shards are cancelled), exhausted retries surface the original
exception, pool-creation failure degrades to inline execution, and the
stage timers stay exact (and repr-safe) under concurrent updates.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import StreamingCollector, plan_grids
from repro.core.client import collect_reports
from repro.core.parallel import ExecutionStats, StageTimings, run_sharded
from repro.data import normal_dataset
from repro.errors import ConfigurationError, ProtocolError
from repro.queries import Query, between
from repro.robustness import (
    FaultInjector,
    PoisonedShardError,
    TransientShardFault,
)

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
                 chunk_size=1_000, stats=None):
        config = FelipConfig(epsilon=1.0)
        plans, assignment = planned_collection(dataset, config, seed=13)
        return collect_reports(
            dataset.records, assignment, plans, config.epsilon, rng=17,
            workers=workers, chunk_size=chunk_size,
            retries=retries, fault_injector=injector, exec_stats=stats)

    @pytest.mark.parametrize("doomed_shard", [0, 3, 7])
    def test_single_shard_killed_once_is_bit_identical(self, dataset,
                                                       doomed_shard):
        """Losing any single shard once → retried output ≡ fault-free."""
        baseline = self._collect(dataset)
        injector = FaultInjector(fail=[(doomed_shard, 0)])
        stats = ExecutionStats()
        faulted = self._collect(dataset, injector, retries=1, stats=stats)
        assert injector.total_injected == 1
        assert stats.retries == 1
        assert stats.retried_shards == {doomed_shard: 1}
        assert_same_reports(faulted, baseline)

    def test_every_shard_killed_once_is_bit_identical(self, dataset):
        baseline = self._collect(dataset)
        injector = FaultInjector(fail_all_first_attempts=True)
        faulted = self._collect(dataset, injector, retries=1)
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
        config = FelipConfig(epsilon=1.0)
        plans, assignment = planned_collection(dataset, config, seed=13)
        injector = FaultInjector(poison=[1])
        with pytest.raises(PoisonedShardError):
            collect_reports(
                dataset.records, assignment, plans, config.epsilon, rng=17,
                workers=4, chunk_size=1_000, retries=5,
                fault_injector=injector)
        assert injector.injected == {(1, 0): 1}


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
