"""Benchmarks of the vectorized answering engine.

Tracks the three layers the engine optimizes: materializing a pair's
response matrix (Algorithm 3 IPF), summed-area rectangle lookups, and the
batched workload path against one ``answer`` call per query on a
6-attribute, 1000-query mixed-λ workload. ``make bench-answers`` records the results
in ``BENCH_answers.json``; the ≥10x batched-vs-loop throughput floor is
asserted directly, as is the workload-aware-vs-blind planning comparison
on a skewed 1000-query workload (recorded under the ``workload_plan``
key, which ``benchmarks/record.py`` preserves across re-recordings).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.felip import Felip
from repro.data import normal_dataset
from repro.estimation import SummedAreaTable
from repro.queries.workload import WorkloadSpec, random_workload

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_answers.json"

USERS = 60_000
QUERIES_PER_DIM = 250  # λ ∈ {1, 2, 3, 4} -> 1000 queries total


@pytest.fixture(scope="module")
def bench_dataset():
    return normal_dataset(USERS, num_numerical=4, num_categorical=2,
                          numerical_domain=64, categorical_domain=8,
                          rng=2023)


@pytest.fixture(scope="module")
def fitted(bench_dataset):
    return Felip.ohg(bench_dataset.schema, epsilon=1.0).fit(
        bench_dataset, rng=2024)


@pytest.fixture(scope="module")
def workload(bench_dataset):
    queries = []
    for dim in (1, 2, 3, 4):
        spec = WorkloadSpec(num_queries=QUERIES_PER_DIM, dimension=dim,
                            selectivity=0.4)
        queries.extend(random_workload(bench_dataset.schema, spec,
                                       rng=100 + dim))
    return queries


def test_pair_matrix_materialize(benchmark, fitted):
    """Eager build of all C(6, 2) = 15 response matrices + SATs."""
    agg = fitted.aggregator

    def setup():
        agg._matrices.clear()
        agg._matrix_diags.clear()
        agg._sats.clear()
        return (), {}

    benchmark.pedantic(agg.materialize, setup=setup, rounds=3,
                       iterations=1)


def test_sat_rectangle_lookups(benchmark):
    """1000 rectangle sums against one 64x64 matrix, all via the SAT."""
    rng = np.random.default_rng(0)
    matrix = rng.dirichlet(np.ones(64 * 64)).reshape(64, 64)
    sat = SummedAreaTable(matrix)
    lo = rng.integers(0, 32, size=(1000, 2))
    hi = lo + rng.integers(1, 32, size=(1000, 2))
    r0, c0 = lo[:, 0], lo[:, 1]
    r1, c1 = hi[:, 0], hi[:, 1]
    benchmark(lambda: sat.rectangle(r0, r1, c0, c1))


def test_workload_batched(benchmark, fitted, workload):
    """The batched path on the 1000-query mixed-λ workload."""
    fitted.materialize()
    benchmark.pedantic(lambda: fitted.answer_workload(workload),
                       rounds=5, iterations=1)


def test_workload_loop(benchmark, fitted, workload):
    """One ``answer`` call per query: what the batched path replaces."""
    fitted.materialize()
    agg = fitted.aggregator
    benchmark.pedantic(lambda: [agg.answer(q) for q in workload],
                       rounds=1, iterations=1)


def _merge_workload_record(record: dict) -> None:
    """Fold the planning-comparison rows into BENCH_answers.json in place
    (record.py's merge keeps them when the throughput rows re-record)."""
    existing: dict = {}
    if OUT_PATH.exists():
        try:
            existing = json.loads(OUT_PATH.read_text())
        except (OSError, ValueError):
            existing = {}
    existing["workload_plan"] = record
    OUT_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True)
                        + "\n")


def test_workload_aware_vs_blind_planning(bench_dataset):
    """Acceptance: on a skewed 1000-query workload at equal ε, the
    workload-aware plan scores a lower expected workload error than the
    blind plan while materializing fewer than C(k, 2) pairs."""
    from repro.experiments.workload_opt import (skewed_workload,
                                                workload_comparison)

    queries = skewed_workload(bench_dataset.schema, 1000, rng=31,
                              hot_fraction=0.97)
    table, record = workload_comparison(
        bench_dataset, queries, epsilon=1.0, strategy="ohg", rng=32,
        title="Skewed 1000-query workload: aware vs blind planning")
    print("\n" + table.render())

    by_mode = {row["mode"]: row for row in record["rows"]}
    k = len(bench_dataset.schema)
    all_pairs = k * (k - 1) // 2
    assert by_mode["blind"]["pairs"] == all_pairs
    assert (by_mode["aware"]["expected_err"]
            < by_mode["blind"]["expected_err"])
    assert by_mode["aware"]["pairs"] < all_pairs
    _merge_workload_record(record)


def test_batched_speedup_at_least_10x(fitted, workload):
    """Acceptance floor: ≥10x workload answer throughput over the loop."""
    fitted.materialize()
    agg = fitted.aggregator

    batched = fitted.answer_workload(workload)  # warm caches
    start = time.perf_counter()
    batched = fitted.answer_workload(workload)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    loop = [agg.answer(q) for q in workload]
    loop_s = time.perf_counter() - start

    np.testing.assert_array_equal(batched, loop)
    speedup = loop_s / batched_s
    print(f"\nbatched={batched_s:.4f}s loop={loop_s:.4f}s "
          f"speedup={speedup:.1f}x")
    assert speedup >= 10.0
