"""Collection-throughput benchmark: serial reference vs sharded executor.

Times the client-side collection phase (grouping + encode + perturb) at
``n = 10^6`` users for the serial reference path and the sharded executor
at 1/2/4 workers, plus one ``n = 10^7`` row at ``workers=0`` (one thread
per available CPU). ``make bench-pipeline`` records the results to
``BENCH_pipeline.json`` so PRs can diff collection throughput over time.

The sharded path wins even at ``workers=1`` — its radix-argsort grouping,
column-only gathers, and closed-form cell lookup replace the serial
path's dominant costs. Multi-worker rows add whatever the GIL-releasing
kernels (generator sampling, the OLH hash chain) leave on the table, so
cross-worker speedups are bounded by the host's effective core count
(recorded in the file header): on a single-CPU host every workers>1 row
tracks the workers=1 row.
"""

import numpy as np
import pytest

from repro.core import FelipConfig, partition_users, plan_grids
from repro.core.client import collect_reports, collect_reports_serial
from repro.data import normal_dataset
from repro.rng import ensure_rng

N_USERS = 1_000_000
N_USERS_XL = 10_000_000


@pytest.fixture(scope="module")
def collection():
    dataset = normal_dataset(N_USERS, num_numerical=2, num_categorical=1,
                             numerical_domain=64, categorical_domain=8,
                             rng=2023)
    config = FelipConfig(epsilon=1.0)
    plans = plan_grids(dataset.schema, config, dataset.n)
    assignment = partition_users(dataset.n, len(plans), ensure_rng(2023))
    return dataset.records, assignment, plans, config.epsilon


def test_collect_serial_1m(benchmark, collection):
    records, assignment, plans, epsilon = collection
    benchmark.pedantic(
        lambda: collect_reports_serial(records, assignment, plans,
                                       epsilon, rng=7),
        rounds=7, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_collect_sharded_1m(benchmark, collection, workers):
    records, assignment, plans, epsilon = collection
    benchmark.pedantic(
        lambda: collect_reports(records, assignment, plans, epsilon,
                                rng=7, workers=workers),
        rounds=7, iterations=1, warmup_rounds=1)


def test_collect_sharded_chunked_1m(benchmark, collection):
    records, assignment, plans, epsilon = collection
    benchmark.pedantic(
        lambda: collect_reports(records, assignment, plans, epsilon,
                                rng=7, workers=4, chunk_size=65_536),
        rounds=7, iterations=1, warmup_rounds=1)


@pytest.mark.bench_xl
def test_collect_sharded_10m(benchmark):
    """n=10^7 collection through the sharded path with compiled kernels.

    The extra-large row the kernel layer is aimed at: one order of
    magnitude past the standard benchmark, skippable on slow hosts via
    ``-m 'benchmarks and not bench_xl'``. Materializing the dataset
    dominates setup, so it is built once here rather than via the
    module fixture (which the 1m rows share)."""
    dataset = normal_dataset(N_USERS_XL, num_numerical=2, num_categorical=1,
                             numerical_domain=64, categorical_domain=8,
                             rng=2023)
    config = FelipConfig(epsilon=1.0)
    plans = plan_grids(dataset.schema, config, dataset.n)
    assignment = partition_users(dataset.n, len(plans), ensure_rng(2023))
    benchmark.pedantic(
        lambda: collect_reports(dataset.records, assignment, plans,
                                config.epsilon, rng=7, workers=0),
        rounds=3, iterations=1, warmup_rounds=1)


def test_sharded_output_matches_serial(collection):
    """Guard: the benchmarked paths produce identical reports."""
    records, assignment, plans, epsilon = collection
    serial = collect_reports_serial(records, assignment, plans, epsilon,
                                    rng=7)
    sharded = collect_reports(records, assignment, plans, epsilon, rng=7,
                              workers=4)
    for s, p in zip(serial, sharded):
        assert s.group_size == p.group_size
        if s.report is None:
            assert p.report is None
            continue
        for name in vars(s.report):
            sv, pv = getattr(s.report, name), getattr(p.report, name)
            if isinstance(sv, np.ndarray):
                np.testing.assert_array_equal(sv, pv, err_msg=name)
            else:
                assert sv == pv, name
