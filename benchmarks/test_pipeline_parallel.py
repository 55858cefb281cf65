"""Collection-throughput benchmark of the sharded executor.

Times the client-side collection phase (grouping + encode + perturb +
the fold of every shard into its grid's state + its admission check
under the default ``strict`` policy) at ``n = 10^6`` users at
1/2/4 workers, plus one ``n = 10^7`` row at ``workers=0`` (one thread per
available CPU). ``make bench-pipeline`` records the results to
``BENCH_pipeline.json`` so PRs can diff collection throughput over time.

Multi-worker rows add whatever the GIL-releasing kernels (generator
sampling, the OLH hash chain and support sweep) leave on the table, so
cross-worker speedups are bounded by the host's effective core count
(recorded in the file header): on a single-CPU host every workers>1 row
tracks the workers=1 row. That the sharded output equals the serial
reference's, folded, is tier-1's job
(``tests/test_parallel_pipeline.py``), for every protocol.
"""

from dataclasses import replace

import pytest

from repro.core import FelipConfig, partition_users, plan_grids
from repro.core.client import ExecutionContext, collect_reports
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
    return dataset.records, assignment, plans, config


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_collect_sharded_1m(benchmark, collection, workers):
    records, assignment, plans, config = collection
    context = ExecutionContext(replace(config, workers=workers))
    benchmark.pedantic(
        lambda: collect_reports(context, records, assignment, plans,
                                config.epsilon, rng=7),
        rounds=7, iterations=1, warmup_rounds=1)


def test_collect_sharded_chunked_1m(benchmark, collection):
    records, assignment, plans, config = collection
    context = ExecutionContext(replace(config, workers=4,
                                       chunk_size=65_536))
    benchmark.pedantic(
        lambda: collect_reports(context, records, assignment, plans,
                                config.epsilon, rng=7),
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
    config = FelipConfig(epsilon=1.0, workers=0)
    plans = plan_grids(dataset.schema, config, dataset.n)
    assignment = partition_users(dataset.n, len(plans), ensure_rng(2023))
    context = ExecutionContext(config)
    benchmark.pedantic(
        lambda: collect_reports(context, dataset.records, assignment, plans,
                                config.epsilon, rng=7),
        rounds=3, iterations=1, warmup_rounds=1)

