"""Micro-benchmarks of the LDP primitives and pipeline stages.

Not paper figures — these track the throughput of the building blocks so
performance regressions are visible independent of experiment noise.
"""

import numpy as np
import pytest

from benchmarks.common import bench_scale
from repro import Felip
from repro.data import normal_dataset, uniform_dataset
from repro.fo import (
    GeneralizedRandomizedResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
)
from repro.fo import kernels as fo_kernels
from repro.fo.hashing import mix_seeds, random_seeds, tiled_support_counts

_N = 100_000
_DOMAIN = 64
_DOMAIN_LARGE = 1024


@pytest.fixture(scope="module")
def values():
    return np.random.default_rng(0).integers(0, _DOMAIN, size=_N)


@pytest.fixture(scope="module")
def values_large():
    return np.random.default_rng(0).integers(0, _DOMAIN_LARGE, size=_N)


def test_grr_perturb(benchmark, values):
    oracle = GeneralizedRandomizedResponse(1.0, _DOMAIN)
    rng = np.random.default_rng(1)
    benchmark(lambda: oracle.perturb(values, rng))


def test_grr_round_trip(benchmark, values):
    oracle = GeneralizedRandomizedResponse(1.0, _DOMAIN)
    rng = np.random.default_rng(2)
    benchmark(lambda: oracle.run(values, rng))


def test_olh_perturb(benchmark, values):
    oracle = OptimizedLocalHashing(1.0, _DOMAIN)
    rng = np.random.default_rng(3)
    benchmark(lambda: oracle.perturb(values, rng))


def test_olh_estimate(benchmark, values):
    # Every call folds the report with a full O(d*n) support sweep (the
    # report caches only its mixed seeds).
    oracle = OptimizedLocalHashing(1.0, _DOMAIN)
    report = oracle.perturb(values, np.random.default_rng(4))
    benchmark(lambda: oracle.estimate(report))


def test_olh_estimate_d1024(benchmark, values_large):
    oracle = OptimizedLocalHashing(1.0, _DOMAIN_LARGE)
    report = oracle.perturb(values_large, np.random.default_rng(4))
    benchmark(lambda: oracle.estimate(report))


def _bench_kernel(benchmark, domain):
    # The numpy tiled kernel itself: one O(d*n) sweep per call.
    rng = np.random.default_rng(7)
    oracle = OptimizedLocalHashing(1.0, domain)
    mixed = mix_seeds(random_seeds(_N, rng))
    buckets = rng.integers(0, oracle.g, size=_N).astype(np.uint64)
    candidates = np.arange(domain, dtype=np.uint64)
    benchmark(lambda: tiled_support_counts(mixed, buckets, oracle.g,
                                           candidates))


def test_support_kernel_d64(benchmark):
    _bench_kernel(benchmark, _DOMAIN)


def test_hio_answer_throughput(benchmark):
    # End-to-end answer latency of the OLH-backed HIO baseline: interval
    # covers -> per-group tiled support counting. The memo cache is
    # cleared each round so every call pays the full on-demand
    # estimation, not a dictionary lookup.
    from repro.baselines import HIO
    from repro.queries import Query, between

    dataset = uniform_dataset(20_000, num_numerical=2, num_categorical=0,
                              numerical_domain=64, rng=8)
    hio = HIO(dataset.schema, epsilon=1.0, branching=4)
    hio.fit(dataset, rng=9)
    queries = [Query([between("num_0", lo, lo + 15),
                      between("num_1", 8, 47)]) for lo in range(0, 48, 6)]

    def answer_all():
        hio._cache = {}
        return [hio.answer(q) for q in queries]

    benchmark(answer_all)


# --------------------------------------------------------------------------
# Compiled-kernel dispatch: the same hot kernel benchmarked once per
# available backend (the numpy fallback is always one of them), so
# BENCH_kernels.json records the jit-vs-fallback speedup on this host.
# Backend choice never changes outputs (bit-identity contract, see
# tests/test_kernels.py) — only the wall clock should move.

_KERNEL_BACKENDS = fo_kernels.available_backends()


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
def test_kernel_ue_accumulate(benchmark, backend, values):
    rng = np.random.default_rng(10)
    uniforms = rng.random((_N, _DOMAIN))
    true_uniforms = rng.random(_N)
    vals = values.astype(np.int64)
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["ue_accumulate"])
        benchmark(lambda: fo_kernels.ue_accumulate(
            uniforms, vals, true_uniforms, 0.6, 0.25))


# ε=1 gives g=4 (the power-of-two mask compare), ε=4 gives g=56 (the
# divisibility compare on the AVX-512 sweep, `s % g` on the scalar one).
@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
@pytest.mark.parametrize("epsilon", [1.0, 4.0], ids=["eps1", "eps4"])
def test_kernel_support_counts_d1024(benchmark, epsilon, backend):
    rng = np.random.default_rng(11)
    oracle = OptimizedLocalHashing(epsilon, _DOMAIN_LARGE)
    mixed = mix_seeds(random_seeds(_N, rng))
    buckets = rng.integers(0, oracle.g, size=_N).astype(np.uint64)
    candidates = np.arange(_DOMAIN_LARGE, dtype=np.uint64)
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["support_counts"])
        benchmark(lambda: fo_kernels.support_counts(
            mixed, buckets, oracle.g, candidates))


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
def test_kernel_hr_supports_d1024(benchmark, backend):
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 2048, size=_N).astype(np.int64)
    bits = rng.choice(np.array([-1, 1], dtype=np.int8), size=_N)
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["hr_supports"])
        benchmark(lambda: fo_kernels.hr_supports(rows, bits, _DOMAIN_LARGE))


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
def test_kernel_sw_transform(benchmark, backend):
    rng = np.random.default_rng(13)
    b, buckets = 0.3, 64
    v = rng.random(_N)
    close = rng.random(_N) < 0.5
    close_draws = rng.uniform(-b, b, size=int(close.sum()))
    far_draws = rng.uniform(0.0, 1.0, size=int((~close).sum()))
    width = (1.0 + 2.0 * b) / buckets
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["sw_transform"])
        benchmark(lambda: fo_kernels.sw_transform(
            v, close, close_draws, far_draws, b, width, buckets))


@pytest.fixture(scope="module")
def batch_fit_grouping():
    """batch-fit's collection input: 4·10⁶ records of 4 numerical
    attributes at domain 256 and 2 categorical at 16, partitioned over
    the 19 grids planned at ε=4, with the plan's cell tables."""
    from repro.core import FelipConfig, partition_users, plan_grids
    from repro.core.client import cell_tables
    dataset = normal_dataset(4_000_000, num_numerical=4, num_categorical=2,
                             numerical_domain=256, categorical_domain=16,
                             rng=14)
    plans = plan_grids(dataset.schema, FelipConfig(epsilon=4.0), dataset.n)
    assert len(plans) == 19
    labels = partition_users(dataset.n, len(plans), 15)
    return dataset.records, labels, cell_tables(plans)


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
def test_kernel_group_cells_batch_fit(benchmark, backend,
                                      batch_fit_grouping):
    records, labels, tables = batch_fit_grouping
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["group_cells"])
        benchmark.pedantic(
            lambda: fo_kernels.group_cells(records, labels, tables),
            rounds=5, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
def test_kernel_permute_batch_fit(benchmark, backend):
    """batch-fit's partition shuffle: 4·10⁶ one-byte labels over 19
    groups."""
    from repro.core.partition import group_sizes
    labels = np.repeat(np.arange(19, dtype=np.uint8),
                       group_sizes(4_000_000, 19))
    rng = np.random.default_rng(16)
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["permute"])
        benchmark.pedantic(lambda: fo_kernels.permute(labels, rng),
                           rounds=5, iterations=1, warmup_rounds=1)


@pytest.fixture(scope="module")
def batch_fit_sweep():
    """The first Algorithm 3 sweep of batch-fit's pair (0, 1): the grids
    planned at n = 4·10⁶, ε = 4 (a 14 x 14 grid and two 150-cell 1-D
    grids over 256 x 256 values, cut into 152 x 152 atoms), with
    Dirichlet cell masses. Returns ``ipf_sweep``'s arguments."""
    from repro.core import FelipConfig, plan_grids
    from repro.estimation import fit_response_matrix
    from repro.grids import GridEstimate
    schema = normal_dataset(10, num_numerical=4, num_categorical=2,
                            numerical_domain=256, categorical_domain=16,
                            rng=18).schema
    plans = {p.key: p for p in plan_grids(schema, FelipConfig(epsilon=4.0),
                                          4_000_000)}
    rng = np.random.default_rng(18)
    related = [GridEstimate(grid=plans[key].grid, frequencies=rng.dirichlet(
        np.ones(plans[key].num_cells))) for key in ((0, 1), (0,), (1,))]
    calls = []
    sweep = fo_kernels.ipf_sweep

    def first_call(*args):
        if not calls:
            calls.append([None if a is None else np.copy(a) for a in args])
        return sweep(*args)

    fo_kernels.ipf_sweep = first_call
    try:
        fit_response_matrix(related, 0, 1, 256, 256, tolerance=np.inf)
    finally:
        fo_kernels.ipf_sweep = sweep
    assert calls[0][0].shape == (152, 152)
    return calls[0]


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
def test_kernel_ipf_sweep_batch_fit(benchmark, backend, batch_fit_sweep):
    """One Algorithm 3 sweep over batch-fit's 152 x 152 atoms (three
    grids), in place on a copy of the first sweep's start."""
    mass, *rest = batch_fit_sweep
    mass = mass.copy()
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["ipf_sweep"])
        benchmark(lambda: fo_kernels.ipf_sweep(mass, *rest))


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
def test_kernel_olh_perturb(benchmark, backend):
    """One batch-fit OLH group's perturbation from its drawn randomness:
    2.1·10⁵ users, d = 256, ε = 4 (g = 56)."""
    n = 210_000
    rng = np.random.default_rng(17)
    oracle = OptimizedLocalHashing(4.0, 256)
    seeds = random_seeds(n, rng)
    values = rng.integers(0, 256, size=n)
    keep_uniforms = rng.random(n)
    others = rng.integers(0, oracle.g - 1, size=n)
    with fo_kernels.use_backend(backend):
        fo_kernels.warm(["olh_perturb"])
        benchmark(lambda: fo_kernels.olh_perturb(
            seeds, values, keep_uniforms, others, oracle.p, oracle.g))


def test_oue_round_trip(benchmark, values):
    oracle = OptimizedUnaryEncoding(1.0, _DOMAIN)
    rng = np.random.default_rng(5)
    benchmark(lambda: oracle.run(values, rng))


def test_felip_ohg_fit(benchmark):
    scale = bench_scale()
    dataset = normal_dataset(min(scale.users, 50_000), num_numerical=3,
                             num_categorical=3, numerical_domain=64,
                             categorical_domain=8, rng=6)
    benchmark.pedantic(
        lambda: Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=7),
        rounds=3, iterations=1)
