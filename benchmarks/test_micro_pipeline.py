"""Micro-benchmarks of the aggregator pipeline stages.

Tracks the post-collection stages in isolation (post-processing, response
matrices, λ-D combination, HIO fit) so regressions are attributable.
"""

import numpy as np
import pytest

from repro.baselines import HIO
from repro.core import FelipConfig, plan_grids
from repro.data import normal_dataset
from repro.estimation import (
    PairAnswers,
    build_response_matrix,
    estimate_lambda_query,
)
from repro.grids import Binning, Grid1D, Grid2D, GridEstimate
from repro.postprocess import normalize_non_negative, postprocess_grids
from repro.schema.attribute import numerical


@pytest.fixture(scope="module")
def grid_estimates():
    rng = np.random.default_rng(0)
    x, y = numerical("x", 128), numerical("y", 128)
    pair = GridEstimate(
        grid=Grid2D(0, 1, x, y, Binning(128, 12), Binning(128, 12)),
        frequencies=rng.dirichlet(np.ones(144)))
    gx = GridEstimate(grid=Grid1D(0, x, Binning(128, 24)),
                      frequencies=rng.dirichlet(np.ones(24)))
    gy = GridEstimate(grid=Grid1D(1, y, Binning(128, 24)),
                      frequencies=rng.dirichlet(np.ones(24)))
    return pair, gx, gy


def test_normalize_non_negative(benchmark):
    rng = np.random.default_rng(1)
    noisy = rng.normal(0.001, 0.01, size=10_000)
    benchmark(lambda: normalize_non_negative(noisy))


def test_postprocess_round(benchmark, grid_estimates):
    pair, gx, gy = grid_estimates
    variances = {(0, 1): 1e-6, (0,): 1e-6, (1,): 1e-6}

    def run():
        copies = [GridEstimate(grid=e.grid,
                               frequencies=e.frequencies.copy())
                  for e in (pair, gx, gy)]
        postprocess_grids(copies, variances, 2, rounds=2)

    benchmark(run)


def test_response_matrix_128(benchmark, grid_estimates):
    pair, gx, gy = grid_estimates
    benchmark(lambda: build_response_matrix(
        [pair, gx, gy], 0, 1, 128, 128, tolerance=1e-3, max_iters=100))


def test_lambda8_combination(benchmark):
    answers = {}
    for i in range(8):
        for j in range(i + 1, 8):
            answers[(i, j)] = PairAnswers(pp=0.25, pn=0.25, np_=0.25,
                                          nn=0.25)
    benchmark(lambda: estimate_lambda_query(answers, 8, tolerance=1e-3,
                                            max_iters=500))


def test_hio_fit_10_attributes(benchmark):
    dataset = normal_dataset(30_000, num_numerical=5, num_categorical=5,
                             numerical_domain=64, categorical_domain=8,
                             rng=2)
    hio = HIO(dataset.schema, epsilon=1.0)
    benchmark.pedantic(lambda: hio.fit(dataset, rng=3), rounds=3,
                       iterations=1)


def test_plan_grids_10_attributes(benchmark):
    dataset = normal_dataset(100, num_numerical=5, num_categorical=5,
                             numerical_domain=256, categorical_domain=8,
                             rng=4)
    config = FelipConfig(epsilon=1.0, strategy="ohg")
    benchmark(lambda: plan_grids(dataset.schema, config, 1_000_000))
