"""Accuracy gates of the IPF stop rule.

Algorithms 3 and 4 stop after the first sweep that moves their iterate
by less than τ = κ·σ_min (``repro.estimation.stop_tolerance``). These
seeded, small-n checks bound what stopping there costs against fits run
far past it, on the answer benchmark's schema (4 numerical attributes
of domain 64, 2 categorical of domain 8, ε = 1):

* λ ≥ 3: on a fitted model's sign tables, answers stay within
  0.01·σ_min of a 2000-sweep run (9 cases: 3 seeds × λ ∈ {3, 4, 5};
  measured: at most 1.0e-3·σ_min);
* λ ≤ 2: over 5 seeds, each model's MAE against the exact answers stays
  within ``MAE_BOUND`` of the same model whose response matrices ran
  1000 sweeps (measured: at most +0.22%).
"""

import warnings

import numpy as np
import pytest

from repro.core.felip import Felip
from repro.data import normal_dataset
from repro.errors import ConvergenceWarning, EstimationError
from repro.estimation import (
    STOP_KAPPA,
    canonical_pairs,
    fit_lambda_queries,
    pair_answers_tables,
    stop_tolerance,
)
from repro.estimation import response_matrix
from repro.fo import kernels
from repro.queries.query import true_answers
from repro.queries.workload import WorkloadSpec, random_workload

USERS = 100_000
SEEDS = (1, 2, 3, 4, 5)
#: relative MAE excess allowed over the run-to-the-cap model
MAE_BOUND = 0.01


def _dataset(seed):
    return normal_dataset(USERS, num_numerical=4, num_categorical=2,
                          numerical_domain=64, categorical_domain=8,
                          rng=seed)


def _fit(dataset, seed, **overrides):
    return Felip.ohg(dataset.schema, epsilon=1.0, **overrides).fit(
        dataset, rng=seed)


def _workload(schema, dimensions, per_dim, seed):
    return [q for d in dimensions for q in random_workload(
        schema, WorkloadSpec(num_queries=per_dim, dimension=d,
                             selectivity=0.5), rng=seed)]


def _sign_tables(aggregator, queries, dimension):
    """``(Q, C(λ, 2), 2, 2)`` sign tables from the response matrices."""
    schema = aggregator.schema
    pairs = canonical_pairs(dimension)
    tables = np.empty((len(queries), len(pairs), 2, 2))
    for q, query in enumerate(queries):
        preds = sorted(query, key=lambda p: schema.index_of(p.attribute))
        idx = [schema.index_of(p.attribute) for p in preds]
        inds = [p.indicator(schema[t].domain_size)
                for p, t in zip(preds, idx)]
        for k, (a, b) in enumerate(pairs):
            matrix = aggregator.response_matrix(idx[a], idx[b])
            tables[q, k] = pair_answers_tables(
                matrix, inds[a][None], inds[b][None])[0]
    return tables


def test_stop_tolerance_is_a_tenth_of_the_smallest_standard_error():
    assert stop_tolerance([4e-4, 1e-4, 9e-4]) == pytest.approx(
        STOP_KAPPA * 1e-2)
    with pytest.raises(EstimationError):
        stop_tolerance([])


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_lambda_answers_match_long_run(seed):
    dataset = _dataset(seed)
    model = _fit(dataset, seed)
    tau = stop_tolerance(model.aggregator._cell_variances().values())
    sigma_min = tau / STOP_KAPPA
    for dimension in (3, 4, 5):
        queries = _workload(dataset.schema, (dimension,), 20, seed + 10)
        tables = _sign_tables(model.aggregator, queries, dimension)
        rule, sweeps, converged = fit_lambda_queries(tables, dimension,
                                                     tau)
        limit, _, _ = fit_lambda_queries(tables, dimension, 0.0,
                                         max_iters=2000)
        assert converged.all()
        assert sweeps.max() < 500
        assert np.abs(rule - limit).max() <= 0.01 * sigma_min


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_mae_matches_long_run(seed, monkeypatch):
    dataset = _dataset(seed)
    queries = _workload(dataset.schema, (1, 2), 100, seed + 100)
    truth = true_answers(queries, dataset)
    rule = _fit(dataset, seed)
    rule_mae = np.abs(rule.answer_workload(queries) - truth).mean()
    assert all(diag["converged"] for diag in rule.fit_diagnostics()[
        "response_matrices"].values())

    # κ = 0 makes τ = 0: every fit runs to its cap, which then warns.
    monkeypatch.setattr(response_matrix, "STOP_KAPPA", 0.0)
    limit = _fit(dataset, seed, response_matrix_max_iters=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        limit_answers = limit.answer_workload(queries)
    limit_mae = np.abs(limit_answers - truth).mean()
    assert all(diag["threshold"] == 0.0 for diag in limit.fit_diagnostics()[
        "response_matrices"].values())
    assert rule_mae <= limit_mae * (1.0 + MAE_BOUND)


def test_pair_mae_matches_long_run_on_the_numpy_tier(monkeypatch):
    """The MAE gate with ``ipf_sweep`` on its numpy tier (the test above
    runs on the preferred, compiled tier when one loads)."""
    with kernels.use_backend("numpy"):
        test_pair_mae_matches_long_run(SEEDS[0], monkeypatch)
