"""Tests for the vectorized answering engine.

Covers the materialized summed-area caches, the batched workload path
(which must be bit-identical to a per-query oracle for every λ and
protocol), the IPF convergence diagnostics, and the decoded-value cache
used by mean estimation.
"""

import math
import warnings

import numpy as np
import pytest

from repro.core.felip import Felip
from repro.data import Dataset, normal_dataset
from repro.errors import (
    ConvergenceWarning,
    EstimationError,
    NotFittedError,
    QueryError,
)
from repro.estimation import (
    STOP_KAPPA,
    SummedAreaTable,
    pair_answers_tables,
)
from repro.fo.registry import pinnable_protocol_names
from repro.queries.predicate import between, isin
from repro.queries.query import Query
from repro.queries.workload import WorkloadSpec, random_workload
from repro.schema import Schema
from repro.schema.attribute import categorical, numerical

from tests.test_optimizer_plan import assert_all_paths_equal


@pytest.fixture(scope="module")
def engine_schema():
    return Schema([
        numerical("age", 40),
        numerical("income", 64),
        categorical("sex", ("male", "female")),
        categorical("region", 4),
    ])


@pytest.fixture(scope="module")
def engine_dataset(engine_schema):
    rng = np.random.default_rng(99)
    n = 3_000
    age = rng.integers(0, 40, size=n)
    income = np.clip(age + rng.normal(10, 8, size=n), 0, 63).astype(int)
    sex = rng.integers(0, 2, size=n)
    region = rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1])
    return Dataset(engine_schema,
                   np.column_stack([age, income, sex, region]))


def _mixed_workload(schema, num_per_dim=5, seed=5):
    queries = []
    for dim in range(1, len(schema) + 1):
        spec = WorkloadSpec(num_queries=num_per_dim, dimension=dim,
                            selectivity=0.4)
        queries.extend(random_workload(schema, spec, rng=seed + dim))
    return queries


@pytest.fixture(scope="module")
def fitted(engine_dataset):
    return Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
        engine_dataset, rng=7)


class TestSummedAreaTable:
    def test_rectangle_matches_direct_sums(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((13, 9))
        sat = SummedAreaTable(matrix)
        for _ in range(50):
            r0, r1 = sorted(rng.integers(0, 13, size=2))
            c0, c1 = sorted(rng.integers(0, 9, size=2))
            direct = matrix[r0:r1 + 1, c0:c1 + 1].sum()
            assert sat.rectangle(r0, r1, c0, c1) == pytest.approx(
                direct, abs=1e-10)

    def test_vectorized_lookups(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((11, 7))
        sat = SummedAreaTable(matrix)
        r0 = np.array([0, 2, 5])
        r1 = np.array([3, 9, 10])
        c0 = np.array([1, 0, 6])
        c1 = np.array([4, 6, 6])
        got = sat.rectangle(r0, r1, c0, c1)
        expected = [matrix[a:b + 1, c:d + 1].sum()
                    for a, b, c, d in zip(r0, r1, c0, c1)]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_bands_and_total(self):
        rng = np.random.default_rng(2)
        matrix = rng.random((6, 8))
        sat = SummedAreaTable(matrix)
        assert sat.total == pytest.approx(matrix.sum())
        assert sat.row_band(1, 3) == pytest.approx(matrix[1:4].sum())
        assert sat.col_band(2, 5) == pytest.approx(matrix[:, 2:6].sum())

    def test_out_of_bounds_raises(self):
        sat = SummedAreaTable(np.ones((4, 4)))
        with pytest.raises(EstimationError):
            sat.rectangle(0, 4, 0, 3)
        with pytest.raises(EstimationError):
            sat.rectangle(2, 1, 0, 3)
        with pytest.raises(EstimationError):
            sat.rectangle(0, 3, -1, 3)

    def test_needs_2d_matrix(self):
        with pytest.raises(EstimationError):
            SummedAreaTable(np.ones(5))

    def test_sign_tables_match_indicator_path(self):
        rng = np.random.default_rng(3)
        matrix = rng.dirichlet(np.ones(40)).reshape(8, 5)
        sat = SummedAreaTable(matrix)
        r0 = np.array([1, 0, 4])
        r1 = np.array([5, 7, 6])
        c0 = np.array([0, 2, 1])
        c1 = np.array([3, 4, 2])
        inds_i = np.zeros((3, 8))
        inds_j = np.zeros((3, 5))
        for q in range(3):
            inds_i[q, r0[q]:r1[q] + 1] = 1.0
            inds_j[q, c0[q]:c1[q] + 1] = 1.0
        expected = pair_answers_tables(matrix, inds_i, inds_j)
        got = sat.sign_tables(r0, r1, c0, c1)
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestMaterialize:
    def test_builds_all_pairs_by_default(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=3)
        assert model.fit_diagnostics()["materialized_pairs"] == []
        model.materialize()
        diag = model.fit_diagnostics()
        expected = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert diag["materialized_pairs"] == expected
        assert sorted(diag["response_matrices"]) == expected
        assert "materialize" in model.aggregator.timings.as_dict()

    def test_idempotent(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=3)
        model.materialize()
        sats_before = dict(model.aggregator._sats)
        model.materialize()
        assert model.aggregator._sats == sats_before

    def test_pair_subset_by_name_and_index(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=3)
        model.materialize(pairs=[("income", "age"), (3, 2)])
        diag = model.fit_diagnostics()
        assert diag["materialized_pairs"] == [(0, 1), (2, 3)]

    def test_rejects_degenerate_pair(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=3)
        with pytest.raises(QueryError):
            model.materialize(pairs=[("age", "age")])

    def test_requires_fit(self, engine_schema):
        with pytest.raises(NotFittedError):
            Felip.ohg(engine_schema).materialize()

    def test_sharded_build_matches_lazy(self, engine_dataset):
        eager = Felip.ohg(engine_dataset.schema, epsilon=2.0,
                          workers=3).fit(engine_dataset, rng=11)
        lazy = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=11)
        eager.materialize()
        for i in range(4):
            for j in range(i + 1, 4):
                np.testing.assert_allclose(
                    eager.aggregator.response_matrix(i, j),
                    lazy.aggregator.response_matrix(i, j), atol=1e-12)

    def test_refit_clears_caches(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=3)
        model.materialize()
        model.fit(engine_dataset, rng=4)
        assert model.fit_diagnostics()["materialized_pairs"] == []
        assert model.fit_diagnostics()["response_matrices"] == {}

    def test_set_prior_invalidates_pair(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=3)
        model.materialize()
        prior = np.full((40, 64), 1.0 / (40 * 64))
        model.set_prior("age", "income", prior)
        assert (0, 1) not in model.fit_diagnostics()["materialized_pairs"]
        assert (0, 2) in model.fit_diagnostics()["materialized_pairs"]


class TestBatchedWorkload:
    @pytest.mark.parametrize("protocol", sorted(pinnable_protocol_names()))
    def test_batched_matches_loop(self, engine_dataset, protocol):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0,
                          protocols=(protocol,)).fit(engine_dataset, rng=13)
        assert_all_paths_equal(model.aggregator,
                               _mixed_workload(engine_dataset.schema))

    def test_batched_matches_loop_materialized(self, fitted):
        fitted.materialize()
        assert_all_paths_equal(fitted.aggregator,
                               _mixed_workload(fitted.schema, seed=21))

    def test_validate_for_runs_once_per_query(self, engine_dataset,
                                              monkeypatch):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0,
                          record_workload=True).fit(engine_dataset, rng=13)
        queries = _mixed_workload(engine_dataset.schema, seed=51)
        validated = []
        validate = Query.validate_for
        monkeypatch.setattr(
            Query, "validate_for",
            lambda query, schema: validated.append(query)
            or validate(query, schema))
        model.answer_workload(queries)
        assert len(validated) == len(queries)
        assert {id(q) for q in validated} == {id(q) for q in queries}

    def test_materialize_does_not_change_answers(self, engine_dataset):
        plain = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=17)
        eager = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=17)
        eager.materialize()
        queries = _mixed_workload(engine_dataset.schema, seed=31)
        np.testing.assert_allclose(eager.answer_workload(queries),
                                   plain.answer_workload(queries),
                                   atol=1e-8)

    def test_predicate_order_does_not_matter(self, fitted):
        forward = Query([between("age", 5, 30), between("income", 10, 50),
                         isin("region", [0, 2])])
        backward = Query(list(forward)[::-1])
        assert fitted.answer(forward) == fitted.answer(backward)
        np.testing.assert_array_equal(
            fitted.answer_workload([forward]),
            fitted.answer_workload([backward]))

    def test_empty_workload(self, fitted):
        assert fitted.answer_workload([]).shape == (0,)

    def test_answers_in_unit_interval(self, fitted):
        queries = _mixed_workload(fitted.schema, seed=41)
        answers = fitted.answer_workload(queries)
        assert (answers >= 0.0).all() and (answers <= 1.0).all()

    def test_answer_stage_timed(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=19)
        model.answer_workload(_mixed_workload(engine_dataset.schema))
        assert model.aggregator.timings.as_dict()["answer"] > 0.0

    def test_invalid_query_rejected_before_answering(self, fitted):
        good = Query([between("age", 0, 10)])
        bad = Query([between("age", 0, 100)])
        with pytest.raises(QueryError):
            fitted.answer_workload([good, bad])


class TestFitDiagnostics:
    def test_response_matrix_diagnostics_recorded(self, fitted):
        fitted.aggregator.response_matrix(0, 1)
        diag = fitted.fit_diagnostics()["response_matrices"][(0, 1)]
        assert set(diag) == {"sweeps", "converged", "final_change",
                             "threshold", "residual"}
        assert diag["sweeps"] >= 1
        # τ = κ·σ_min over the variance model's per-cell variances.
        variances = fitted.aggregator._cell_variances().values()
        assert diag["threshold"] == pytest.approx(
            STOP_KAPPA * math.sqrt(min(variances)))
        assert diag["converged"]
        assert diag["final_change"] < diag["threshold"]
        assert diag["residual"] > 0.0

    def test_default_fit_converges_without_warnings(self):
        """Fit + materialize + a λ=3 workload on the answer-throughput
        benchmark's 60k-user dataset: every pair and query stops on
        movement, and no ConvergenceWarning fires."""
        dataset = normal_dataset(60_000, num_numerical=4,
                                 num_categorical=2, numerical_domain=64,
                                 categorical_domain=8, rng=2023)
        queries = random_workload(
            dataset.schema,
            WorkloadSpec(num_queries=50, dimension=3, selectivity=0.4),
            rng=103)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            model = Felip.ohg(dataset.schema, epsilon=1.0).fit(
                dataset, rng=2024).materialize()
            model.answer_workload(queries)
        diagnostics = model.fit_diagnostics()
        pairs = diagnostics["response_matrices"]
        assert len(pairs) == 15
        assert all(diag["converged"] for diag in pairs.values())
        assert diagnostics["lambda_queries"]["queries"] == 50
        assert diagnostics["lambda_queries"]["non_converged"] == 0

    def test_lambda_counters_accumulate(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0).fit(
            engine_dataset, rng=23)
        before = model.fit_diagnostics()["lambda_queries"]
        assert before["queries"] == 0
        query = Query([between("age", 0, 20), between("income", 0, 30),
                       isin("sex", [0])])
        model.answer(query)
        model.answer_workload([query, query])
        after = model.fit_diagnostics()["lambda_queries"]
        assert after["queries"] == 3
        assert after["total_sweeps"] >= after["queries"]
        assert after["max_sweeps"] >= 1

    def test_non_convergence_warns(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0,
                          lambda_max_iters=1).fit(engine_dataset, rng=29)
        query = Query([between("age", 0, 20), between("income", 0, 30),
                       isin("sex", [0])])
        with pytest.warns(ConvergenceWarning):
            model.answer(query)
        with pytest.warns(ConvergenceWarning):
            model.answer_workload([query])
        assert model.fit_diagnostics()["lambda_queries"][
            "non_converged"] >= 2

    def test_response_matrix_non_convergence_warns(self, engine_dataset):
        model = Felip.ohg(engine_dataset.schema, epsilon=2.0,
                          response_matrix_max_iters=1).fit(
                              engine_dataset, rng=31)
        with pytest.warns(ConvergenceWarning):
            model.aggregator.response_matrix(0, 1)
        diag = model.fit_diagnostics()["response_matrices"][(0, 1)]
        assert diag["converged"] is False


class TestDecodedValueCache:
    def test_matches_code_to_value(self):
        attr = numerical("x", 10, lo=-2.0, hi=8.0)
        expected = [attr.code_to_value(c) for c in range(10)]
        np.testing.assert_allclose(attr.decoded_values(), expected)

    def test_identity_codes_without_bounds(self):
        attr = numerical("x", 6)
        np.testing.assert_array_equal(attr.decoded_values(),
                                      np.arange(6, dtype=float))

    def test_cached_and_read_only(self):
        attr = numerical("x", 12, lo=0.0, hi=1.0)
        first = attr.decoded_values()
        assert attr.decoded_values() is first
        with pytest.raises(ValueError):
            first[0] = 99.0

    def test_estimate_mean_uses_decoded_values(self, fitted):
        marginal = fitted.marginal("age")
        attr = fitted.schema["age"]
        expected = (marginal / marginal.sum()) @ attr.decoded_values()
        assert fitted.estimate_mean("age") == pytest.approx(expected)
