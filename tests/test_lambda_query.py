"""Tests for Algorithm 4 (λ-D estimation from 2-D answers)."""

import itertools

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import (
    PairAnswers,
    estimate_lambda_query,
    pair_answers_from_matrix,
)


def _pairs_from_joint(joint: np.ndarray) -> dict:
    """Exact pairwise sign tables from a full λ-D joint over {0,1}^λ."""
    dims = joint.ndim
    answers = {}
    for i, j in itertools.combinations(range(dims), 2):
        axes = tuple(t for t in range(dims) if t not in (i, j))
        table = joint.sum(axis=axes)
        if i > j:
            table = table.T
        answers[(i, j)] = PairAnswers(pp=table[1, 1], pn=table[1, 0],
                                      np_=table[0, 1], nn=table[0, 0])
    return answers


class TestClipRenormalization:
    def test_clipped_table_renormalizes_to_matrix_total(self):
        # Post-processing can leave tiny negative matrix entries; clipping
        # the derived sign cells at 0 used to push the 2x2 table total
        # above the matrix mass (here 1.1 vs 1.0), feeding Algorithm 4 an
        # infeasible margin. The table must be rescaled back to the total.
        matrix = np.array([[0.6, -0.1], [0.5, 0.0]])
        ind = np.array([1.0, 0.0])
        ans = pair_answers_from_matrix(matrix, ind, ind)
        total = ans.pp + ans.pn + ans.np_ + ans.nn
        assert total == pytest.approx(matrix.sum())
        assert min(ans.pp, ans.pn, ans.np_, ans.nn) >= 0.0
        assert ans.pp == pytest.approx(0.6 / 1.1)
        assert ans.np_ == pytest.approx(0.5 / 1.1)

    def test_clean_matrix_tables_untouched(self):
        rng = np.random.default_rng(7)
        matrix = rng.dirichlet(np.ones(20)).reshape(4, 5)
        ind_i = np.array([1.0, 1.0, 0.0, 0.0])
        ind_j = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        ans = pair_answers_from_matrix(matrix, ind_i, ind_j)
        assert ans.pp == pytest.approx(ind_i @ matrix @ ind_j)


class TestPairAnswersFromMatrix:
    def test_four_quadrants_sum_to_total(self):
        rng = np.random.default_rng(0)
        matrix = rng.dirichlet(np.ones(12)).reshape(3, 4)
        ind_i = np.array([1.0, 0.0, 1.0])
        ind_j = np.array([0.0, 1.0, 1.0, 0.0])
        ans = pair_answers_from_matrix(matrix, ind_i, ind_j)
        total = ans.pp + ans.pn + ans.np_ + ans.nn
        assert total == pytest.approx(1.0)
        expected_pp = ind_i @ matrix @ ind_j
        assert ans.pp == pytest.approx(expected_pp)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            pair_answers_from_matrix(np.ones((2, 2)), np.ones(3),
                                     np.ones(2))

    def test_negative_roundoff_clipped(self):
        matrix = np.array([[0.5, 0.5], [0.0, 0.0]])
        ans = pair_answers_from_matrix(matrix, np.array([1.0, 0.0]),
                                       np.array([1.0, 0.0]))
        assert ans.nn >= 0.0 and ans.pn >= 0.0


class TestEstimateLambdaQuery:
    def test_independent_predicates_give_product(self):
        # If the pairwise tables describe independent events with
        # P = 0.5, 0.4, 0.3, the λ-D answer is their product.
        probs = [0.5, 0.4, 0.3]
        joint = np.zeros((2, 2, 2))
        for bits in itertools.product((0, 1), repeat=3):
            mass = 1.0
            for t, b in enumerate(bits):
                mass *= probs[t] if b else 1 - probs[t]
            joint[bits] = mass
        answers = _pairs_from_joint(joint)
        estimate = estimate_lambda_query(answers, 3, tolerance=1e-9)
        assert estimate == pytest.approx(0.5 * 0.4 * 0.3, abs=1e-4)

    def test_recovers_consistent_correlated_joint(self):
        # A correlated joint: the algorithm converges to the max-entropy
        # distribution matching all pairwise margins; for lambda=3 with a
        # joint built from pairwise interactions it recovers it closely.
        rng = np.random.default_rng(1)
        joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        answers = _pairs_from_joint(joint)
        estimate = estimate_lambda_query(answers, 3, tolerance=1e-9,
                                         max_iters=2000)
        # Pairwise info does not identify the 3-way joint exactly, but
        # the estimate must stay within the Frechet bounds implied by the
        # pairwise answers.
        upper = min(answers[(0, 1)].pp, answers[(0, 2)].pp,
                    answers[(1, 2)].pp)
        assert 0.0 <= estimate <= upper + 1e-6

    def test_lambda_two_matches_pair_answer(self):
        answers = {(0, 1): PairAnswers(pp=0.2, pn=0.3, np_=0.1, nn=0.4)}
        estimate = estimate_lambda_query(answers, 2, tolerance=1e-9)
        assert estimate == pytest.approx(0.2, abs=1e-6)

    def test_high_dimension_runs(self):
        # lambda = 8: 256-entry z vector, 28 pairs.
        probs = [0.5] * 8
        answers = {}
        for i, j in itertools.combinations(range(8), 2):
            answers[(i, j)] = PairAnswers(pp=0.25, pn=0.25, np_=0.25,
                                          nn=0.25)
        estimate = estimate_lambda_query(answers, 8, tolerance=1e-9)
        assert estimate == pytest.approx(0.5 ** 8, abs=1e-4)

    def test_zero_pair_answer_forces_zero(self):
        answers = _pairs_from_joint(np.zeros((2, 2, 2)))
        # Degenerate all-zero tables: answer must be 0, not NaN.
        answers = {k: PairAnswers(pp=0.0, pn=0.0, np_=0.5, nn=0.5)
                   for k in answers}
        estimate = estimate_lambda_query(answers, 3, tolerance=1e-9)
        assert estimate == pytest.approx(0.0, abs=1e-6)

    def test_missing_pair_rejected(self):
        answers = {(0, 1): PairAnswers(0.25, 0.25, 0.25, 0.25)}
        with pytest.raises(EstimationError):
            estimate_lambda_query(answers, 3, tolerance=1e-6)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(EstimationError):
            estimate_lambda_query({}, 1, tolerance=1e-6)

    def test_invalid_tolerance_rejected(self):
        answers = {(0, 1): PairAnswers(0.25, 0.25, 0.25, 0.25)}
        for tolerance in (-1e-6, float("nan")):
            with pytest.raises(EstimationError):
                estimate_lambda_query(answers, 2, tolerance=tolerance)
