"""Property-based tests on the estimation algorithms (hypothesis).

Pins the invariants Algorithms 3 and 4 must satisfy for *any* valid
input: response matrices reproduce their grid constraints, stay
non-negative, and conserve mass; λ-D estimates respect the Fréchet bounds
implied by their pairwise answers; the fused kernels agree with the
sequential references in ``tests/ipf_reference.py`` on both the result
and the sweep at which they stop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation import (
    PairAnswers,
    build_response_matrix,
    canonical_pairs,
    estimate_lambda_query,
    fit_lambda_queries,
    fit_lambda_query,
    fit_response_matrix,
)
from repro.grids import Binning, Grid2D, GridEstimate
from repro.grids.grid import Grid1D
from repro.schema.attribute import numerical

from tests.ipf_reference import (
    build_response_matrix_reference,
    estimate_lambda_query_reference,
)


def _random_grid_estimate(di, dj, lx, ly, frequencies, transposed=False):
    """A 2-D grid over the pair (0, 1); ``transposed`` stores it as (1, 0)
    with ``frequencies`` laid out ``(ly, lx)``."""
    x, y = numerical("x", di), numerical("y", dj)
    if transposed:
        grid = Grid2D(1, 0, y, x, Binning(dj, ly), Binning(di, lx))
    else:
        grid = Grid2D(0, 1, x, y, Binning(di, lx), Binning(dj, ly))
    return GridEstimate(grid=grid, frequencies=np.asarray(frequencies))


def _random_targets(rng, size, with_zeros):
    """Dirichlet cell masses; ``with_zeros`` zeroes about a third of the
    cells exactly (keeping one positive), which makes the fit refill."""
    freqs = rng.dirichlet(np.ones(size))
    if with_zeros:
        zero = rng.random(size) < 0.35
        zero[rng.integers(size)] = False
        freqs[zero] = 0.0
        freqs /= freqs.sum()
    return freqs


def _random_1d_estimate(rng, attr_index, domain, with_zeros):
    """A 1-D grid with random (irregular) cell edges over ``domain``."""
    cells = int(rng.integers(1, domain + 1))
    inner = np.sort(rng.choice(np.arange(1, domain), cells - 1,
                               replace=False))
    binning = Binning.from_edges(np.concatenate(([0], inner, [domain])))
    grid = Grid1D(attr_index, numerical(f"a{attr_index}", domain), binning)
    return GridEstimate(grid=grid, frequencies=_random_targets(
        rng, cells, with_zeros))


grid_shapes = st.tuples(st.integers(2, 16), st.integers(2, 16)).flatmap(
    lambda dd: st.tuples(st.just(dd[0]), st.just(dd[1]),
                         st.integers(1, dd[0]), st.integers(1, dd[1])))


class TestResponseMatrixProperties:
    @given(grid_shapes, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_matrix_reproduces_cell_masses(self, shape, random):
        di, dj, lx, ly = shape
        rng = np.random.default_rng(random.randint(0, 2**31))
        freqs = rng.dirichlet(np.ones(lx * ly))
        est = _random_grid_estimate(di, dj, lx, ly, freqs)
        m = build_response_matrix([est], 0, 1, di, dj, tolerance=1e-9,
                                  max_iters=300)
        matrix = est.matrix()
        for cx in range(lx):
            x_lo, x_hi = est.grid.binning_x.bounds(cx)
            for cy in range(ly):
                y_lo, y_hi = est.grid.binning_y.bounds(cy)
                block = m[x_lo:x_hi + 1, y_lo:y_hi + 1].sum()
                assert block == pytest.approx(matrix[cx, cy], abs=1e-4)

    @given(grid_shapes, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_matrix_non_negative_and_mass_one(self, shape, random):
        di, dj, lx, ly = shape
        rng = np.random.default_rng(random.randint(0, 2**31))
        freqs = rng.dirichlet(np.ones(lx * ly))
        est = _random_grid_estimate(di, dj, lx, ly, freqs)
        m = build_response_matrix([est], 0, 1, di, dj, tolerance=1e-6)
        assert (m >= -1e-12).all()
        assert m.sum() == pytest.approx(1.0, abs=1e-6)


def _pair_answers_from_probs(rng, dimension):
    """Exact pairwise tables of a random joint over {0,1}^dimension."""
    joint = rng.dirichlet(np.ones(2 ** dimension)).reshape(
        (2,) * dimension)
    answers = {}
    for i in range(dimension):
        for j in range(i + 1, dimension):
            axes = tuple(t for t in range(dimension) if t not in (i, j))
            table = joint.sum(axis=axes)
            answers[(i, j)] = PairAnswers(pp=float(table[1, 1]),
                                          pn=float(table[1, 0]),
                                          np_=float(table[0, 1]),
                                          nn=float(table[0, 0]))
    return answers


class TestLambdaQueryProperties:
    @given(st.integers(3, 6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_estimate_within_frechet_bounds(self, dimension, random):
        rng = np.random.default_rng(random.randint(0, 2**31))
        answers = _pair_answers_from_probs(rng, dimension)
        estimate = estimate_lambda_query(answers, dimension,
                                         tolerance=1e-6, max_iters=300)
        upper = min(a.pp for a in answers.values())
        assert -1e-9 <= estimate <= upper + 1e-6

    @given(st.integers(2, 5), st.floats(0.05, 0.95),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_independent_pairs_give_product(self, dimension, prob,
                                            random):
        answers = {}
        for i in range(dimension):
            for j in range(i + 1, dimension):
                answers[(i, j)] = PairAnswers(
                    pp=prob * prob, pn=prob * (1 - prob),
                    np_=(1 - prob) * prob, nn=(1 - prob) ** 2)
        estimate = estimate_lambda_query(answers, dimension,
                                         tolerance=1e-7, max_iters=500)
        assert estimate == pytest.approx(prob ** dimension, abs=5e-3)


class TestVectorizedMatchesReference:
    """The fused kernels must reproduce the reference loops.

    The vectorized Algorithm 3 sweep applies every constraint of one grid
    simultaneously, to the masses of the atoms the grids' edges cut the
    matrix into; the reference applies them one by one, to the values.
    The two are equal (not just close) because one grid's cells partition
    the matrix — no entry is touched twice within a grid — and every
    update scales all values of an atom by one factor, so only float
    round-off separates the paths. Same argument for the four sign blocks
    of one pair in Algorithm 4. Both stop on the same movement rule, so
    they must also stop at the same sweep.
    """

    @given(grid_shapes, st.sampled_from([(), (0,), (1,), (0, 1)]),
           st.booleans(), st.booleans(), st.booleans(),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore::repro.errors.ConvergenceWarning")
    def test_response_matrix_matches_reference(self, shape, one_d_axes,
                                               transposed, with_zeros,
                                               with_prior, random):
        """1-D grids on neither, either or both axes, the 2-D grid in
        either orientation, targets with exact zeros (so some fits refill
        zero-mass cells), with and without a prior, in a random order."""
        di, dj, lx, ly = shape
        rng = np.random.default_rng(random.randint(0, 2**31))
        related = [_random_grid_estimate(
            di, dj, lx, ly, _random_targets(rng, lx * ly, with_zeros),
            transposed)]
        for axis in one_d_axes:
            related.append(_random_1d_estimate(
                rng, axis, (di, dj)[axis], with_zeros))
        related = [related[k] for k in rng.permutation(len(related))]
        prior = (rng.dirichlet(np.ones(di * dj)).reshape(di, dj)
                 if with_prior else None)
        vectorized, diag = fit_response_matrix(
            related, 0, 1, di, dj, tolerance=1e-6, max_iters=60,
            prior=prior)
        reference, sweeps = build_response_matrix_reference(
            related, 0, 1, di, dj, tolerance=1e-6, max_iters=60,
            prior=prior)
        np.testing.assert_allclose(vectorized, reference, rtol=0,
                                   atol=1e-12)
        assert diag.sweeps == sweeps

    def test_refill_reshaping_a_prior_atom_counts_every_value(self):
        """The sweep in which a refill first makes a prior-shaped block
        uniform moves its values by more than its mass changes.

        The 1-D grid zeroes row 0 and the 2-D grid refills it uniformly
        with the mass it had, so row 0's mass never changes but its
        values do, once: the fit must take a second sweep, as the
        reference does.
        """
        x, y = numerical("x", 2), numerical("y", 2)
        prior = np.array([[0.1, 0.3], [0.2, 0.4]])
        zeroing = GridEstimate(grid=Grid1D(0, x, Binning(2, 2)),
                               frequencies=np.array([0.0, 1.0]))
        refilling = GridEstimate(
            grid=Grid2D(0, 1, x, y, Binning(2, 2), Binning(2, 1)),
            frequencies=np.array([0.4, 0.6]))
        related = [zeroing, refilling]
        matrix, diag = fit_response_matrix(related, 0, 1, 2, 2,
                                           tolerance=1e-3, prior=prior)
        reference, sweeps = build_response_matrix_reference(
            related, 0, 1, 2, 2, tolerance=1e-3, prior=prior)
        assert diag.sweeps == sweeps == 2
        np.testing.assert_allclose(matrix, reference, rtol=0, atol=1e-12)
        np.testing.assert_allclose(matrix[0], [0.2, 0.2], rtol=0,
                                   atol=1e-12)

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_lambda_estimate_matches_reference(self, dimension, random):
        rng = np.random.default_rng(random.randint(0, 2**31))
        answers = _pair_answers_from_probs(rng, dimension)
        vectorized, diag = fit_lambda_query(answers, dimension,
                                            tolerance=1e-6, max_iters=300)
        reference, sweeps = estimate_lambda_query_reference(
            answers, dimension, tolerance=1e-6, max_iters=300)
        assert abs(vectorized - reference) < 1e-12
        assert diag.sweeps == sweeps

    @given(st.integers(2, 5), st.integers(1, 6),
           st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_batched_lambda_matches_reference(self, dimension, batch,
                                              random):
        rng = np.random.default_rng(random.randint(0, 2**31))
        answer_sets = [_pair_answers_from_probs(rng, dimension)
                       for _ in range(batch)]
        pairs = canonical_pairs(dimension)
        tables = np.stack([
            np.stack([answers[p].as_table() for p in pairs])
            for answers in answer_sets])
        estimates, sweeps, converged = fit_lambda_queries(
            tables, dimension, tolerance=1e-6, max_iters=300)
        assert estimates.shape == sweeps.shape == converged.shape == (
            batch,)
        for q, answers in enumerate(answer_sets):
            reference, ref_sweeps = estimate_lambda_query_reference(
                answers, dimension, tolerance=1e-6, max_iters=300)
            assert abs(estimates[q] - reference) < 1e-12
            assert sweeps[q] == ref_sweeps
