"""Tests for Algorithm 3 (response matrix via weighted update)."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import build_response_matrix
from repro.grids import Binning, Grid1D, Grid2D, GridEstimate
from repro.schema.attribute import categorical, numerical


def _grid2d(attrs, ij, cells, freqs):
    i, j = ij
    grid = Grid2D(i, j, attrs[0], attrs[1],
                  Binning(attrs[0].domain_size, cells[0]),
                  Binning(attrs[1].domain_size, cells[1]))
    return GridEstimate(grid=grid, frequencies=np.asarray(freqs, float))


def _grid1d(attr_index, attr, cells, freqs):
    grid = Grid1D(attr_index, attr, Binning(attr.domain_size, cells))
    return GridEstimate(grid=grid, frequencies=np.asarray(freqs, float))


class TestCatCatFastPath:
    def test_matrix_is_grid_itself(self):
        a, b = categorical("a", 2), categorical("b", 3)
        freqs = np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
        est = _grid2d((a, b), (0, 1), (2, 3), freqs)
        m = build_response_matrix([est], 0, 1, 2, 3, tolerance=1e-9)
        np.testing.assert_allclose(m, freqs.reshape(2, 3))

    def test_transposed_orientation(self):
        a, b = categorical("a", 2), categorical("b", 3)
        freqs = np.arange(6, dtype=float) / 15
        # Grid stored with attributes (1, 0): matrix must come back
        # transposed into (0, 1) orientation.
        est = _grid2d((b, a), (1, 0), (3, 2), freqs)
        m = build_response_matrix([est], 0, 1, 2, 3, tolerance=1e-9)
        np.testing.assert_allclose(m, freqs.reshape(3, 2).T)


class TestIterativeFit:
    def test_matrix_matches_grid_cell_masses(self):
        x, y = numerical("x", 8), numerical("y", 8)
        rng = np.random.default_rng(0)
        cell_freqs = rng.dirichlet(np.ones(16))
        est = _grid2d((x, y), (0, 1), (4, 4), cell_freqs)
        m = build_response_matrix([est], 0, 1, 8, 8, tolerance=1e-9)
        # Every grid cell's rectangle mass in M must match its frequency.
        matrix = est.matrix()
        for cx in range(4):
            x_lo, x_hi = est.grid.binning_x.bounds(cx)
            for cy in range(4):
                y_lo, y_hi = est.grid.binning_y.bounds(cy)
                block = m[x_lo:x_hi + 1, y_lo:y_hi + 1].sum()
                assert block == pytest.approx(matrix[cx, cy], abs=1e-4)

    def test_uniform_within_cells_without_1d_grids(self):
        x, y = numerical("x", 4), numerical("y", 4)
        est = _grid2d((x, y), (0, 1), (2, 2),
                      [0.4, 0.1, 0.2, 0.3])
        m = build_response_matrix([est], 0, 1, 4, 4, tolerance=1e-9)
        # Within the top-left 2x2 cell, mass is spread uniformly.
        block = m[:2, :2]
        np.testing.assert_allclose(block, 0.1 * np.ones((2, 2)),
                                   atol=1e-6)

    def test_1d_grids_refine_within_cells(self):
        x, y = numerical("x", 4), numerical("y", 4)
        pair = _grid2d((x, y), (0, 1), (2, 2),
                       [0.25, 0.25, 0.25, 0.25])
        # The 1-D grid of x is finer and says all x-mass is at codes 0, 2:
        # the matrix must concentrate rows 0 and 2.
        fine_x = _grid1d(0, x, 4, [0.5, 0.0, 0.5, 0.0])
        m = build_response_matrix([pair, fine_x], 0, 1, 4, 4,
                                  tolerance=1e-9)
        np.testing.assert_allclose(m.sum(axis=1),
                                   [0.5, 0.0, 0.5, 0.0], atol=1e-3)
        # And the 2-D cell masses still hold.
        assert m[:2, :2].sum() == pytest.approx(0.25, abs=1e-3)

    def test_total_mass_is_one(self):
        x, y = numerical("x", 10), numerical("y", 6)
        rng = np.random.default_rng(1)
        pair = _grid2d((x, y), (0, 1), (5, 3),
                       rng.dirichlet(np.ones(15)))
        gx = _grid1d(0, x, 4, rng.dirichlet(np.ones(4)))
        gy = _grid1d(1, y, 3, rng.dirichlet(np.ones(3)))
        m = build_response_matrix([pair, gx, gy], 0, 1, 10, 6,
                                  tolerance=1e-9)
        assert m.sum() == pytest.approx(1.0, abs=1e-3)
        assert (m >= -1e-12).all()

    def test_mixed_cat_num_pair(self):
        c = categorical("c", 3)
        y = numerical("y", 9)
        rng = np.random.default_rng(2)
        pair = _grid2d((c, y), (0, 1), (3, 3), rng.dirichlet(np.ones(9)))
        gy = _grid1d(1, y, 9, rng.dirichlet(np.ones(9)))
        m = build_response_matrix([pair, gy], 0, 1, 3, 9, tolerance=1e-9)
        np.testing.assert_allclose(m.sum(axis=0), gy.frequencies,
                                   atol=1e-3)

    def test_zero_mass_cell_with_positive_target_recovers(self):
        x, y = numerical("x", 4), numerical("y", 4)
        # A first constraint zeroes out a block; a conflicting later
        # constraint must be able to repopulate it.
        pair = _grid2d((x, y), (0, 1), (2, 2), [0.0, 0.0, 0.5, 0.5])
        gx = _grid1d(0, x, 2, [0.5, 0.5])
        m = build_response_matrix([pair, gx], 0, 1, 4, 4, tolerance=1e-9,
                                  max_iters=200)
        assert np.isfinite(m).all()


class TestValidation:
    def test_empty_related_rejected(self):
        with pytest.raises(EstimationError):
            build_response_matrix([], 0, 1, 4, 4, tolerance=1e-9)

    def test_unrelated_grid_rejected(self):
        x, y, z = (numerical(n, 4) for n in "xyz")
        other = _grid1d(2, z, 4, [0.25] * 4)
        pair = _grid2d((x, y), (0, 1), (2, 2), [0.25] * 4)
        with pytest.raises(EstimationError):
            build_response_matrix([pair, other], 0, 1, 4, 4,
                                  tolerance=1e-9)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, np.finfo(float).max])
    def test_non_finite_prior_rejected(self, bad):
        """NaN or inf entries, or finite ones whose total overflows."""
        x, y = numerical("x", 4), numerical("y", 4)
        pair = _grid2d((x, y), (0, 1), (2, 2), [0.25] * 4)
        prior = np.ones((4, 4))
        prior[1:3, 2] = bad
        with pytest.raises(EstimationError):
            build_response_matrix([pair], 0, 1, 4, 4, tolerance=1e-9,
                                  prior=prior)

    def test_invalid_tolerance(self):
        x, y = numerical("x", 4), numerical("y", 4)
        pair = _grid2d((x, y), (0, 1), (2, 2), [0.25] * 4)
        for tolerance in (-1e-6, float("nan")):
            with pytest.raises(EstimationError):
                build_response_matrix([pair], 0, 1, 4, 4,
                                      tolerance=tolerance)
