"""Sequential reference implementations of Algorithms 3 and 4.

Oracles for the property tests: the fused sweeps in
:mod:`repro.estimation` apply a whole grid (Algorithm 3, on the masses of
the atoms its grids' edges cut the matrix into) or a whole pair
(Algorithm 4) at once, these loops apply one constraint at a time to
every value. Both stop on the same rule — the first sweep whose movement
(L1 norm of the net change to the iterate) is below ``tolerance`` — so
the tests can require equal results *and* equal sweep counts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation import PairAnswers
from repro.estimation.lambda_query import _validate_pair_answers
from repro.estimation.response_matrix import (
    _prior_start,
    _trivial_fast_path,
    _validate_fit_inputs,
)
from repro.grids.grid import Grid1D, Grid2D, GridEstimate

#: (row_lo, row_hi_excl, col_lo, col_hi_excl, target_mass)
_Constraint = Tuple[int, int, int, int, float]


def _constraints_for(estimate: GridEstimate, attr_i: int, attr_j: int,
                     di: int, dj: int) -> List[_Constraint]:
    """Rectangle constraints that ``estimate`` imposes on the (i, j) matrix."""
    grid = estimate.grid
    constraints: List[_Constraint] = []
    if isinstance(grid, Grid1D):
        binning = grid.binning
        for cell in range(binning.num_cells):
            lo, hi = binning.bounds(cell)
            mass = float(estimate.frequencies[cell])
            if grid.attr_index == attr_i:
                constraints.append((lo, hi + 1, 0, dj, mass))
            elif grid.attr_index == attr_j:
                constraints.append((0, di, lo, hi + 1, mass))
            else:
                raise EstimationError(
                    f"1-D grid over attribute {grid.attr_index} unrelated "
                    f"to pair ({attr_i}, {attr_j})"
                )
        return constraints

    if not isinstance(grid, Grid2D):
        raise EstimationError(f"unsupported grid type {type(grid).__name__}")
    if grid.attr_index_x == attr_i and grid.attr_index_y == attr_j:
        bx, by, transpose = grid.binning_x, grid.binning_y, False
    elif grid.attr_index_x == attr_j and grid.attr_index_y == attr_i:
        bx, by, transpose = grid.binning_x, grid.binning_y, True
    else:
        raise EstimationError(
            f"2-D grid over {grid.key} unrelated to pair "
            f"({attr_i}, {attr_j})"
        )
    matrix = estimate.matrix()
    for cx in range(bx.num_cells):
        x_lo, x_hi = bx.bounds(cx)
        for cy in range(by.num_cells):
            y_lo, y_hi = by.bounds(cy)
            mass = float(matrix[cx, cy])
            if transpose:
                constraints.append((y_lo, y_hi + 1, x_lo, x_hi + 1, mass))
            else:
                constraints.append((x_lo, x_hi + 1, y_lo, y_hi + 1, mass))
    return constraints


def build_response_matrix_reference(related: Sequence[GridEstimate],
                                    attr_i: int, attr_j: int, di: int,
                                    dj: int, tolerance: float,
                                    max_iters: int = 100,
                                    prior: np.ndarray = None
                                    ) -> Tuple[np.ndarray, int]:
    """Constraint-by-constraint Algorithm 3; returns ``(matrix, sweeps)``."""
    prior = _validate_fit_inputs(related, di, dj, tolerance, prior)
    fast = _trivial_fast_path(related, attr_i, attr_j)
    if fast is not None:
        return fast, 0

    constraints: List[_Constraint] = []
    for estimate in related:
        constraints.extend(
            _constraints_for(estimate, attr_i, attr_j, di, dj))

    m = (np.full((di, dj), 1.0 / (di * dj)) if prior is None
         else _prior_start(prior, di, dj))
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        before = m.copy()
        for row_lo, row_hi, col_lo, col_hi, target in constraints:
            block = m[row_lo:row_hi, col_lo:col_hi]
            total = block.sum()
            if total <= 0.0:
                if target > 0.0:
                    block[:] = target / block.size
                continue
            block *= target / total
        if np.abs(m - before).sum() < tolerance:
            break
    return m, sweeps


def estimate_lambda_query_reference(
        pair_answers: Dict[Tuple[int, int], PairAnswers],
        dimension: int, tolerance: float, max_iters: int = 500
) -> Tuple[float, int]:
    """Per-member-list Algorithm 4; returns ``(estimate, sweeps)``."""
    _validate_pair_answers(pair_answers, dimension, tolerance)

    size = 1 << dimension
    z = np.full(size, 1.0 / size)
    masks = np.arange(size)
    # Per pair and sign combination, the member index arrays.
    updates = []
    for (i, j), answers in pair_answers.items():
        table = answers.as_table()
        bit_i = (masks >> i) & 1
        bit_j = (masks >> j) & 1
        for si in (0, 1):
            for sj in (0, 1):
                members = np.flatnonzero((bit_i == si) & (bit_j == sj))
                updates.append((members, float(table[si, sj])))

    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        before = z.copy()
        for members, target in updates:
            block = z[members]
            total = block.sum()
            if total <= 0.0:
                if target > 0.0:
                    z[members] = target / len(members)
                continue
            z[members] = block * (target / total)
        if np.abs(z - before).sum() < tolerance:
            break
    return float(z[size - 1]), sweeps
