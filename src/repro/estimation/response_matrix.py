"""Algorithm 3: building the response matrix via weighted update.

For an attribute pair ``(a_i, a_j)`` the response matrix ``M`` has one entry
per 2-D *value* ``(x, y)`` — finer than any grid. It is fit by iterative
proportional scaling: repeatedly, for every cell ``c`` of every related grid
(Γ = the pair's 2-D grid plus the attributes' 1-D grids when they exist),
rescale the entries in ``c``'s subdomain so their total matches the cell's
estimated mass ``f_c``.

Stopping
--------
The paper stops once a sweep's change falls below ``1/n``. Read as the L1
constraint residual, that test never fires on real data: the targets are
noisy grid estimates that disagree with each other, so the residual has a
positive floor. The fit therefore stops on *iterate movement* — the L1
norm of the net change one sweep makes to ``M`` — once it falls below a
tolerance τ. Callers derive τ from the variance model
(:func:`stop_tolerance`: a tenth of the smallest predicted per-cell
standard error), so the stopping sweep moved no answer by more than a
tenth of a cell's noise. The residual is still reported
(:attr:`IPFDiagnostics.residual`) as an inconsistency diagnostic, and a
hard iteration cap remains the backstop.

When both attributes are categorical the pair's 2-D grid already has one
cell per value, so ``M`` is just its matrix (the paper's special case).

Vectorized sweep
----------------
The cells of one related grid *partition* the ``d_i x d_j`` matrix into
disjoint axis-aligned rectangles (a 2-D grid tiles both axes; a 1-D grid
tiles one axis and spans the other). Because the rectangles never overlap,
applying the grid's constraints one by one touches disjoint blocks — so the
whole grid can be applied as ONE fused update: per-cell block sums, a
per-cell scale factor, and one multiply by the scales.

A whole sweep — every related grid's update in turn, then each atom's
|change| and their sum — is one call of the kernel
:func:`repro.fo.kernels.ipf_sweep`. Its numpy tier (the reference, and
the ``REPRO_NO_JIT=1`` path) takes the block sums with ``np.add.reduceat``
along each axis and expands the scales with ``np.repeat``; its C tier
runs the same arithmetic in one pass per grid, in numpy's summation
order, so both tiers give the same bits. The stop rule, the residual
(from the last sweep's block sums) and the prior-reshape correction below
stay here.

The sweep runs on *atoms*, not values. The union of every related grid's
row edges, and that of their column edges, cut the matrix into atoms:
blocks that each lie inside exactly one cell of every grid (152 x 152 atoms
for a 256 x 256 pair of a 4 M-user OHG fit at ε = 4). Every update scales
all values of an atom by one factor, so inside an atom the matrix keeps the
shape it started with, and the fit keeps one mass per atom: the same
sweeps, stop rule, residual and refill, on the atom masses, then one
expansion to ``d_i x d_j``. Each value gets its atom's mass divided by the
atom's area (the uniform start), or under a prior the prior's share of its
atom's mass. That equals the value-level fit up to rounding, and so does
the movement: inside an atom the per-value changes share one sign, so they
add up to the change of the atom's mass.

The zero-mass refill is the one update that changes a shape: it spreads a
cell's target over the cell's values uniformly, which is over its atoms by
area, so a refilled atom stays uniform from then on (one boolean per atom;
without a prior every atom is uniform from the start). Hence the one edge
case: in the sweep in which a refill first turns a prior-shaped atom
uniform, its values move by more than its mass does, so that sweep counts
those atoms' movement value by value (prior-shaped before, uniform after).

The sequential constraint-by-constraint loop on the values stays with the
tests as the reference: the fit must match it within 1e-12 and stop on the
same sweep, refills and priors included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceWarning, EstimationError
from repro.fo import kernels as fo_kernels
from repro.fo.kernels.numpy_impl import block_sums
from repro.grids.grid import Grid1D, Grid2D, GridEstimate

#: κ: Algorithms 3 and 4 stop once a sweep moves their iterate by less
#: than κ·σ_min (see :func:`stop_tolerance`).
STOP_KAPPA = 0.1


def stop_tolerance(cell_variances: Iterable[float]) -> float:
    """The IPF stop tolerance τ = κ·σ_min for a set of fitted grids.

    ``cell_variances`` are the per-cell estimation variances the registry
    variance model predicts for the grids (one per grid); σ_min is the
    square root of the smallest. A sweep that moves the iterate by less
    than τ (L1) moves no answer by more than a tenth of the standard error
    of the least noisy cell.
    """
    variances = list(cell_variances)
    if not variances:
        raise EstimationError("need at least one cell variance")
    return STOP_KAPPA * math.sqrt(min(variances))


@dataclass(frozen=True)
class IPFDiagnostics:
    """Convergence accounting of one iterative-proportional-fit run.

    ``sweeps`` counts full passes executed (including the stopping one).
    ``final_change`` is the last sweep's movement: the L1 norm of the net
    change it made to the iterate. ``converged`` is True when that fell
    below ``threshold`` (the tolerance τ) before the ``max_iters`` cap.
    ``residual`` is the last sweep's L1 constraint residual (``|target −
    total|`` summed over the constraints it applied): it measures how much
    the targets disagree and stays above zero when they do, so it is
    reported, never tested.
    """

    sweeps: int
    converged: bool
    final_change: float
    threshold: float
    residual: float

    def as_dict(self) -> dict:
        return {
            "sweeps": self.sweeps,
            "converged": self.converged,
            "final_change": self.final_change,
            "threshold": self.threshold,
            "residual": self.residual,
        }


def _warn_non_convergence(what: str, diag: IPFDiagnostics) -> None:
    if not diag.converged:
        warnings.warn(
            f"{what} still moved by {diag.final_change:.3e} (tolerance "
            f"{diag.threshold:.3e}) after {diag.sweeps} sweeps; consider "
            f"raising max_iters",
            ConvergenceWarning, stacklevel=3)


def _residual(targets: np.ndarray, sums: np.ndarray) -> float:
    """One grid's share of a sweep's residual, given the block sums its
    update started from: ``sum |target - total|`` over positive-mass
    cells plus the target mass poured into refilled zero-mass cells —
    identical to the sequential reference because the cells are
    disjoint."""
    pos = sums > 0.0
    refill = (~pos) & (targets > 0.0)
    return float(np.abs(targets - sums)[pos].sum() + targets[refill].sum())


def _oriented_cells(estimate: GridEstimate, attr_i: int, attr_j: int,
                    di: int, dj: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One related grid's cells on the ``(i, j)`` matrix: its row edges,
    column edges and target masses shaped (row cells, column cells)."""
    grid = estimate.grid
    full_rows = np.array([0, di], dtype=np.int64)
    full_cols = np.array([0, dj], dtype=np.int64)
    if isinstance(grid, Grid1D):
        edges = grid.binning.edges
        freqs = estimate.frequencies
        if grid.attr_index == attr_i:
            return edges, full_cols, freqs[:, None]
        if grid.attr_index == attr_j:
            return full_rows, edges, freqs[None, :]
        raise EstimationError(
            f"1-D grid over attribute {grid.attr_index} unrelated "
            f"to pair ({attr_i}, {attr_j})"
        )
    if not isinstance(grid, Grid2D):
        raise EstimationError(f"unsupported grid type {type(grid).__name__}")
    if grid.attr_index_x == attr_i and grid.attr_index_y == attr_j:
        return grid.binning_x.edges, grid.binning_y.edges, estimate.matrix()
    if grid.attr_index_x == attr_j and grid.attr_index_y == attr_i:
        return (grid.binning_y.edges, grid.binning_x.edges,
                estimate.matrix().T)
    raise EstimationError(
        f"2-D grid over {grid.key} unrelated to pair "
        f"({attr_i}, {attr_j})"
    )


def _validate_tolerance(tolerance: float) -> None:
    if not tolerance >= 0.0:  # also rejects NaN
        raise EstimationError(f"tolerance must be >= 0, got {tolerance}")


def _validate_fit_inputs(related: Sequence[GridEstimate], di: int, dj: int,
                         tolerance: float, prior: Optional[np.ndarray]
                         ) -> Optional[np.ndarray]:
    if not related:
        raise EstimationError("need at least one related grid estimate")
    _validate_tolerance(tolerance)
    if prior is not None:
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != (di, dj):
            raise EstimationError(
                f"prior shape {prior.shape} != domain shape ({di}, {dj})")
        with np.errstate(over="ignore"):  # an overflowing sum is refused
            total = prior.sum()
        if not (np.isfinite(prior).all() and (prior >= 0).all()
                and 0.0 < total < np.inf):
            raise EstimationError(
                "prior must be finite and non-negative with a positive, "
                "finite total mass")
    return prior


def _prior_start(prior: np.ndarray, di: int, dj: int) -> np.ndarray:
    """The value-level start a prior gives the fit."""
    # Keep a tiny uniform floor so cells the prior zeroes out can
    # still absorb mass the collected grids put there.
    return (prior / prior.sum()) * (1.0 - 1e-6) + 1e-6 / (di * dj)


def _trivial_fast_path(related: Sequence[GridEstimate], attr_i: int,
                       attr_j: int) -> Optional[np.ndarray]:
    """The 2-D grid has one cell per value: ``M`` is just its matrix."""
    if len(related) != 1:
        return None
    grid = related[0].grid
    if (isinstance(grid, Grid2D) and grid.binning_x.is_trivial
            and grid.binning_y.is_trivial):
        matrix = related[0].matrix()
        if grid.attr_index_x == attr_i:
            return matrix.copy()
        return matrix.T.copy()
    return None


def _refine(edge_sets: Sequence[np.ndarray], d: int
            ) -> Tuple[np.ndarray, np.ndarray]:
    """The common refinement of some cell edges over ``0..d``: the atom
    edges (their union), and each value edge's atom index."""
    is_edge = np.zeros(d + 1, dtype=bool)
    for edges in edge_sets:
        is_edge[edges] = True
    return np.flatnonzero(is_edge), np.cumsum(is_edge) - 1


def _to_values(atoms: np.ndarray, row_widths: np.ndarray,
               col_widths: np.ndarray) -> np.ndarray:
    """Repeat a per-atom array out to the ``d_i x d_j`` values."""
    return np.repeat(np.repeat(atoms, row_widths, axis=0), col_widths,
                     axis=1)


def fit_response_matrix(related: Sequence[GridEstimate], attr_i: int,
                        attr_j: int, di: int, dj: int, tolerance: float,
                        max_iters: int = 100,
                        prior: np.ndarray = None
                        ) -> Tuple[np.ndarray, IPFDiagnostics]:
    """Fit the ``d_i x d_j`` response matrix ``M(i, j)`` (vectorized).

    Parameters
    ----------
    related:
        Γ — the pair's 2-D grid estimate plus any 1-D grid estimates of the
        two attributes (order irrelevant).
    attr_i, attr_j:
        Schema indices of the pair (``M``'s rows are ``a_i`` values).
    di, dj:
        The attributes' domain sizes.
    tolerance:
        τ ≥ 0: the fit stops after the first sweep whose movement (L1 norm
        of the net change to ``M``) is below τ — see :func:`stop_tolerance`.
        ``0`` runs to ``max_iters``.
    max_iters:
        Backstop on the number of full sweeps.
    prior:
        Optional public-knowledge joint distribution seeding the iteration
        in place of the uniform start. The fit still matches every grid
        constraint; the prior only shapes mass *within* cells (where the
        collected data carries no signal).

    Returns
    -------
    The fitted matrix plus the sweep's :class:`IPFDiagnostics`. A
    :class:`~repro.errors.ConvergenceWarning` is emitted when the matrix
    still moves by τ or more at ``max_iters``.

    The sweeps run on the masses of the atoms the grids' edges cut the
    matrix into (see the module docstring); the matrix is expanded once.
    """
    prior = _validate_fit_inputs(related, di, dj, tolerance, prior)

    fast = _trivial_fast_path(related, attr_i, attr_j)
    if fast is not None:
        return fast, IPFDiagnostics(sweeps=0, converged=True,
                                    final_change=0.0, threshold=tolerance,
                                    residual=0.0)

    cells = [_oriented_cells(estimate, attr_i, attr_j, di, dj)
             for estimate in related]
    atom_rows, row_index = _refine([rows for rows, _, _ in cells], di)
    atom_cols, col_index = _refine([cols for _, cols, _ in cells], dj)
    # The sweep kernel's grid layout: each grid's (row, column) cell
    # counts, its atom edges and its row-major targets; ``bounds`` slices
    # one grid's targets and block sums out for the residual.
    shape = np.array([(len(rows) - 1, len(cols) - 1)
                      for rows, cols, _ in cells], dtype=np.int64)
    edges = np.concatenate([grid_edges for rows, cols, _ in cells
                            for grid_edges in (row_index[rows],
                                               col_index[cols])])
    targets = np.concatenate([np.ravel(cell_targets)
                              for _, _, cell_targets in cells]
                             ).astype(np.float64)
    sums = np.empty_like(targets)
    bounds = np.cumsum([0, *(shape[:, 0] * shape[:, 1])])
    row_widths = atom_rows[1:] - atom_rows[:-1]
    col_widths = atom_cols[1:] - atom_cols[:-1]
    # values per atom
    areas = row_widths[:, None] * col_widths.astype(np.float64)
    if prior is None:
        start = uniform = None
        mass = areas / (di * dj)
    else:
        start = _prior_start(prior, di, dj)
        start_mass = block_sums(start, atom_rows, atom_cols)
        mass = start_mass.copy()
        uniform = np.zeros(mass.shape, dtype=bool)
    moved = np.empty_like(mass)
    movement = residual = float("inf")
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        if uniform is not None:
            before, was_uniform = mass.copy(), uniform.copy()
        movement = fo_kernels.ipf_sweep(mass, areas, uniform, edges, shape,
                                        targets, sums, moved)
        if uniform is not None and (uniform != was_uniform).any():
            # Prior-shaped at the sweep's start, uniform at its end: these
            # atoms' values moved by more than their mass did.
            reshaped = uniform & ~was_uniform
            value_moves = block_sums(np.abs(
                _to_values(mass / areas, row_widths, col_widths)
                - start * _to_values(before / start_mass, row_widths,
                                     col_widths)), atom_rows, atom_cols)
            moved[reshaped] = value_moves[reshaped]
            movement = float(moved.sum())
        if movement < tolerance:
            break
    if sweeps:
        residual = sum(_residual(targets[lo:hi], sums[lo:hi])
                       for lo, hi in zip(bounds[:-1], bounds[1:]))
    diag = IPFDiagnostics(sweeps=sweeps, converged=movement < tolerance,
                          final_change=movement, threshold=tolerance,
                          residual=residual)
    _warn_non_convergence(
        f"response matrix for pair ({attr_i}, {attr_j})", diag)

    if start is None:
        return _to_values(mass / areas, row_widths, col_widths), diag
    # The start is spent: scale it in place to the prior-shaped values.
    start *= _to_values(mass / start_mass, row_widths, col_widths)
    if uniform.any():
        np.copyto(start, _to_values(mass / areas, row_widths, col_widths),
                  where=_to_values(uniform, row_widths, col_widths))
    return start, diag


def build_response_matrix(related: Sequence[GridEstimate], attr_i: int,
                          attr_j: int, di: int, dj: int, tolerance: float,
                          max_iters: int = 100,
                          prior: np.ndarray = None) -> np.ndarray:
    """Matrix-only convenience over :func:`fit_response_matrix`."""
    matrix, _ = fit_response_matrix(related, attr_i, attr_j, di, dj,
                                    tolerance, max_iters=max_iters,
                                    prior=prior)
    return matrix
