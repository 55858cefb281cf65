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
whole grid can be applied as ONE fused update: per-cell block sums via
``np.add.reduceat`` along each axis, a per-cell scale factor, and a single
elementwise multiply through the grid's precomputed row/column cell-id maps.
That turns a sweep from O(cells) Python iterations into one fused multiply
per grid, with results identical to the sequential constraint-by-constraint
loop (the reference kept with the tests, property-tested against).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceWarning, EstimationError
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


class _GridPartition:
    """One related grid's constraints as a partition of the matrix.

    Precomputed once per fit: the ``reduceat`` offsets that produce the
    per-cell block sums, the flat row/column → cell-id maps that expand a
    per-cell scale array back over the matrix, and the target cell masses.
    """

    def __init__(self, row_edges: np.ndarray, col_edges: np.ndarray,
                 targets: np.ndarray):
        #: reduceat offsets along each axis (edges without the terminator)
        self.row_offsets = np.ascontiguousarray(row_edges[:-1])
        self.col_offsets = np.ascontiguousarray(col_edges[:-1])
        #: flat cell-id maps: row r of the matrix lies in x-cell row_cell[r]
        self.row_cell = np.repeat(np.arange(len(row_edges) - 1),
                                  np.diff(row_edges))
        self.col_cell = np.repeat(np.arange(len(col_edges) - 1),
                                  np.diff(col_edges))
        self.targets = np.asarray(targets, dtype=np.float64)
        widths_r = np.diff(row_edges)[:, None]
        widths_c = np.diff(col_edges)[None, :]
        #: per-cell block areas (for the zero-total repopulation rule)
        self.sizes = (widths_r * widths_c).astype(np.float64)

    @property
    def spans_all_rows(self) -> bool:
        return len(self.row_offsets) == 1

    @property
    def spans_all_cols(self) -> bool:
        return len(self.col_offsets) == 1

    def block_sums(self, m: np.ndarray) -> np.ndarray:
        """Per-cell block sums of ``m`` — one reduceat per axis."""
        sums = np.add.reduceat(m, self.row_offsets, axis=0)
        return np.add.reduceat(sums, self.col_offsets, axis=1)

    def expand(self, cells: np.ndarray) -> np.ndarray:
        """Gather a per-cell array out to the full matrix shape."""
        return cells[self.row_cell[:, None], self.col_cell]

    def apply(self, m: np.ndarray) -> float:
        """One fused weighted-update of this grid's constraints, in place.

        Returns the constraint set's contribution to the sweep residual
        (``sum |target - total|`` over positive-mass cells plus the target
        mass poured into repopulated zero-mass cells) — identical to the
        sequential reference because the cells are disjoint.
        """
        sums = self.block_sums(m)
        pos = sums > 0.0
        scale = np.divide(self.targets, sums, out=np.ones_like(sums),
                          where=pos)
        change = float(np.abs(self.targets - sums)[pos].sum())
        if self.spans_all_cols:
            m *= scale[self.row_cell, :]
        elif self.spans_all_rows:
            m *= scale[:, self.col_cell]
        else:
            m *= scale[self.row_cell[:, None], self.col_cell]
        refill = (~pos) & (self.targets > 0.0)
        if refill.any():
            change += float(self.targets[refill].sum())
            per_value = np.zeros_like(sums)
            per_value[refill] = self.targets[refill] / self.sizes[refill]
            mask = self.expand(refill)
            m[mask] = self.expand(per_value)[mask]
        return change


def _partition_for(estimate: GridEstimate, attr_i: int, attr_j: int,
                   di: int, dj: int) -> _GridPartition:
    """Build the fused-sweep partition of one related grid estimate."""
    grid = estimate.grid
    full_rows = np.array([0, di], dtype=np.int64)
    full_cols = np.array([0, dj], dtype=np.int64)
    if isinstance(grid, Grid1D):
        edges = grid.binning.edges
        freqs = estimate.frequencies
        if grid.attr_index == attr_i:
            return _GridPartition(edges, full_cols, freqs[:, None])
        if grid.attr_index == attr_j:
            return _GridPartition(full_rows, edges, freqs[None, :])
        raise EstimationError(
            f"1-D grid over attribute {grid.attr_index} unrelated "
            f"to pair ({attr_i}, {attr_j})"
        )
    if not isinstance(grid, Grid2D):
        raise EstimationError(f"unsupported grid type {type(grid).__name__}")
    if grid.attr_index_x == attr_i and grid.attr_index_y == attr_j:
        return _GridPartition(grid.binning_x.edges, grid.binning_y.edges,
                              estimate.matrix())
    if grid.attr_index_x == attr_j and grid.attr_index_y == attr_i:
        return _GridPartition(grid.binning_y.edges, grid.binning_x.edges,
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
        if (prior < 0).any() or prior.sum() <= 0:
            raise EstimationError(
                "prior must be non-negative with positive total mass")
    return prior


def _initial_matrix(di: int, dj: int,
                    prior: Optional[np.ndarray]) -> np.ndarray:
    if prior is None:
        return np.full((di, dj), 1.0 / (di * dj))
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
    """
    prior = _validate_fit_inputs(related, di, dj, tolerance, prior)

    fast = _trivial_fast_path(related, attr_i, attr_j)
    if fast is not None:
        return fast, IPFDiagnostics(sweeps=0, converged=True,
                                    final_change=0.0, threshold=tolerance,
                                    residual=0.0)

    partitions = [_partition_for(estimate, attr_i, attr_j, di, dj)
                  for estimate in related]
    m = _initial_matrix(di, dj, prior)
    before = np.empty_like(m)
    movement = residual = float("inf")
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        np.copyto(before, m)
        residual = 0.0
        for partition in partitions:
            residual += partition.apply(m)
        # before := |m - before|, in place: the sweep's net movement.
        movement = float(np.abs(np.subtract(m, before, out=before),
                                out=before).sum())
        if movement < tolerance:
            break
    diag = IPFDiagnostics(sweeps=sweeps, converged=movement < tolerance,
                          final_change=movement, threshold=tolerance,
                          residual=residual)
    _warn_non_convergence(
        f"response matrix for pair ({attr_i}, {attr_j})", diag)
    return m, diag


def build_response_matrix(related: Sequence[GridEstimate], attr_i: int,
                          attr_j: int, di: int, dj: int, tolerance: float,
                          max_iters: int = 100,
                          prior: np.ndarray = None) -> np.ndarray:
    """Matrix-only convenience over :func:`fit_response_matrix`."""
    matrix, _ = fit_response_matrix(related, attr_i, attr_j, di, dj,
                                    tolerance, max_iters=max_iters,
                                    prior=prior)
    return matrix
