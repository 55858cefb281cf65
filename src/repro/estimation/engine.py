"""Materialized answering structures: summed-area tables over matrices.

Once a pair's response matrix is built, every ``BETWEEN x BETWEEN``
rectangle query against it is a 2-D prefix-sum lookup: precomputing the
summed-area table (inclusion–exclusion over four corners) turns each
rectangle sum — and each full 2x2 sign table — into O(1) work regardless of
the rectangle size, and whole workloads of rectangles into four fancy-indexed
gathers. This is what :meth:`repro.core.Aggregator.materialize` caches per
pair so large range workloads never touch the O(d_i · d_j) matrix again.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation.lambda_query import _clip_renormalize


class SummedAreaTable:
    """2-D prefix sums of a matrix with O(1) inclusive rectangle sums.

    ``sat[r, c]`` holds the sum of ``matrix[:r, :c]``, so the mass of the
    inclusive rectangle ``[r0, r1] x [c0, c1]`` is the classic four-corner
    inclusion–exclusion. All lookups are vectorized: corner arrays of shape
    ``(Q,)`` answer ``Q`` rectangles in four gathers.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise EstimationError(
                f"summed-area table needs a 2-D matrix, got shape "
                f"{matrix.shape}")
        self.shape: Tuple[int, int] = matrix.shape
        rows, cols = matrix.shape
        sat = np.zeros((rows + 1, cols + 1))
        np.cumsum(matrix, axis=0, out=sat[1:, 1:])
        np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
        self._sat = sat
        #: total matrix mass (the all-domain rectangle)
        self.total = float(sat[rows, cols])

    def _check_bounds(self, r0, r1, c0, c1) -> None:
        rows, cols = self.shape
        if ((r0 < 0) | (r1 >= rows) | (r0 > r1)
                | (c0 < 0) | (c1 >= cols) | (c0 > c1)).any():
            raise EstimationError(
                f"rectangle bounds outside matrix of shape {self.shape}")

    def rectangle(self, r0, r1, c0, c1):
        """Mass of inclusive rectangles ``[r0, r1] x [c0, c1]``.

        Bounds may be scalars or equal-length integer arrays; the return
        matches their broadcast shape.
        """
        r0 = np.asarray(r0, dtype=np.intp)
        r1 = np.asarray(r1, dtype=np.intp)
        c0 = np.asarray(c0, dtype=np.intp)
        c1 = np.asarray(c1, dtype=np.intp)
        self._check_bounds(r0, r1, c0, c1)
        s = self._sat
        return (s[r1 + 1, c1 + 1] - s[r0, c1 + 1]
                - s[r1 + 1, c0] + s[r0, c0])

    def row_band(self, r0, r1):
        """Mass of full-width row bands ``[r0, r1]`` (vectorized)."""
        return self.rectangle(r0, r1, 0, self.shape[1] - 1)

    def col_band(self, c0, c1):
        """Mass of full-height column bands ``[c0, c1]`` (vectorized)."""
        return self.rectangle(0, self.shape[0] - 1, c0, c1)

    def sign_tables(self, r0, r1, c0, c1) -> np.ndarray:
        """All four sign-cell answers of ``Q`` rectangle pairs at once.

        Returns ``(Q, 2, 2)`` tables indexed ``[query, row_sign,
        col_sign]`` (1 = inside the band) — the O(1) counterpart of
        :func:`repro.estimation.pair_answers_tables` for ``BETWEEN``
        predicates, with the same clip-then-renormalize treatment. The
        bounds are checked once, and one gather over each rectangle's
        row cuts ``{0, r0, r1 + 1, rows}`` x column cuts
        ``{0, c0, c1 + 1, cols}`` holds the corners of the rectangle and
        of both its bands, combined exactly as :meth:`rectangle`,
        :meth:`row_band` and :meth:`col_band` combine them.
        """
        r0, r1, c0, c1 = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(b, dtype=np.intp))
              for b in (r0, r1, c0, c1)))
        self._check_bounds(r0, r1, c0, c1)
        rows, cols = self.shape
        zero = np.zeros_like(r0)
        s = self._sat[np.stack([zero, r0, r1 + 1, zero + rows])[:, None],
                      np.stack([zero, c0, c1 + 1, zero + cols])[None, :]]
        pp = s[2, 2] - s[1, 2] - s[2, 1] + s[1, 1]
        row = s[2, 3] - s[1, 3] - s[2, 0] + s[1, 0]
        col = s[3, 2] - s[0, 2] - s[3, 1] + s[0, 1]
        return _clip_renormalize(pp, row, col, self.total)

    def __repr__(self) -> str:
        return f"SummedAreaTable(shape={self.shape}, total={self.total:.6f})"
