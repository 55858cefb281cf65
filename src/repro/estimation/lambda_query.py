"""Algorithm 4: estimating a λ-D answer from its 2-D sub-answers.

A λ-D query splits into ``C(λ, 2)`` 2-D queries. The estimator maintains a
vector ``z`` over the ``2^λ`` sign patterns (bit ``t`` set ⇔ predicate ``t``
satisfied, clear ⇔ its complement) and repeatedly rescales, for every pair
``(i, j)`` and every sign combination of that pair, the ``2^(λ−2)`` matching
entries so their total equals the pair's observed answer. The final estimate
is ``z[all bits set]``. A fit stops after the first sweep that moves ``z``
by less than a tolerance τ (L1 norm of the net change; see
:func:`repro.estimation.response_matrix.stop_tolerance`), with a sweep cap
as the backstop.

Unlike a positives-only update, using all four sign combinations per pair
fully constrains the pair's 2-D margin of ``z`` — this is the variant the
HDG reference implementation uses, and it converges to the maximum-entropy
distribution consistent with the pairwise answers.

Vectorized sweep
----------------
``z`` is viewed as a ``(2,) * λ`` tensor in which predicate ``t`` owns axis
``λ-1-t`` (C order). One pair's four sign constraints are then exactly the
pair's 2-D margin ``z.sum(over the other λ-2 axes)`` — the four sign blocks
are disjoint, so the whole pair applies as ONE broadcast rescale instead of
four fancy-indexed member-list updates. The same kernel runs *batched*:
stacking ``Q`` queries' ``z`` vectors into a ``(Q, 2^λ)`` array sweeps every
query simultaneously, with per-query convergence freezing so each query's
trajectory is identical to its solo run. The original per-member-list loop
is kept with the tests as the reference these kernels are checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation.response_matrix import (
    IPFDiagnostics,
    _validate_tolerance,
    _warn_non_convergence,
)


@dataclass(frozen=True)
class PairAnswers:
    """All four sign-combination answers of one 2-D sub-query.

    ``pp``: both predicates satisfied; ``pn``: first satisfied, second
    complemented; ``np_``/``nn`` analogously. The four values describe a
    complete 2x2 contingency table and should sum to ~1.
    """

    pp: float
    pn: float
    np_: float
    nn: float

    def as_table(self) -> np.ndarray:
        """2x2 table indexed ``[first_sign, second_sign]`` (1 = satisfied)."""
        return np.array([[self.nn, self.np_], [self.pn, self.pp]])


def _renormalize_tables(tables: np.ndarray, totals: np.ndarray) -> None:
    """Rescale clipped 2x2 tables back to their matrix totals, in place.

    Clipping each sign cell at 0 independently can push the table total
    above (or leave it below) the response-matrix mass it decomposes —
    the λ-D combination then chases an infeasible margin. Rescaling the
    whole table restores ``sum == total`` without reintroducing negatives.
    """
    sums = tables.sum(axis=(-2, -1))
    fix = (sums > 0.0) & (totals > 0.0) & (sums != totals)
    if np.any(fix):
        factor = np.ones_like(sums)
        factor[fix] = totals[fix] / sums[fix]
        tables *= factor[..., None, None]


def pair_answers_from_matrix(matrix: np.ndarray, indicator_i: np.ndarray,
                             indicator_j: np.ndarray) -> PairAnswers:
    """Derive the four sign answers from a response matrix.

    ``indicator_i``/``indicator_j`` are 0/1 vectors over the two attribute
    domains (from :meth:`Predicate.indicator`). Rectangle sums on the
    response matrix are exact — no uniformity assumption at this level.
    Small negative round-off is clipped, then the 2x2 table is renormalized
    so its total still equals the matrix total.
    """
    if matrix.shape != (len(indicator_i), len(indicator_j)):
        raise EstimationError(
            f"matrix shape {matrix.shape} does not match indicators "
            f"({len(indicator_i)}, {len(indicator_j)})"
        )
    table = pair_answers_tables(matrix, indicator_i[None, :],
                                indicator_j[None, :])[0]
    return PairAnswers(pp=float(table[1, 1]), pn=float(table[1, 0]),
                       np_=float(table[0, 1]), nn=float(table[0, 0]))


def pair_answers_tables(matrix: np.ndarray, indicators_i: np.ndarray,
                        indicators_j: np.ndarray) -> np.ndarray:
    """Batched :func:`pair_answers_from_matrix`: ``Q`` queries at once.

    ``indicators_i``/``indicators_j`` are ``(Q, d_i)`` / ``(Q, d_j)``
    indicator stacks; returns ``(Q, 2, 2)`` sign tables indexed
    ``[query, first_sign, second_sign]`` (1 = satisfied), clipped at 0 and
    renormalized to the matrix total.
    """
    indicators_i = np.asarray(indicators_i, dtype=np.float64)
    indicators_j = np.asarray(indicators_j, dtype=np.float64)
    if matrix.shape != (indicators_i.shape[1], indicators_j.shape[1]):
        raise EstimationError(
            f"matrix shape {matrix.shape} does not match indicator stacks "
            f"({indicators_i.shape[1]}, {indicators_j.shape[1]})"
        )
    total = float(matrix.sum())
    # einsum, not BLAS @: its fixed summation order makes the reductions
    # batch-size invariant, so a batch of one reproduces a batch of many
    # bit-for-bit (BLAS picks different gemv/gemm kernels by shape).
    row = np.einsum("qi,i->q", indicators_i, matrix.sum(axis=1),
                    optimize=False)
    col = np.einsum("qj,j->q", indicators_j, matrix.sum(axis=0),
                    optimize=False)
    pp = np.einsum("qi,ij,qj->q", indicators_i, matrix, indicators_j,
                   optimize=False)
    pn = np.maximum(row - pp, 0.0)
    np_ = np.maximum(col - pp, 0.0)
    nn = np.maximum(total - row - col + pp, 0.0)
    pp = np.maximum(pp, 0.0)
    tables = np.stack([np.stack([nn, np_], axis=-1),
                       np.stack([pn, pp], axis=-1)], axis=-2)
    _renormalize_tables(tables, np.full(len(tables), total))
    return tables


def canonical_pairs(dimension: int) -> List[Tuple[int, int]]:
    """The ``C(λ, 2)`` predicate-position pairs in lexicographic order."""
    return list(itertools.combinations(range(dimension), 2))


def _validate_pair_answers(pair_answers, dimension: int,
                           tolerance: float) -> None:
    if dimension < 2:
        raise EstimationError(f"dimension must be >= 2, got {dimension}")
    expected = set(canonical_pairs(dimension))
    if set(pair_answers) != expected:
        missing = sorted(expected - set(pair_answers))
        extra = sorted(set(pair_answers) - expected)
        raise EstimationError(
            f"pair answers mismatch; missing {missing}, unexpected {extra}"
        )
    _validate_tolerance(tolerance)


def _broadcast_tables(tables: np.ndarray, pairs: Sequence[Tuple[int, int]],
                      dimension: int) -> List[np.ndarray]:
    """Reshape each pair's ``(Q, 2, 2)`` table for tensor broadcasting.

    Predicate ``t`` owns tensor axis ``1 + (λ-1-t)`` of the
    ``(Q,) + (2,)*λ`` view of ``z``; for a pair ``(i, j)`` with ``i < j``
    the ``j`` axis precedes the ``i`` axis, so the ``[si, sj]`` table is
    transposed to ``[sj, si]`` before the reshape.
    """
    q = tables.shape[0]
    out = []
    for p, (i, j) in enumerate(pairs):
        ai = 1 + (dimension - 1 - i)
        aj = 1 + (dimension - 1 - j)
        shape = [q] + [1] * dimension
        shape[aj] = 2
        shape[ai] = 2
        out.append(np.ascontiguousarray(
            tables[:, p].transpose(0, 2, 1)).reshape(shape))
    return out


def _lambda_ipf(tables: np.ndarray, pairs: Sequence[Tuple[int, int]],
                dimension: int, tolerance: float, max_iters: int
                ) -> Tuple[np.ndarray, ...]:
    """Batched iterative-scaling kernel over stacked sign tables.

    Parameters
    ----------
    tables:
        ``(Q, P, 2, 2)`` sign tables, ``tables[q, p]`` indexed
        ``[si, sj]`` for ``pairs[p] = (i, j)``.
    pairs:
        Update order of the ``C(λ, 2)`` pairs within a sweep.
    tolerance, max_iters:
        Per-query stop tolerance on a sweep's movement, and sweep cap.

    Returns ``(z, sweeps, converged, movement, residual)``: ``z`` is the
    ``(Q, 2^λ)`` fitted sign-pattern distribution; the other four are
    per-query diagnostics of the last sweep each query ran. Converged
    queries are frozen — removed from the active batch — so every query's
    trajectory is exactly what a solo run would produce.
    """
    q = tables.shape[0]
    size = 1 << dimension
    block = 1 << (dimension - 2)  # entries per (pair, sign) constraint
    z = np.full((q, size), 1.0 / size)
    axis_sets = []
    for i, j in pairs:
        ai = 1 + (dimension - 1 - i)
        aj = 1 + (dimension - 1 - j)
        axis_sets.append(tuple(a for a in range(1, dimension + 1)
                               if a not in (ai, aj)))
    broadcast = _broadcast_tables(tables, pairs, dimension)

    sweeps = np.full(q, max_iters, dtype=np.int64)
    converged = np.zeros(q, dtype=bool)
    movement = np.full(q, np.inf)
    residual = np.zeros(q)
    active = np.arange(q)
    for sweep in range(1, max_iters + 1):
        if active.size == 0:
            break
        z_act = z[active]
        zi = z_act.reshape((len(active),) + (2,) * dimension)
        sweep_residual = np.zeros(len(active))
        for axes, table in zip(axis_sets, broadcast):
            t = table[active]
            tot = zi.sum(axis=axes, keepdims=True)
            pos = tot > 0.0
            scale = np.divide(t, tot, out=np.ones_like(tot), where=pos)
            contrib = np.where(pos, np.abs(t - tot),
                               np.where(t > 0.0, t, 0.0))
            sweep_residual += contrib.reshape(len(active), -1).sum(axis=1)
            zi *= scale
            refill = (~pos) & (t > 0.0)
            if refill.any():
                zi[...] = np.where(refill, t / block, zi)
        # z still holds the pre-sweep rows: the gather is the only copy.
        moved = np.abs(z_act - z[active]).sum(axis=1)
        z[active] = z_act
        movement[active] = moved
        residual[active] = sweep_residual
        done = moved < tolerance
        if done.any():
            settled = active[done]
            converged[settled] = True
            sweeps[settled] = sweep
            active = active[~done]
    return z, sweeps, converged, movement, residual


def fit_lambda_query(
        pair_answers: Dict[Tuple[int, int], PairAnswers],
        dimension: int, tolerance: float, max_iters: int = 500
) -> Tuple[float, IPFDiagnostics]:
    """Combine pairwise answers into the λ-D estimate (Algorithm 4).

    Parameters
    ----------
    pair_answers:
        Answers keyed by predicate-position pairs ``(i, j)`` with
        ``0 <= i < j < dimension``; all ``C(λ, 2)`` pairs must be present.
        Pairs are applied in the dict's iteration order.
    dimension:
        λ ≥ 2.
    tolerance:
        τ ≥ 0: the fit stops after the first sweep that moves ``z`` by
        less than τ (L1). ``0`` runs to ``max_iters``.
    max_iters:
        Backstop on full sweeps.

    Returns the estimate plus :class:`IPFDiagnostics`; emits a
    :class:`~repro.errors.ConvergenceWarning` when ``z`` still moves by τ
    or more at the sweep cap.
    """
    _validate_pair_answers(pair_answers, dimension, tolerance)
    pairs = list(pair_answers)
    tables = np.stack([pair_answers[p].as_table() for p in pairs])[None]
    z, sweeps, converged, movement, residual = _lambda_ipf(
        tables, pairs, dimension, tolerance, max_iters)
    diag = IPFDiagnostics(sweeps=int(sweeps[0]), converged=bool(converged[0]),
                          final_change=float(movement[0]),
                          threshold=tolerance, residual=float(residual[0]))
    _warn_non_convergence(f"lambda-query combination (lambda={dimension})",
                          diag)
    return float(z[0, -1]), diag


def estimate_lambda_query(
        pair_answers: Dict[Tuple[int, int], PairAnswers],
        dimension: int, tolerance: float, max_iters: int = 500) -> float:
    """Estimate-only convenience over :func:`fit_lambda_query`."""
    estimate, _ = fit_lambda_query(pair_answers, dimension, tolerance,
                                   max_iters=max_iters)
    return estimate


def fit_lambda_queries(
        tables: np.ndarray, dimension: int, tolerance: float,
        max_iters: int = 500,
        pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Algorithm 4: many queries' sign tables in one IPF.

    Parameters
    ----------
    tables:
        ``(Q, C(λ,2), 2, 2)`` stacked sign tables (e.g. from
        :func:`pair_answers_tables`), ``tables[q, p]`` indexed
        ``[si, sj]`` for the ``p``-th pair. The IPF sees only predicate
        positions, so queries over different attribute sets of the same
        λ can share one call.
    dimension:
        λ ≥ 2, shared by every query in the batch.
    tolerance:
        τ ≥ 0: a query stops after the first sweep that moves its ``z``
        by less than τ (L1). ``0`` runs every query to ``max_iters``.
    max_iters:
        Backstop on full sweeps per query.
    pairs:
        Pair order matching ``tables``'s second axis; defaults to
        :func:`canonical_pairs` (lexicographic).

    Returns ``(estimates, sweeps, converged)``: the ``(Q,)`` λ-D answers
    plus per-query convergence diagnostics. Each query's result is
    identical to running it alone — converged queries freeze while the
    rest keep sweeping.
    """
    if dimension < 2:
        raise EstimationError(f"dimension must be >= 2, got {dimension}")
    _validate_tolerance(tolerance)
    if pairs is None:
        pairs = canonical_pairs(dimension)
    tables = np.asarray(tables, dtype=np.float64)
    expected = (len(pairs), 2, 2)
    if tables.ndim != 4 or tables.shape[1:] != expected:
        raise EstimationError(
            f"tables shape {tables.shape} does not match "
            f"(Q, {len(pairs)}, 2, 2)")
    if sorted(pairs) != canonical_pairs(dimension):
        raise EstimationError(
            f"pairs {sorted(pairs)} do not cover all C({dimension}, 2) "
            f"position pairs")
    z, sweeps, converged, _, _ = _lambda_ipf(tables, list(pairs), dimension,
                                             tolerance, max_iters)
    return z[:, -1].copy(), sweeps, converged
