"""Per-node reference construction of λ ≥ 3 sign tables.

The oracle for the one-pass grouping in ``Aggregator._lambda_tables``.
It builds the tables the way answering did before that pass: per plan
node and per pair position, one summed-area or indicator-matmul call
each. Its summed-area tables come from three :meth:`rectangle`-style
lookups (rectangle, row band, column band), and each path keeps its
own clip-then-renormalize step. The tests require the one-pass tables,
answers and λ-IPF counters to equal these byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.estimation import canonical_pairs, fit_lambda_queries


def clip_renormalize_reference(pp, row, col, total) -> np.ndarray:
    """Clip each sign cell at 0, then rescale moved tables to ``total``."""
    pn = np.maximum(row - pp, 0.0)
    np_ = np.maximum(col - pp, 0.0)
    nn = np.maximum(total - row - col + pp, 0.0)
    pp = np.maximum(pp, 0.0)
    tables = np.stack([np.stack([nn, np_], axis=-1),
                       np.stack([pn, pp], axis=-1)], axis=-2)
    totals = np.full(len(tables), total)
    sums = tables.sum(axis=(-2, -1))
    fix = (sums > 0.0) & (totals > 0.0) & (sums != totals)
    if np.any(fix):
        factor = np.ones_like(sums)
        factor[fix] = totals[fix] / sums[fix]
        tables *= factor[..., None, None]
    return tables


def sign_tables_reference(sat, r0, r1, c0, c1) -> np.ndarray:
    """Summed-area sign tables from three separately checked lookups."""
    pp = np.atleast_1d(sat.rectangle(r0, r1, c0, c1))
    row = np.atleast_1d(sat.row_band(r0, r1))
    col = np.atleast_1d(sat.col_band(c0, c1))
    return clip_renormalize_reference(pp, row, col, sat.total)


def matrix_tables_reference(matrix, indicators_i, indicators_j
                            ) -> np.ndarray:
    """Sign tables from indicator stacks against a response matrix."""
    total = float(matrix.sum())
    row = np.einsum("qi,i->q", indicators_i, matrix.sum(axis=1),
                    optimize=False)
    col = np.einsum("qj,j->q", indicators_j, matrix.sum(axis=0),
                    optimize=False)
    pp = np.einsum("qi,ij,qj->q", indicators_i, matrix, indicators_j,
                   optimize=False)
    return clip_renormalize_reference(pp, row, col, total)


def pair_tables_reference(aggregator, ti, tj, preds_i, preds_j
                          ) -> np.ndarray:
    """``(Q, 2, 2)`` tables of one node's pair position."""
    tables = np.empty((len(preds_i), 2, 2))
    sat = aggregator._sats.get((ti, tj))
    fast = np.array([sat is not None and pi.is_range and pj.is_range
                     for pi, pj in zip(preds_i, preds_j)], dtype=bool)
    if fast.any():
        picks = np.flatnonzero(fast)
        r0 = np.array([preds_i[q].interval[0] for q in picks])
        r1 = np.array([preds_i[q].interval[1] for q in picks])
        c0 = np.array([preds_j[q].interval[0] for q in picks])
        c1 = np.array([preds_j[q].interval[1] for q in picks])
        tables[picks] = sign_tables_reference(sat, r0, r1, c0, c1)
    if not fast.all():
        picks = np.flatnonzero(~fast)
        schema = aggregator.schema
        stack_i = np.stack([preds_i[q].indicator(schema[ti].domain_size)
                            for q in picks])
        stack_j = np.stack([preds_j[q].indicator(schema[tj].domain_size)
                            for q in picks])
        tables[picks] = matrix_tables_reference(
            aggregator.response_matrix(ti, tj), stack_i, stack_j)
    return tables


def node_tables_reference(aggregator, node) -> np.ndarray:
    """``(Q, C(λ, 2), 2, 2)`` tables of one plan node, pair by pair."""
    key, batch = node.key, node.predicates
    pairs = canonical_pairs(len(key))
    tables = np.empty((len(batch), len(pairs), 2, 2))
    for p, (a, b) in enumerate(pairs):
        tables[:, p] = pair_tables_reference(
            aggregator, key[a], key[b], [preds[a] for preds in batch],
            [preds[b] for preds in batch])
    return tables


def lambda_tables_reference(aggregator, nodes
                            ) -> Dict[int, Tuple[List[int], np.ndarray]]:
    """Per λ (first-encounter order): positions and stacked node tables."""
    by_lambda: Dict[int, list] = {}
    for node in nodes:
        by_lambda.setdefault(len(node.key), []).append(node)
    return {dimension: ([p for node in members for p in node.positions],
                        np.concatenate([node_tables_reference(aggregator,
                                                              node)
                                        for node in members]))
            for dimension, members in by_lambda.items()}


def lambda_answers_reference(aggregator, nodes
                             ) -> Tuple[Dict[int, float], Dict[str, int]]:
    """λ ≥ 3 answers by workload position, and the λ-IPF counters one
    batch adds to ``fit_diagnostics()["lambda_queries"]``."""
    answers: Dict[int, float] = {}
    counts = {"queries": 0, "non_converged": 0, "total_sweeps": 0,
              "max_sweeps": 0}
    for dimension, (positions, tables) in lambda_tables_reference(
            aggregator, nodes).items():
        values, sweeps, converged = fit_lambda_queries(
            tables, dimension, aggregator._tolerance,
            max_iters=aggregator.config.lambda_max_iters)
        answers.update(zip(positions, np.clip(values, 0.0, 1.0)))
        counts["queries"] += len(sweeps)
        counts["non_converged"] += int((~converged).sum())
        counts["total_sweeps"] += int(sweeps.sum())
        counts["max_sweeps"] = max(counts["max_sweeps"], int(sweeps.max()))
    return answers, counts
