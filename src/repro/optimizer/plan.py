"""Compiling a workload into an explicit, executable answer plan.

:func:`build_answer_plan` is the answer-time half of the optimizer and
the only place a workload is grouped: it validates each query once,
sorts its predicates by schema index once, and groups queries by
attribute-index tuple in first-encounter order. The result is a pure
value: building a plan runs no queries, touches no fitted state, and
depends only on ``(schema, queries, config)`` — the property tests
assert exactly that. ``Aggregator.execute_answer_plan`` interprets the
plan against fitted estimates, sending each node by λ to one of three
primitives (1-D grid or marginal sum, 2-D rectangle sum, λ ≥ 3 pairwise
IPF, whose sign tables come from one pass over every λ ≥ 3 node and
which runs once per λ); the primitives themselves pick summed-area
lookups vs matmuls and 1-D grids vs marginals per query at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.optimizer.materialize import (
    MaterializationPlan,
    plan_materialization,
)


@dataclass(frozen=True)
class AnswerNode:
    """One (λ, attribute-set) group of the plan.

    Attributes
    ----------
    key:
        Sorted schema indices of the constrained attributes.
    attributes:
        The matching attribute names (inspectability).
    positions:
        Positions of the group's queries in the input workload order.
    predicates:
        Per query (aligned with ``positions``), its predicates in
        schema-index order — ``predicates[q][a]`` constrains ``key[a]``.
    """

    key: Tuple[int, ...]
    attributes: Tuple[str, ...]
    positions: Tuple[int, ...]
    predicates: Tuple[tuple, ...]

    @property
    def dimension(self) -> int:
        """The group's λ (number of constrained attributes)."""
        return len(self.key)

    @property
    def num_queries(self) -> int:
        return len(self.positions)

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": list(self.key),
            "attributes": list(self.attributes),
            "lambda": self.dimension,
            "num_queries": self.num_queries,
        }


@dataclass(frozen=True)
class AnswerPlan:
    """An inspectable compilation of one workload.

    ``nodes`` appear in first-encounter order of their groups;
    ``materialization`` is the pair-materialization decision for the
    plan's (schema, config).
    """

    nodes: Tuple[AnswerNode, ...]
    num_queries: int
    materialization: MaterializationPlan

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (RunResult plan artifacts)."""
        return {
            "num_queries": self.num_queries,
            "nodes": [node.as_dict() for node in self.nodes],
            "materialization": self.materialization.as_dict(),
        }


def build_answer_plan(schema, queries: Iterable, config) -> AnswerPlan:
    """Compile a workload into an :class:`AnswerPlan`.

    Pure: depends only on ``(schema, queries, config)``, so identical
    inputs always produce identical plans. ``config`` is any object with
    optional ``workload`` / ``materialize_budget_bytes`` attributes — in
    practice a :class:`repro.FelipConfig`, but the optimizer stays
    core-free. Raises :class:`~repro.errors.QueryError` for a query the
    schema cannot answer.
    """
    groups: Dict[Tuple[int, ...], Tuple[List[int], List[tuple]]] = {}
    num_queries = 0
    for pos, query in enumerate(queries):
        query.validate_for(schema)
        # A query constrains each attribute once, so the indices are
        # distinct and the sort never compares predicates.
        ranked = sorted((schema.index_of(p.attribute), p) for p in query)
        key = tuple(t for t, _ in ranked)
        positions, predicates = groups.setdefault(key, ([], []))
        positions.append(pos)
        predicates.append(tuple(p for _, p in ranked))
        num_queries += 1
    nodes = tuple(
        AnswerNode(key=key,
                   attributes=tuple(schema[t].name for t in key),
                   positions=tuple(positions),
                   predicates=tuple(predicates))
        for key, (positions, predicates) in groups.items())
    materialization = plan_materialization(
        schema,
        workload=getattr(config, "workload", None),
        budget_bytes=getattr(config, "materialize_budget_bytes", None))
    return AnswerPlan(nodes=nodes, num_queries=num_queries,
                      materialization=materialization)
