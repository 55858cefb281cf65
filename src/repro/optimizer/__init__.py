"""Workload-aware planning and the answer-plan compiler.

FELIP's original planner is workload-blind: grid sizes optimize a generic
α1/α2 error at the aggregator's global selectivity prior, ``materialize``
eagerly builds all ``C(k, 2)`` response matrices, and ``answer_workload``
dispatches whatever arrives. Real deployments have skewed, *declarable*
workloads. This package closes the loop at two levels:

* **plan time** — :class:`WorkloadSpec` captures per-attribute query
  frequencies, the λ distribution and per-attribute selectivity
  histograms (declared explicitly or harvested from a recorded
  workload through a bounded :class:`WorkloadAccumulator`). The planner
  feeds its selectivity moments into the workload-weighted sizing
  objectives (``repro.grids.sizing``), :func:`expected_workload_error`
  scores a collection plan under a spec, and
  :func:`plan_materialization` chooses which attribute pairs to
  materialize (fewer than ``C(k, 2)`` on large schemas) under a memory
  budget, ranked by workload benefit per byte.
* **answer time** — :func:`build_answer_plan` compiles a workload into an
  explicit :class:`AnswerPlan`: one node per attribute set, carrying the
  validated, schema-ordered predicates of its queries. The plan is the
  grouping; ``Aggregator.execute_answer_plan`` sends each node by λ to
  its primitive. Plans are pure values — inspectable and unit-testable
  without running a single query.

Nothing here imports ``repro.core``: the optimizer is a leaf layer the
core calls into, so plans stay testable in isolation.
"""

from repro.optimizer.cost import expected_workload_error
from repro.optimizer.materialize import (
    MaterializationPlan,
    plan_materialization,
)
from repro.optimizer.plan import (
    AnswerNode,
    AnswerPlan,
    build_answer_plan,
)
from repro.optimizer.workload import (
    AttributeProfile,
    WorkloadAccumulator,
    WorkloadSpec,
)

__all__ = [
    "AttributeProfile",
    "WorkloadAccumulator",
    "WorkloadSpec",
    "expected_workload_error",
    "MaterializationPlan",
    "plan_materialization",
    "AnswerNode",
    "AnswerPlan",
    "build_answer_plan",
]
