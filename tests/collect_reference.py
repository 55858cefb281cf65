"""Serial reference implementation of the collection semantics.

The oracle for the sharded executor in :mod:`repro.core.client`: one pass
per group over the full record matrix, one boolean mask and one perturb
call per group, and the group's per-user report kept whole. With
``chunk_size=None`` the executor consumes each group's generator exactly
like this loop, so every group's folded state must equal
``oracle.fold(None, [reference report])`` byte for byte, for any worker
count (:func:`folded`).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.client import GroupReport
from repro.core.planner import PlannedGrid
from repro.errors import ProtocolError
from repro.fo.adaptive import make_oracle
from repro.fo.registry import get as protocol_spec
from repro.rng import RngLike, ensure_rng, spawn


def _check_assignment(records: np.ndarray, assignment: np.ndarray,
                      planned_grids: Sequence[PlannedGrid]) -> None:
    """The reference's own check of the labels: integers, one per
    record, each naming a planned group."""
    if assignment.dtype.kind not in "iu":
        raise ProtocolError(
            f"assignment must hold integer labels, got {assignment.dtype}")
    if len(assignment) != len(records):
        raise ProtocolError(
            f"{len(assignment)} assignments for {len(records)} records")
    if assignment.size and (assignment.min() < 0
                            or assignment.max() >= len(planned_grids)):
        raise ProtocolError(
            f"assignment labels [{assignment.min()}, {assignment.max()}] "
            f"outside [0, {len(planned_grids)}) planned groups")


def collect_reports_serial(records: np.ndarray, assignment: np.ndarray,
                           planned_grids: Sequence[PlannedGrid],
                           epsilon: float,
                           rng: RngLike = None) -> List[GroupReport]:
    """Strictly serial collection: one per-user report per group."""
    _check_assignment(records, assignment, planned_grids)
    group_rngs = spawn(ensure_rng(rng), len(planned_grids))
    reports: List[GroupReport] = []
    for g, planned in enumerate(planned_grids):
        rows = records[assignment == g]
        if len(rows) == 0 or planned.num_cells < 2:
            reports.append(GroupReport(planned=planned, report=None,
                                       group_size=len(rows)))
            continue
        fit = protocol_spec(planned.protocol).interactive_fit
        if fit is not None:
            reports.append(GroupReport(
                planned=planned,
                report=fit(planned, rows[:, planned.grid.attr_index],
                           epsilon, group_rngs[g]),
                group_size=len(rows)))
            continue
        values = planned.grid.encode(rows)
        oracle = make_oracle(planned.protocol, epsilon, planned.num_cells)
        reports.append(GroupReport(
            planned=planned,
            report=oracle.perturb(values, group_rngs[g]),
            group_size=len(rows)))
    return reports


def folded(reports: Sequence[GroupReport],
           epsilon: float) -> List[GroupReport]:
    """The reference reports as the sharded executor returns them: each
    group's report folded by its grid's oracle."""
    return [GroupReport(
        planned=group.planned,
        report=None if group.report is None else make_oracle(
            group.planned.protocol, epsilon,
            group.planned.num_cells).fold(None, [group.report]),
        group_size=group.group_size) for group in reports]
