"""Client-side collection: project onto the assigned grid, perturb, fold.

Each user belongs to exactly one group, projects their record onto that
group's grid (the cell index containing their values) and perturbs the cell
index with the grid's frequency oracle, spending the full budget ε. The
batch simulation below is distributionally identical to ``n`` independent
clients: every row uses independent randomness.

:func:`collect_reports` maps the records to every user's cell of their
group's grid, grouped by group, in one kernel pass
(:func:`repro.fo.kernels.group_cells`, over value→cell tables built once
per plan by :func:`cell_tables`), and splits each group's cells into
``(group, chunk)`` shards: zero-copy slices of that one array. Each
shard is folded where it is perturbed: its task perturbs the cells,
folds the report with the grid's oracle into a
:class:`~repro.fo.base.FoldedState`, checks the report against the plan,
and returns the state, so no per-user row outlives the task that drew
it. The tasks run on :func:`repro.core.parallel.run_sharded` (a thread
pool of ``workers``), and each group's states reduce in ``(group,
chunk)`` order through :func:`repro.core.merge.merge_reports`.
:meth:`repro.core.streaming.StreamingCollector.observe` runs the same
grouping and tasks. :func:`collect_reports_budget_split` has nothing to
group: its tasks encode their own row slice of the records.

Determinism contract: with ``chunk_size=None`` each group perturbs in one
shard on one child generator spawned per group, consumed exactly like
the serial reference in ``tests/collect_reference.py``, so every group's
state is the fold of the reference's report, bit for bit, for any
``workers``. With a finite ``chunk_size`` each group's generator is
further split one-per-chunk, so outputs are a pure function of ``(seed,
chunk_size)`` — still invariant to ``workers``, but a different (equally
valid) random stream.

Fault tolerance extends the contract rather than weakening it: every
randomized shard task snapshots its generator's state at construction and
restores it on entry, so a retried attempt (``retries`` > 0 after a
transient failure, or an injected chaos fault) replays exactly the RNG
stream the failed attempt consumed — a collection that loses any shard
once and retries it is bit-identical to the fault-free run.

Ingestion hardening: when an ``ingest`` policy is passed, every shard's
report is checked (``repro.robustness``) against the planning oracle's
parameters inside its task, after the fold — so an attempt that raised
and was retried has not been counted — and a shard that disagrees with
its plan either fails loudly (``strict``) or is dropped/quarantined. The
task only holds its verdict; the verdicts are recorded in
``ingest_stats`` in ``(group, chunk)`` order once every shard has run,
so the accounting (quarantine audit entries included) is the same for
any ``workers``, and a collection that fails part way records nothing.
Structure needs no check here: every report was built by its validating
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.merge import merge_reports
from repro.core.parallel import ExecutionStats, chunk_bounds, run_sharded
from repro.core.planner import PlannedGrid
from repro.errors import ProtocolError
from repro.fo import kernels as fo_kernels
from repro.fo.adaptive import make_oracle
from repro.fo.base import FoldedState
from repro.fo.registry import get as protocol_spec
from repro.grids.grid import Grid2D
from repro.robustness.policy import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    sanitize_report,
)
from repro.rng import RngLike, ensure_rng, spawn


@dataclass
class GroupReport:
    """One group's collected evidence (``None`` when there is none).

    ``report`` is the :class:`~repro.fo.base.FoldedState` of the group's
    admitted reports — or an interactive backend's fitted model (AHEAD)
    — and ``None`` for empty groups, for groups whose every shard was
    rejected, and for trivial single-cell grids, whose frequency vector
    is known to be ``[1.0]`` a priori.
    """

    planned: PlannedGrid
    report: Optional[Any]
    group_size: int


#: one group's ``(record column, value → cell table)`` pairs
CellAxes = Tuple[Tuple[int, np.ndarray], ...]


def cell_tables(planned_grids: Sequence[PlannedGrid]) -> List[CellAxes]:
    """Each group's axes for :func:`repro.fo.kernels.group_cells`.

    A table maps an attribute's codes to the grid's cells along that
    axis (``Binning.cell_of`` over the whole domain); a 2-D grid's x
    table is scaled by its y cell count, so a row's two entries sum to
    its row-major cell, as :meth:`Grid2D.encode` computes it. An
    interactive backend bins the raw codes itself, so its group gets the
    identity table.
    """
    def table(binning, scale=1):
        return binning.cell_of(np.arange(binning.domain_size)) * scale

    axes: List[CellAxes] = []
    for planned in planned_grids:
        grid = planned.grid
        if protocol_spec(planned.protocol).interactive_fit is not None:
            axes.append(((grid.attr_index,
                          np.arange(grid.attribute.domain_size)),))
        elif isinstance(grid, Grid2D):
            axes.append(((grid.attr_index_x,
                          table(grid.binning_x, grid.binning_y.num_cells)),
                         (grid.attr_index_y, table(grid.binning_y))))
        else:
            axes.append(((grid.attr_index, table(grid.binning)),))
    return axes


class _Verdict:
    """One shard attempt's admission outcome, held until the run ends.

    :func:`sanitize_report` records into it from the shard's task (it
    offers :class:`IngestStats`'s two recording methods);
    :meth:`_TaskBuilder.admitted` replays it into the shared stats.
    """

    def __init__(self):
        self.admitted = False
        self._calls: List[tuple] = []

    def record_accept(self, *args, **kwargs) -> None:
        self._calls.append(("record_accept", args, kwargs))

    def record_reject(self, *args, **kwargs) -> None:
        self._calls.append(("record_reject", args, kwargs))

    def replay(self, stats: IngestStats) -> None:
        for name, args, kwargs in self._calls:
            getattr(stats, name)(*args, **kwargs)


class _TaskBuilder:
    """One collection run's shard closures, with their bookkeeping.

    ``tasks[i]`` is the zero-argument closure :func:`run_sharded` runs
    and ``task_group[i]`` the group its result reduces into. Every
    shard's report passes admission control under ``ingest`` inside its
    task, which returns its result with its :class:`_Verdict`;
    :meth:`admitted` records the verdicts in ``ingest_stats``
    (attributed to ``source``) in task order. ``ingest=None`` admits
    every report.
    """

    def __init__(self, ingest: Optional[IngestPolicy],
                 ingest_stats: Optional[IngestStats] = None,
                 source: str = ""):
        self.ingest = ingest
        self.ingest_stats = ingest_stats
        self.source = source
        self.tasks: List[Callable[[], Any]] = []
        self.task_group: List[int] = []

    def add_perturb(self, g: int, oracle, rows: np.ndarray,
                    chunk_size: Optional[int], rng,
                    encode: Optional[Callable[[np.ndarray], np.ndarray]]
                    = None) -> None:
        """One perturb-fold-check task per chunk of group ``g``'s rows.

        ``rows`` are the group's cells, or with ``encode`` the records
        each task maps to cells itself. ``rng`` is the group's
        generator: a single chunk perturbs on it, several on one spawned
        child each.
        """
        admit = self._admission(ReportSpec.from_oracle(oracle))
        bounds = chunk_bounds(len(rows), chunk_size)
        shard_rngs = [rng] if len(bounds) == 1 else spawn(rng, len(bounds))
        for (start, stop), shard_rng in zip(bounds, shard_rngs):
            self.tasks.append(_shard_task(oracle, rows[start:stop], encode,
                                          shard_rng, admit))
            self.task_group.append(g)

    def add_interactive(self, g: int, planned: PlannedGrid,
                        column: np.ndarray, epsilon: float, rng) -> None:
        fit = protocol_spec(planned.protocol).interactive_fit
        # A fitted model has no sanitizer; admission only counts its
        # users.
        self.tasks.append(_interactive_task(fit, planned, column, epsilon,
                                            rng, self._admission(None)))
        self.task_group.append(g)

    def _admission(self, expected: Optional[ReportSpec]
                   ) -> Optional[Callable[[Any], _Verdict]]:
        """The in-task check of a shard's report (``None``: admit all);
        ``strict`` raises on a rejection."""
        if self.ingest is None:
            return None
        ingest, source = self.ingest, self.source

        def admit(report) -> _Verdict:
            verdict = _Verdict()
            verdict.admitted = sanitize_report(
                report, ingest, verdict, expected=expected,
                source=source) is not None
            return verdict
        return admit

    def admitted(self, results: Sequence[Tuple[Any, Optional[_Verdict]]],
                 num_groups: int) -> List[List[Any]]:
        """Each group's admitted results, in ``(group, chunk)`` order.

        Records the run's verdicts in ``ingest_stats`` in the same order,
        so call it once :func:`run_sharded` has returned every result.
        """
        parts: List[List[Any]] = [[] for _ in range(num_groups)]
        for g, (result, verdict) in zip(self.task_group, results):
            if verdict is not None:
                if self.ingest_stats is not None:
                    verdict.replay(self.ingest_stats)
                if not verdict.admitted:
                    continue
            parts[g].append(result)
        return parts


def collect_reports(records: np.ndarray, assignment: np.ndarray,
                    planned_grids: Sequence[PlannedGrid], epsilon: float,
                    rng: RngLike = None, *, workers: int = 1,
                    chunk_size: int = None,
                    ingest: Optional[IngestPolicy] = None,
                    ingest_stats: Optional[IngestStats] = None,
                    retries: int = 0, fault_injector=None,
                    exec_stats: Optional[ExecutionStats] = None
                    ) -> List[GroupReport]:
    """Run the client-side protocol for every group (sharded executor).

    Parameters
    ----------
    records:
        The full ``(n, k)`` code matrix.
    assignment:
        Integer group label per user (from
        :func:`repro.core.partition_users`); a label outside the plan, or
        labels of any other dtype, raise :class:`ProtocolError`.
    planned_grids:
        The collection plan; group ``g`` reports on ``planned_grids[g]``.
    epsilon:
        Privacy budget each user spends on their single report.
    rng:
        Seed or generator; children are spawned per group (and per chunk
        when ``chunk_size`` splits a group) so reports are independent
        across shards.
    workers:
        Pool width for shard execution (0 = one per CPU). Never affects
        the output — see the module determinism contract.
    chunk_size:
        Rows per shard within a group; ``None`` keeps whole groups (the
        geometry under which each group's state is the fold of the
        serial reference's report).
    ingest, ingest_stats:
        Ingestion policy and its accounting: every shard's report is
        sanitized against the group's oracle parameters in its task.
    retries, fault_injector, exec_stats:
        Fault-tolerance knobs forwarded to
        :func:`repro.core.parallel.run_sharded`; retried shards replay
        the same RNG stream.
    """
    cells, offsets = fo_kernels.group_cells(records, assignment,
                                            cell_tables(planned_grids))
    group_rngs = spawn(ensure_rng(rng), len(planned_grids))

    builder = _TaskBuilder(ingest, ingest_stats)
    for g, planned in enumerate(planned_grids):
        group = cells[offsets[g]:offsets[g + 1]]
        if len(group) == 0 or planned.num_cells < 2:
            continue
        if protocol_spec(planned.protocol).interactive_fit is not None:
            # Interactive backends consume their whole group (raw codes,
            # through the identity table); one shard.
            builder.add_interactive(g, planned, group, epsilon,
                                    group_rngs[g])
            continue
        builder.add_perturb(
            g, make_oracle(planned.protocol, epsilon, planned.num_cells),
            group, chunk_size, group_rngs[g])
    return _execute(builder, planned_grids, np.diff(offsets).tolist(),
                    workers, retries, fault_injector, exec_stats)


def _execute(builder: _TaskBuilder, planned_grids: Sequence[PlannedGrid],
             group_sizes: Sequence[int], workers: int, retries: int,
             fault_injector, exec_stats: Optional[ExecutionStats]
             ) -> List[GroupReport]:
    """Run a built task set; merge each group's shard states."""
    results = run_sharded(builder.tasks, workers, retries=retries,
                          fault_injector=fault_injector, stats=exec_stats)
    return [GroupReport(planned=planned, report=merge_reports(parts),
                        group_size=size)
            for planned, parts, size in zip(
                planned_grids, builder.admitted(results,
                                                len(planned_grids)),
                group_sizes)]


def _shard_task(oracle, rows: np.ndarray,
                encode: Optional[Callable[[np.ndarray], np.ndarray]],
                rng, admit: Optional[Callable[[Any], _Verdict]]
                ) -> Callable[[], Tuple[FoldedState, Optional[_Verdict]]]:
    """Perturb-fold-check closure for one (group, chunk) shard.

    ``rows`` are the shard's cells, or the records ``encode`` maps to
    cells. Returns the shard's folded state with its report's verdict
    (``None`` when ``admit`` is). The check runs after the fold, so only
    an attempt that completes holds a verdict. The generator state is
    snapshotted at construction and restored on every entry, so a
    retried attempt after a transient failure replays exactly the
    stream the failed attempt consumed (the fault-tolerance half of the
    determinism contract).
    """
    state = rng.bit_generator.state

    def run():
        rng.bit_generator.state = state
        cells = rows if encode is None else encode(rows)
        report = oracle.perturb(cells, rng)
        folded = oracle.fold(None, [report])
        return folded, None if admit is None else admit(report)
    return run


def _interactive_task(fit, planned: PlannedGrid, column: np.ndarray,
                      epsilon: float, rng,
                      admit: Optional[Callable[[Any], _Verdict]]
                      ) -> Callable[[], Tuple[Any, Optional[_Verdict]]]:
    """Shard closure for an interactive (whole-group) backend's fit.

    Same state-snapshot and check-after contract as :func:`_shard_task`:
    retries replay the exact RNG stream of the failed attempt.
    """
    state = rng.bit_generator.state

    def run():
        rng.bit_generator.state = state
        model = fit(planned, column, epsilon, rng)
        return model, None if admit is None else admit(model)
    return run


def collect_reports_budget_split(records: np.ndarray,
                                 planned_grids: Sequence[PlannedGrid],
                                 epsilon: float,
                                 rng: RngLike = None, *, workers: int = 1,
                                 chunk_size: int = None,
                                 ingest: Optional[IngestPolicy] = None,
                                 ingest_stats: Optional[IngestStats] = None,
                                 retries: int = 0, fault_injector=None,
                                 exec_stats: Optional[ExecutionStats] = None
                                 ) -> List[GroupReport]:
    """The Theorem 5.1 strawman: every user reports every grid with ε/m.

    Sequential composition makes the total privacy loss ε, identical to
    :func:`collect_reports`; the paper proves (and the ablation benchmark
    shows) this variant always has higher variance. Shares the sharded
    executor and its determinism contract (shards here are (grid, chunk)
    slices of the whole population, each encoded in its task).
    """
    if not planned_grids:
        raise ProtocolError("no grids planned")
    unsplittable = [p for p in planned_grids
                    if not protocol_spec(p.protocol).budget_splittable]
    if unsplittable:
        names = ", ".join(sorted({p.protocol.upper()
                                  for p in unsplittable}))
        raise ProtocolError(
            f"grids {[p.key for p in unsplittable]} use the {names} "
            f"protocol, which cannot run under budget splitting (its "
            f"adaptive refinement needs each group's full per-user "
            f"budget); use partition_mode='users' or a budget-splittable "
            f"backend")
    epsilon_each = epsilon / len(planned_grids)
    grid_rngs = spawn(ensure_rng(rng), len(planned_grids))

    builder = _TaskBuilder(ingest, ingest_stats)
    for g, planned in enumerate(planned_grids):
        if len(records) == 0 or planned.num_cells < 2:
            continue
        builder.add_perturb(
            g, make_oracle(planned.protocol, epsilon_each, planned.num_cells),
            records, chunk_size, grid_rngs[g], encode=planned.grid.encode)
    return _execute(builder, planned_grids,
                    [len(records)] * len(planned_grids), workers, retries,
                    fault_injector, exec_stats)
