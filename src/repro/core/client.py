"""Client-side collection: project onto the assigned grid, perturb, fold.

Each user belongs to exactly one group, projects their record onto that
group's grid (the cell index containing their values) and perturbs the cell
index with the grid's frequency oracle, spending the full budget ε. The
batch simulation below is distributionally identical to ``n`` independent
clients: every row uses independent randomness.

Every collection runs in an :class:`ExecutionContext`, built from a
:class:`~repro.core.config.FelipConfig`: it holds the run's settings
(``workers``, ``chunk_size``, ``shard_retries``, the ingest policy and
the test-only fault hook) and the accounting the run records into.
:func:`collect_shards` maps the records to every user's cell of their
group's grid, grouped by group, in one kernel pass
(:func:`repro.fo.kernels.group_cells`, over value→cell tables built once
per plan by :func:`cell_tables`), and splits each group's cells into
``(group, chunk)`` shards: zero-copy slices of that one array. Each
shard is folded where it is perturbed: its task perturbs the cells,
folds the report with the grid's oracle into a
:class:`~repro.fo.base.FoldedState`, checks the report against the plan,
and returns the state, so no per-user row outlives the task that drew
it. The tasks run on :func:`repro.core.parallel.run_sharded` (a thread
pool of ``workers``). :func:`collect_reports` reduces each group's
states in ``(group, chunk)`` order through
:func:`repro.core.merge.merge_reports`;
:meth:`repro.core.streaming.StreamingCollector.observe` runs the same
:func:`collect_shards` and merges the states into its running ones.
:func:`collect_reports_budget_split` has nothing to group: its tasks
encode their own row slice of the records.

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
restores it on entry, so a retried attempt (``shard_retries`` > 0 after a
transient failure, or an injected chaos fault) replays exactly the RNG
stream the failed attempt consumed — a collection that loses any shard
once and retries it is bit-identical to the fault-free run.

Ingestion hardening: every shard's report is checked
(``repro.robustness``) against the planning oracle's parameters under
the context's ingest policy inside its task, after the fold — so an
attempt that raised and was retried has not been counted — and a shard
that disagrees with its plan either fails loudly (``strict``) or is
dropped/quarantined. The task only holds its verdict; the verdicts are
recorded in the context's ``ingest_stats`` in ``(group, chunk)`` order
once every shard has run, so the accounting (quarantine audit entries
included) is the same for any ``workers``, and a collection that fails
part way records nothing. Structure needs no check here: every report
was built by its validating constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import FelipConfig
from repro.core.merge import merge_reports
from repro.core.parallel import ExecutionStats, chunk_bounds, run_sharded
from repro.core.planner import PlannedGrid
from repro.errors import ProtocolError
from repro.fo import kernels as fo_kernels
from repro.fo.adaptive import make_oracle
from repro.fo.base import FoldedState, FrequencyOracle
from repro.fo.registry import get as protocol_spec
from repro.grids.grid import Grid2D
from repro.robustness.policy import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    sanitize_report,
)
from repro.rng import RngLike, ensure_rng, spawn


class ExecutionContext:
    """The settings a model's sharded runs take, and their accounting.

    Built from ``config``: :meth:`run_shards` runs tasks on
    ``config.workers`` threads with ``config.shard_retries`` retries,
    collection splits groups into ``config.chunk_size`` shards, and every
    shard's report is admitted under ``ingest_policy`` (mode
    ``config.ingest_policy``). Runs record into ``ingest_stats`` and
    ``exec_stats``. :class:`~repro.core.Aggregator` and
    :class:`~repro.core.StreamingCollector` are contexts; a fit collects
    on a :meth:`fresh_context` and takes its accounting (:meth:`adopt`)
    only once collection has succeeded.
    """

    def __init__(self, config: FelipConfig):
        self.config = config
        #: ingestion admission control (mode from ``config.ingest_policy``)
        self.ingest_policy = IngestPolicy(mode=config.ingest_policy)
        #: admission accounting across every sanitized report
        self.ingest_stats = IngestStats()
        #: fault-tolerance accounting of the sharded executor
        self.exec_stats = ExecutionStats()
        #: chaos-test hook threaded into ``run_sharded`` (None in prod)
        self.fault_injector = None

    def run_shards(self, tasks: Sequence[Callable[[], Any]]) -> List[Any]:
        """Run shard tasks under these settings; results in task order."""
        return run_sharded(tasks, self.config.workers,
                           retries=self.config.shard_retries,
                           fault_injector=self.fault_injector,
                           stats=self.exec_stats)

    def fresh_context(self) -> "ExecutionContext":
        """A context with these settings, policy and hook, and no
        accounting."""
        context = ExecutionContext(self.config)
        context.ingest_policy = self.ingest_policy
        context.fault_injector = self.fault_injector
        return context

    def adopt(self, context: "ExecutionContext") -> None:
        """Take ``context``'s accounting as this one's own."""
        self.ingest_stats = context.ingest_stats
        self.exec_stats = context.exec_stats


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
    :meth:`_TaskBuilder.run` replays it into the shared stats.
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

    ``tasks[i]`` is the zero-argument closure the context runs and
    ``task_group[i]`` the group its result reduces into. Every shard's
    report passes admission control under the context's ingest policy
    inside its task, which returns its result with its
    :class:`_Verdict`; :meth:`run` records the verdicts in the context's
    ``ingest_stats`` (attributed to ``source``) in task order.
    """

    def __init__(self, context: ExecutionContext, source: str = ""):
        self.context = context
        self.source = source
        self.tasks: List[Callable[[], Any]] = []
        self.task_group: List[int] = []

    def add_perturb(self, g: int, oracle, rows: np.ndarray, rng,
                    encode: Optional[Callable[[np.ndarray], np.ndarray]]
                    = None) -> None:
        """One perturb-fold-check task per chunk of group ``g``'s rows.

        ``rows`` are the group's cells, or with ``encode`` the records
        each task maps to cells itself. ``rng`` is the group's
        generator: a single chunk perturbs on it, several on one spawned
        child each.
        """
        admit = self._admission(ReportSpec.from_oracle(oracle))
        bounds = chunk_bounds(len(rows), self.context.config.chunk_size)
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
                   ) -> Callable[[Any], _Verdict]:
        """The in-task check of a shard's report; ``strict`` raises on a
        rejection."""
        ingest, source = self.context.ingest_policy, self.source

        def admit(report) -> _Verdict:
            verdict = _Verdict()
            verdict.admitted = sanitize_report(
                report, ingest, verdict, expected=expected,
                source=source) is not None
            return verdict
        return admit

    def run(self, num_groups: int) -> List[List[Any]]:
        """Run every task; each group's admitted results, in ``(group,
        chunk)`` order.

        Records the run's verdicts in the context's ``ingest_stats`` in
        the same order once every shard has run, so a run that raises
        records none.
        """
        results = self.context.run_shards(self.tasks)
        parts: List[List[Any]] = [[] for _ in range(num_groups)]
        for g, (result, verdict) in zip(self.task_group, results):
            verdict.replay(self.context.ingest_stats)
            if verdict.admitted:
                parts[g].append(result)
        return parts


def collect_shards(context: ExecutionContext, records: np.ndarray,
                   assignment: np.ndarray,
                   planned_grids: Sequence[PlannedGrid],
                   tables: Sequence[CellAxes],
                   oracle_of: Callable[[PlannedGrid], FrequencyOracle],
                   epsilon: float, rng: np.random.Generator,
                   source: str = "") -> Tuple[List[List[Any]], np.ndarray]:
    """The grouped shard path of :func:`collect_reports` and ``observe``.

    Groups the records' cells by ``assignment`` in one
    :func:`~repro.fo.kernels.group_cells` pass over ``tables``, spawns
    one generator per group from ``rng``, and runs every group that
    needs a report on ``context``: shards perturbing on
    ``oracle_of(planned)``, or one interactive fit with ``epsilon``,
    their verdicts attributed to ``source``. Returns each group's
    admitted results in ``(group, chunk)`` order, and every group's size.
    """
    cells, offsets = fo_kernels.group_cells(records, assignment, tables)
    group_rngs = spawn(rng, len(planned_grids))
    builder = _TaskBuilder(context, source)
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
        # Chunked, so parallelism is not capped at the group count.
        builder.add_perturb(g, oracle_of(planned), group, group_rngs[g])
    return builder.run(len(planned_grids)), np.diff(offsets)


def collect_reports(context: ExecutionContext, records: np.ndarray,
                    assignment: np.ndarray,
                    planned_grids: Sequence[PlannedGrid], epsilon: float,
                    rng: RngLike = None) -> List[GroupReport]:
    """Run the client-side protocol for every group (sharded executor).

    Parameters
    ----------
    context:
        The run's settings and accounting (:class:`ExecutionContext`);
        ``workers`` and retries never change the output, ``chunk_size``
        picks the random stream (the module determinism contract).
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
    """
    parts, sizes = collect_shards(
        context, records, assignment, planned_grids,
        cell_tables(planned_grids),
        lambda planned: make_oracle(planned.protocol, epsilon,
                                    planned.num_cells),
        epsilon, ensure_rng(rng))
    return _group_reports(planned_grids, parts, sizes.tolist())


def _group_reports(planned_grids: Sequence[PlannedGrid],
                   parts: Sequence[List[Any]], group_sizes: Sequence[int]
                   ) -> List[GroupReport]:
    """Merge each group's shard states into its report."""
    return [GroupReport(planned, merge_reports(states), size)
            for planned, states, size in zip(planned_grids, parts,
                                              group_sizes)]


def _shard_task(oracle, rows: np.ndarray,
                encode: Optional[Callable[[np.ndarray], np.ndarray]],
                rng, admit: Callable[[Any], _Verdict]
                ) -> Callable[[], Tuple[FoldedState, _Verdict]]:
    """Perturb-fold-check closure for one (group, chunk) shard.

    ``rows`` are the shard's cells, or the records ``encode`` maps to
    cells. Returns the shard's folded state with its report's verdict.
    The check runs after the fold, so only an attempt that completes
    holds a verdict. The generator state is snapshotted at construction
    and restored on every entry, so a retried attempt after a transient
    failure replays exactly the stream the failed attempt consumed (the
    fault-tolerance half of the determinism contract).
    """
    state = rng.bit_generator.state

    def run():
        rng.bit_generator.state = state
        cells = rows if encode is None else encode(rows)
        report = oracle.perturb(cells, rng)
        folded = oracle.fold(None, [report])
        return folded, admit(report)
    return run


def _interactive_task(fit, planned: PlannedGrid, column: np.ndarray,
                      epsilon: float, rng, admit: Callable[[Any], _Verdict]
                      ) -> Callable[[], Tuple[Any, _Verdict]]:
    """Shard closure for an interactive (whole-group) backend's fit.

    Same state-snapshot and check-after contract as :func:`_shard_task`:
    retries replay the exact RNG stream of the failed attempt.
    """
    state = rng.bit_generator.state

    def run():
        rng.bit_generator.state = state
        model = fit(planned, column, epsilon, rng)
        return model, admit(model)
    return run


def collect_reports_budget_split(context: ExecutionContext,
                                 records: np.ndarray,
                                 planned_grids: Sequence[PlannedGrid],
                                 epsilon: float, rng: RngLike = None
                                 ) -> List[GroupReport]:
    """The Theorem 5.1 strawman: every user reports every grid with ε/m.

    Sequential composition makes the total privacy loss ε, identical to
    :func:`collect_reports`; the paper proves (and the ablation benchmark
    shows) this variant always has higher variance. Shares the sharded
    executor, its ``context`` and its determinism contract (shards here
    are (grid, chunk) slices of the whole population, each encoded in
    its task).
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

    builder = _TaskBuilder(context)
    for g, planned in enumerate(planned_grids):
        if len(records) == 0 or planned.num_cells < 2:
            continue
        builder.add_perturb(
            g, make_oracle(planned.protocol, epsilon_each, planned.num_cells),
            records, grid_rngs[g], encode=planned.grid.encode)
    return _group_reports(planned_grids, builder.run(len(planned_grids)),
                          [len(records)] * len(planned_grids))
