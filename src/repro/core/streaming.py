"""Streaming collection: users arrive in batches over time.

The paper's conclusion points at answering queries over data streams as an
extension. This module provides the natural architecture for it: grids are
planned once (from an expected population size), each *arriving* user is
assigned a group and reports immediately with the full budget ε, and the
aggregator can be finalized at any point — estimates simply sharpen as
more users arrive. Each user still reports exactly once, so the privacy
guarantee is unchanged.

Because every grid's cells are fixed at plan time, a grid's reports
matter to its estimate only through a fixed-length sufficient statistic
(:class:`repro.fo.base.FoldedState`: OLH support counts over the cells,
a GRR histogram, HR's signed projections, or the sums a unary/histogram/
square-wave report already carries). The collector therefore keeps one
folded state per grid plus the wire reports admitted since the last
fold. :meth:`StreamingCollector.observe` runs the batch collector's
shard path, :func:`repro.core.client.collect_shards` (over oracles and
cell tables built once at construction): each shard is folded where it
is perturbed, and the grid's state and the batch's shard states merge
in one :func:`repro.core.merge.merge_reports` call.
:meth:`StreamingCollector.compact` folds each grid's pending wire
reports with one kernel call over their concatenation and drops them,
so the retained state is O(Σ cells) plus at most one compaction interval
of reports, and :meth:`StreamingCollector.finalize` only unbiases.
Integer statistics add exactly and float sums keep one left fold in
arrival order, so where the folds happen never changes an estimate. Any
protocol whose registry spec is flagged ``streamable`` — every built-in
except AHEAD — streams; configurations that cannot (AHEAD's interactive
refinement) are rejected at construction, not at
:meth:`StreamingCollector.finalize`.

Streams are the natural untrusted-ingestion surface — reports arrive from
clients over time — so every report is admitted through the configured
:class:`repro.robustness.IngestPolicy` before it is accumulated, whether
it was perturbed locally (:meth:`StreamingCollector.observe`, checked in
its shard task) or received from the wire
(:meth:`StreamingCollector.ingest_report`). A collector is an
:class:`~repro.core.client.ExecutionContext`: per-batch perturbation
runs on the sharded executor under its config and inherits its
retry-with-backoff fault tolerance, and the whole stream's accounting
flows into the finalized aggregator's ``robustness_report()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.client import (
    ExecutionContext,
    GroupReport,
    cell_tables,
    collect_shards,
)
from repro.core.config import FelipConfig
from repro.core.merge import merge_reports
# run_sharded is not called here; the repository benchmark wraps this
# module's name to count sharded runs, so it stays importable.
from repro.core.parallel import run_sharded  # noqa: F401
from repro.core.planner import PlannedGrid, plan_grids
from repro.core.server import Aggregator
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError, DataError, ProtocolError
from repro.fo.adaptive import make_oracle
from repro.fo.base import FoldedState
from repro.fo.registry import get as protocol_spec
from repro.rng import RngLike, ensure_rng
from repro.robustness.policy import (
    ReportSpec,
    report_user_count,
    sanitize_report,
)
from repro.schema import Schema

__all__ = ["StreamingCollector"]


class StreamingCollector(ExecutionContext):
    """Accumulates ε-LDP reports batch by batch.

    Parameters
    ----------
    schema, config:
        As for :class:`~repro.core.Aggregator`. Each batch perturbs on
        one spawned stream per group (one per chunk when
        ``config.chunk_size`` splits a group), and ``config.workers``
        spreads those shards over a thread pool; the output is a pure
        function of ``(seed, chunk_size)``, identical for every worker
        count.
    expected_users:
        The planner's prior on the eventual population size — grid sizes
        are fixed up front (users must know their grid before reporting),
        so size them for the population you expect to see.

    Example
    -------
    >>> collector = StreamingCollector(schema, FelipConfig(), 100_000)
    >>> for batch in batches:                      # doctest: +SKIP
    ...     collector.observe(batch)
    >>> model = collector.finalize()               # doctest: +SKIP
    >>> model.answer(query)                        # doctest: +SKIP
    """

    def __init__(self, schema: Schema, config: FelipConfig,
                 expected_users: int, rng: RngLike = None):
        if expected_users < 1:
            raise ConfigurationError(
                f"expected_users must be >= 1, got {expected_users}")
        if config.partition_mode != "users":
            raise ConfigurationError(
                "streaming collection requires partition_mode='users'")
        super().__init__(config)
        self.schema = schema
        self.plans: List[PlannedGrid] = plan_grids(schema, config,
                                                   expected_users)
        unstreamable = [p for p in self.plans
                        if not protocol_spec(p.protocol).streamable]
        if unstreamable:
            names = sorted({p.protocol.upper() for p in unstreamable})
            raise ConfigurationError(
                f"grids {[p.key for p in unstreamable]} plan {names}, "
                f"which needs the whole group at once and cannot run over "
                f"a stream; use a streamable protocol")
        self._rng = ensure_rng(rng)
        # One oracle per plan, built once: oracles are immutable
        # (epsilon, domain) machines, so rebuilding them per batch was
        # pure overhead — for THE it even re-ran the numerical
        # threshold optimization on every observe() call.
        self._oracles = {
            p.key: make_oracle(p.protocol, config.epsilon, p.num_cells)
            for p in self.plans if p.num_cells >= 2}
        #: per grid: the wire reports admitted since the last fold, and
        #: the folded state of everything before them (None until the
        #: first)
        self._pending: Dict[Tuple[int, ...], List[object]] = {
            key: [] for key in self._oracles}
        self._states: Dict[Tuple[int, ...], Optional[FoldedState]] = {
            key: None for key in self._oracles}
        self._group_sizes = np.zeros(len(self.plans), dtype=np.int64)
        self.observed = 0
        #: users admitted without a report: members of trivial single-cell
        #: grids, whose frequency vector is known a priori. They never pass
        #: a sanitizer, so finalize()'s accounting invariant counts them
        #: separately from ``ingest_stats.accepted_users``.
        self.trusted_users = 0
        self._specs = {key: ReportSpec.from_oracle(oracle)
                       for key, oracle in self._oracles.items()}
        self._group_of = {p.key: g for g, p in enumerate(self.plans)}
        self._tables = cell_tables(self.plans)
        self._single_cell = np.array([p.num_cells < 2 for p in self.plans])

    def observe(self, records: np.ndarray, rng: RngLike = None) -> int:
        """Ingest one batch of arriving users (``(b, k)`` code matrix).

        Each user is assigned a uniformly random group on arrival and
        reports once; group sizes balance in expectation.

        Only *admitted* users count: a report the ingestion policy drops
        or quarantines contributes nothing to ``observed`` or to its
        group's size, so ``finalize()``'s ``aggregator.n`` is exactly the
        population the accumulated reports describe. (Before this held,
        every dropped report still inflated ``n`` and biased all frequency
        estimates low.) Each shard is folded and checked in its task, and
        the batch's shard states are merged into the grid states before
        this returns. Codes are checked as :class:`~repro.data.Dataset`
        checks them: finite floats exactly equal to an integer convert,
        any other float batch raises :class:`ProtocolError`. A batch that
        raises (a code outside its domain, a shard failed for good, or a
        ``strict`` rejection) leaves the collector's state, admission
        accounting and generator as they were, so later batches perturb
        as if it had never arrived; only ``exec_stats`` counts the failed
        shard. Returns the number of users admitted from this batch.
        """
        try:
            records = Dataset(self.schema, records, validate=False).records
        except DataError as exc:
            raise ProtocolError(f"batch rejected: {exc}") from None
        rewind = self._rng.bit_generator.state
        try:
            rng = self._rng if rng is None else ensure_rng(rng)
            assignment = rng.integers(0, len(self.plans),
                                      size=len(records))
            parts, sizes = collect_shards(
                self, records, assignment, self.plans, self._tables,
                lambda plan: self._oracles[plan.key], self.config.epsilon,
                rng, source="local")
        except BaseException:
            self._rng.bit_generator.state = rewind
            raise
        # Every shard has run: only now is any of the batch accounted.
        # A single-cell grid's members need no report.
        trusted = np.where(self._single_cell, sizes, 0)
        accepted = int(trusted.sum())
        self._group_sizes += trusted
        self.trusted_users += accepted
        # Fold the pending wire reports first: a grid's state stays one
        # left fold of its reports in arrival order.
        self.compact()
        for g, states in enumerate(parts):
            key = self.plans[g].key
            users = sum(state.n for state in states)
            if users:
                self._states[key] = merge_reports([self._states[key],
                                                   *states])
                self._group_sizes[g] += users
                accepted += users
        self.observed += accepted
        return accepted

    def ingest_report(self, key, report, source: str = None) -> bool:
        """Admit one externally produced report for the grid ``key``.

        This is the wire-facing entry point: the report was *not*
        perturbed by this collector, so nothing it declares is trusted.
        Its constructor has checked its structure; it then passes
        through the same admission control as locally observed batches —
        checked against the plan's oracle parameters, with rejections
        raising :class:`~repro.errors.IngestError` (``strict``)
        or counted in ``ingest_stats`` (``drop``/``quarantine``).

        ``source`` names the report's origin for the audit trail — the
        ingestion service passes the wire peer id; it defaults to the
        target grid key, so every quarantine entry is actionable even for
        direct calls.

        Returns True when the report was queued for the next fold;
        accepted users count toward ``observed`` and the grid's group
        size. A report that carries no user is not queued: it would add
        nothing to the user count, so it may add nothing to the
        statistics either (a zero-user SHE report passes every
        feasibility test, whatever its sums).
        """
        key = tuple(key)
        if key not in self._pending:
            raise ProtocolError(
                f"no planned grid takes reports under key {key}; such "
                f"keys: {sorted(self._pending)}")
        if source is None:
            source = f"grid={key}"
        sanitized = sanitize_report(report, self.ingest_policy,
                                    self.ingest_stats,
                                    expected=self._specs[key],
                                    source=source)
        users = 0 if sanitized is None else report_user_count(sanitized)
        if users == 0:
            return False
        self._pending[key].append(sanitized)
        self._group_sizes[self._group_of[key]] += users
        self.observed += users
        return True

    def is_fresh(self) -> bool:
        """True while nothing has been observed, ingested, or restored.

        This is the precondition :func:`repro.service.restore_checkpoint`
        enforces on its target: a checkpoint may only be loaded into a
        collector indistinguishable from newly constructed, so the
        restored state is the checkpoint's alone.
        """
        return not (self.observed or self.trusted_users
                    or any(self._pending.values())
                    or any(s is not None for s in self._states.values()))

    def compact(self) -> None:
        """Fold each grid's pending reports into its state; drop them.

        One :meth:`~repro.fo.base.FrequencyOracle.fold` per grid with
        pending reports: a single kernel call over their concatenation
        (or one left fold of their sums), added to the state. Folding is
        exact in any grouping, so compaction never changes what
        ``finalize()`` computes — it bounds the reports held to those
        admitted since the last call. ``observe()``, checkpoints and
        ``finalize()`` call it; the ingestion service also calls it every
        ``compact_every`` frames. Safe at any point.
        """
        for key, pending in self._pending.items():
            if pending:
                self._states[key] = self._oracles[key].fold(
                    self._states[key], pending)
                self._pending[key] = []

    def retained_bytes(self) -> int:
        """Bytes of report data held: folded vectors plus pending reports.

        After :meth:`compact` this is O(Σ cells), whatever the number of
        users admitted.
        """
        total = sum(state.vector.nbytes for state in self._states.values()
                    if state is not None)
        for pending in self._pending.values():
            for report in pending:
                total += sum(value.nbytes for value in vars(report).values()
                             if isinstance(value, np.ndarray))
        return total

    def finalize(self) -> Aggregator:
        """Build a queryable aggregator from everything observed so far.

        Folds what is pending, then unbiases each grid's state: no
        report row is revisited. Can be called repeatedly; later calls
        include later batches.
        """
        if self.observed == 0:
            raise ConfigurationError("no users observed yet")
        accepted = self.ingest_stats.accepted_users + self.trusted_users
        assert self.observed == accepted, (
            f"admission accounting out of sync: observed={self.observed} "
            f"but accepted_users + trusted_users = {accepted}; a report "
            f"was counted without passing admission control")
        self.compact()
        reports = [GroupReport(planned=plan,
                               report=self._states.get(plan.key),
                               group_size=int(self._group_sizes[g]))
                   for g, plan in enumerate(self.plans)]
        aggregator = Aggregator(self.schema, self.config)
        aggregator.n = self.observed
        aggregator.plans = self.plans
        # The model's robustness_report() covers the stream so far, in
        # copies of its own: later batches stay on the collector, and the
        # model's materialize retries stay on the model.
        aggregator.ingest_stats.load_state(self.ingest_stats.state_dict())
        aggregator.exec_stats.load_state(self.exec_stats.state_dict())
        aggregator._finalize(reports)
        return aggregator
