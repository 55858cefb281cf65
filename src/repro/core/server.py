"""Aggregator: estimate grids, post-process, answer queries.

The aggregator sees only perturbed reports. It estimates each grid's cell
frequencies with the matching frequency-oracle estimator, runs the
post-processing stage (consistency + non-negativity, Section 5.4), builds
response matrices per attribute pair on demand (Algorithm 3), and answers
λ-D queries by direct rectangle sums (λ ≤ 2) or pairwise combination
(Algorithm 4, λ > 2).

Collection folds each shard where it is perturbed
(:mod:`repro.core.client`), so the aggregator receives one
:class:`~repro.fo.base.FoldedState` per grid, and its estimate stage only
unbiases it — batch, budget-split and streaming collection alike.

Because the reports come from clients the aggregator does not control,
ingestion is hardened (``repro.robustness``): every report is sanitized
under ``config.ingest_policy`` before its state is merged, configured
feasibility detectors run on the raw per-grid estimates at the start of
the postprocess stage, and shard execution retries transient failures
``config.shard_retries`` times. :meth:`Aggregator.robustness_report`
surfaces the combined accounting for the run.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.client import (
    GroupReport,
    collect_reports,
    collect_reports_budget_split,
)
from repro.core.config import FelipConfig
from repro.core.parallel import ExecutionStats, StageTimings, run_sharded
from repro.core.partition import partition_users
from repro.core.planner import PlannedGrid, plan_grids
from repro.data.dataset import Dataset
from repro.errors import ConvergenceWarning, NotFittedError, QueryError
from repro.estimation.engine import SummedAreaTable
from repro.estimation.lambda_query import (
    canonical_pairs,
    fit_lambda_queries,
    pair_answers_tables,
)
from repro.estimation.response_matrix import (
    IPFDiagnostics,
    fit_response_matrix,
    stop_tolerance,
)
from repro.fo import kernels as fo_kernels
from repro.fo.adaptive import make_oracle
from repro.optimizer import (
    AnswerNode,
    AnswerPlan,
    MaterializationPlan,
    WorkloadAccumulator,
    WorkloadSpec,
    build_answer_plan,
    plan_materialization,
)
from repro.fo.registry import get as protocol_spec
from repro.fo.registry import kernels_for
from repro.grids.grid import GridEstimate, predicate_cell_weights
from repro.postprocess.pipeline import postprocess_grids
from repro.queries.predicate import Predicate
from repro.queries.query import Query
from repro.rng import RngLike, ensure_rng
from repro.robustness.detect import DetectorFlag, run_detectors
from repro.robustness.policy import IngestPolicy, IngestStats
from repro.schema import Schema


class Aggregator:
    """The server side of a FELIP collection."""

    def __init__(self, schema: Schema, config: FelipConfig):
        self.schema = schema
        self.config = config
        self.n: Optional[int] = None
        self.plans: List[PlannedGrid] = []
        self._estimates: Dict[Tuple[int, ...], GridEstimate] = {}
        self._matrices: Dict[Tuple[int, int], np.ndarray] = {}
        self._matrix_diags: Dict[Tuple[int, int], IPFDiagnostics] = {}
        self._sats: Dict[Tuple[int, int], SummedAreaTable] = {}
        self._lambda_stats: Dict[str, int] = self._fresh_lambda_stats()
        #: IPF stop tolerance τ of the fitted grids (set by _finalize)
        self._tolerance: float = float("nan")
        self._priors: Dict[Tuple[int, int], np.ndarray] = {}
        self._report_epsilon: float = config.epsilon
        #: cumulative wall-clock seconds per pipeline stage
        #: (plan / collect / estimate / postprocess)
        self.timings = StageTimings()
        #: ingestion admission control (mode from ``config.ingest_policy``)
        self.ingest_policy = IngestPolicy(mode=config.ingest_policy)
        #: admission accounting across every sanitized report
        self.ingest_stats = IngestStats()
        #: fault-tolerance accounting of the sharded executor
        self.exec_stats = ExecutionStats()
        #: chaos-test hook threaded into ``run_sharded`` (None in prod)
        self.fault_injector = None
        self._detector_flags: List[DetectorFlag] = []
        self._group_sizes: List[int] = []
        #: workload answered since the last fit (config.record_workload)
        self._recorded = WorkloadAccumulator(schema)

    # -- collection -----------------------------------------------------------

    def fit(self, dataset: Dataset, rng: RngLike = None) -> "Aggregator":
        """Run the full collection pipeline on ``dataset``."""
        if dataset.schema != self.schema:
            raise QueryError("dataset schema does not match aggregator's")
        rng = ensure_rng(rng)
        self.n = dataset.n
        self._recorded = WorkloadAccumulator(self.schema)
        with self.timings.time("plan"):
            self.plans = plan_grids(self.schema, self.config, dataset.n)
        with self.timings.time("warm"):
            # Warm the partition shuffle, the grouping pass and exactly
            # the kernels the planned protocols dispatch to, so
            # compile/load cost shows up here — never inside collect.
            fo_kernels.warm(("group_cells", "permute",
                             *kernels_for(p.protocol for p in self.plans)))
        with self.timings.time("collect"):
            if self.config.partition_mode == "budget":
                # Theorem 5.1 strawman: everyone reports every grid with
                # eps/m.
                self._report_epsilon = (self.config.epsilon
                                        / max(len(self.plans), 1))
                reports = collect_reports_budget_split(
                    dataset.records, self.plans, self.config.epsilon, rng,
                    workers=self.config.workers,
                    chunk_size=self.config.chunk_size,
                    ingest=self.ingest_policy,
                    ingest_stats=self.ingest_stats,
                    retries=self.config.shard_retries,
                    fault_injector=self.fault_injector,
                    exec_stats=self.exec_stats)
            else:
                self._report_epsilon = self.config.epsilon
                assignment = partition_users(dataset.n, len(self.plans),
                                             rng)
                reports = collect_reports(
                    dataset.records, assignment, self.plans,
                    self.config.epsilon, rng,
                    workers=self.config.workers,
                    chunk_size=self.config.chunk_size,
                    ingest=self.ingest_policy,
                    ingest_stats=self.ingest_stats,
                    retries=self.config.shard_retries,
                    fault_injector=self.fault_injector,
                    exec_stats=self.exec_stats)
        self._finalize(reports)
        return self

    def _finalize(self, reports: List[GroupReport]) -> "Aggregator":
        """Estimate every grid from its folded state and post-process.

        Split out of :meth:`fit` so streaming collectors can accumulate
        states across batches and finalize once.
        """
        self._estimates = {}
        self._matrices = {}
        self._matrix_diags = {}
        self._sats = {}
        self._lambda_stats = self._fresh_lambda_stats()
        self._group_sizes = [group.group_size for group in reports]
        with self.timings.time("estimate"):
            for group in reports:
                self._estimates[group.planned.key] = \
                    self._estimate_group(group)
        with self.timings.time("postprocess"):
            # Detectors need the *raw* estimates: the projection below
            # erases exactly the infeasibility they look for.
            self._detector_flags = []
            if self.config.detectors:
                raw = {key: est.frequencies.copy()
                       for key, est in self._estimates.items()}
                self._detector_flags = run_detectors(
                    self.config.detectors, raw, self._cell_variances(),
                    self._group_sizes)
            postprocess_grids(
                list(self._estimates.values()),
                self._cell_variances(),
                num_attributes=len(self.schema),
                rounds=self.config.postprocess_rounds)
        self._tolerance = stop_tolerance(self._cell_variances().values())
        return self

    def _cell_variances(self) -> Dict[Tuple[int, ...], float]:
        """Actual per-cell estimation variance per grid (for weighting)."""
        if self.config.partition_mode != "budget":
            return {p.key: p.cell_variance for p in self.plans}
        variances = {}
        for plan in self.plans:
            spec = protocol_spec(plan.protocol)
            variances[plan.key] = spec.analytic_variance(
                self._report_epsilon, max(plan.num_cells, 2),
                max(self.n, 1))
        return variances

    def _estimate_group(self, group: GroupReport) -> GridEstimate:
        planned = group.planned
        if group.report is None:
            # Empty group or single-cell grid: fall back to the uniform
            # prior (single-cell grids have exact frequency [1.0]).
            freqs = np.full(planned.num_cells, 1.0 / planned.num_cells)
            return GridEstimate(grid=planned.grid, frequencies=freqs)
        estimator = protocol_spec(planned.protocol).grid_estimator
        if estimator is not None:
            # Interactive backends estimate from their fitted model (and
            # may replace the placeholder grid with a data-adaptive one).
            return estimator(group)
        oracle = make_oracle(planned.protocol, self._report_epsilon,
                             planned.num_cells)
        return GridEstimate(grid=planned.grid,
                            frequencies=oracle.unbias(group.report))

    # -- robustness --------------------------------------------------------------

    def robustness_report(self) -> Dict[str, Any]:
        """Combined robustness accounting for the latest collection.

        Bundles ingestion admission counters, sharded-executor
        fault-tolerance stats, and the feasibility-detector verdicts
        (``config.detectors``). ``flagged`` is True when any detector
        triggered — the signal the attack experiments record.
        """
        triggered = [f for f in self._detector_flags if f.triggered]
        return {
            "ingest_policy": self.ingest_policy.mode,
            "ingest": self.ingest_stats.as_dict(),
            "execution": self.exec_stats.as_dict(),
            "detectors": [f.as_dict() for f in self._detector_flags],
            "flagged": bool(triggered),
            "triggered": [f.as_dict() for f in triggered],
        }

    # -- estimation accessors ---------------------------------------------------

    def _require_fitted(self) -> None:
        if self.n is None:
            raise NotFittedError("call fit() before querying")

    def estimate_for(self, key: Tuple[int, ...]) -> GridEstimate:
        """The (post-processed) estimate of the grid identified by ``key``."""
        self._require_fitted()
        try:
            return self._estimates[key]
        except KeyError:
            raise QueryError(f"no grid with key {key}") from None

    @staticmethod
    def _fresh_lambda_stats() -> Dict[str, int]:
        return {"queries": 0, "non_converged": 0, "total_sweeps": 0,
                "max_sweeps": 0}

    def _record_lambda(self, sweeps, converged) -> None:
        """Fold per-query λ-IPF diagnostics into the running counters."""
        sweeps = np.atleast_1d(np.asarray(sweeps, dtype=np.int64))
        converged = np.atleast_1d(np.asarray(converged, dtype=bool))
        self._lambda_stats["queries"] += int(sweeps.size)
        self._lambda_stats["non_converged"] += int((~converged).sum())
        self._lambda_stats["total_sweeps"] += int(sweeps.sum())
        self._lambda_stats["max_sweeps"] = max(
            self._lambda_stats["max_sweeps"], int(sweeps.max()))

    def _build_matrix(self, i: int, j: int
                      ) -> Tuple[np.ndarray, IPFDiagnostics]:
        """Fit one pair's response matrix (pure: no cache writes).

        Side-effect-free so :meth:`materialize` can run many fits on the
        sharded executor without racing on the caches.
        """
        related = [self.estimate_for((i, j))]
        for t in (i, j):
            if (t,) in self._estimates:
                related.append(self._estimates[(t,)])
        return fit_response_matrix(
            related, i, j,
            self.schema[i].domain_size, self.schema[j].domain_size,
            self._tolerance,
            max_iters=self.config.response_matrix_max_iters,
            prior=self._priors.get((i, j)))

    def response_matrix(self, i: int, j: int) -> np.ndarray:
        """Response matrix ``M(i, j)`` with ``i < j`` (cached)."""
        self._require_fitted()
        if i >= j:
            raise QueryError(f"pair must satisfy i < j, got ({i}, {j})")
        if (i, j) not in self._matrices:
            matrix, diag = self._build_matrix(i, j)
            self._matrices[(i, j)] = matrix
            self._matrix_diags[(i, j)] = diag
        return self._matrices[(i, j)]

    def _normalize_pairs(self, pairs) -> List[Tuple[int, int]]:
        """Resolve user pair specs (names or indices) to sorted index pairs.

        Dedup goes through an order-preserving dict keyed on the
        normalized pair — O(1) membership instead of the O(p) list scan
        that made wide-schema materialization quadratic in ``C(k, 2)``.
        """
        norm: Dict[Tuple[int, int], None] = {}
        for a, b in pairs:
            i = (self.schema.index_of(a) if isinstance(a, str) else int(a))
            j = (self.schema.index_of(b) if isinstance(b, str) else int(b))
            if i == j:
                raise QueryError("pair needs two distinct attributes")
            if not (0 <= i < len(self.schema) and 0 <= j < len(self.schema)):
                raise QueryError(f"pair ({a}, {b}) outside schema")
            if i > j:
                i, j = j, i
            norm[(i, j)] = None
        return list(norm)

    def materialization_plan(self) -> MaterializationPlan:
        """The pair-materialization decision for this (schema, config).

        Without a declared workload this is the legacy exhaustive plan
        (every ``C(k, 2)`` pair); with ``config.workload`` set, pairs the
        workload never touches are pruned and the rest greedily packed
        under ``config.materialize_budget_bytes`` — see
        :func:`repro.optimizer.plan_materialization`. Pure: depends only
        on (schema, config), never on fitted state.
        """
        return plan_materialization(
            self.schema,
            workload=self.config.workload,
            budget_bytes=self.config.materialize_budget_bytes)

    def materialize(self, pairs=None) -> "Aggregator":
        """Eagerly build response matrices + summed-area tables.

        Fits every requested pair's matrix through the sharded executor —
        same workers / retry / fault-injection machinery as collection —
        with each task also building the matrix's
        :class:`~repro.estimation.SummedAreaTable`, so SAT construction
        overlaps the other shards' matrix fits instead of running
        serially after the pool drains. Materialized pairs answer any
        ``BETWEEN x BETWEEN`` rectangle (and all four sign cells of a
        pair's 2x2 table) in O(1) lookups.

        ``pairs=None`` materializes the pairs chosen by
        :meth:`materialization_plan` — all ``C(k, 2)`` pairs when no
        workload is declared (the legacy behavior), the workload-pruned
        subset otherwise. Un-materialized pairs still answer correctly
        through the lazy per-pair path with identical numerics.
        Idempotent; time is recorded under the ``materialize`` stage.
        """
        self._require_fitted()
        if pairs is None:
            norm = list(self.materialization_plan().pairs)
        else:
            norm = self._normalize_pairs(pairs)
        with self.timings.time("materialize"):
            missing = [p for p in norm if p not in self._matrices]
            if missing:
                tasks = [self._materialize_task(i, j) for i, j in missing]
                results = run_sharded(tasks, self.config.workers,
                                      retries=self.config.shard_retries,
                                      fault_injector=self.fault_injector,
                                      stats=self.exec_stats)
                for pair, (matrix, diag, sat) in zip(missing, results):
                    self._matrices[pair] = matrix
                    self._matrix_diags[pair] = diag
                    self._sats[pair] = sat
            for pair in norm:
                # Pairs whose matrix predates this call (lazy answering,
                # earlier subset materialize) still need their SAT.
                if pair not in self._sats:
                    self._sats[pair] = SummedAreaTable(self._matrices[pair])
        return self

    def _materialize_task(self, i: int, j: int):
        """Per-pair matrix-fit + SAT-build closure for the sharded executor."""
        def run():
            matrix, diag = self._build_matrix(i, j)
            return matrix, diag, SummedAreaTable(matrix)
        return run

    def fit_diagnostics(self) -> Dict[str, Any]:
        """Convergence diagnostics of every iterative fit so far.

        ``response_matrices`` maps each built pair to its Algorithm 3
        :class:`~repro.estimation.IPFDiagnostics`; ``lambda_queries``
        accumulates Algorithm 4 sweep counters across every λ ≥ 3 answer
        since the last fit. Counters reset on refit.
        """
        self._require_fitted()
        return {
            "response_matrices": {pair: diag.as_dict()
                                  for pair, diag
                                  in sorted(self._matrix_diags.items())},
            "lambda_queries": dict(self._lambda_stats),
            "materialized_pairs": sorted(self._sats),
        }

    def set_prior(self, attr_i, attr_j, matrix: np.ndarray) -> None:
        """Register public prior knowledge of a pair's joint distribution.

        The prior seeds the response-matrix fit (Algorithm 3) in place of
        the uniform initialization — the "incorporate prior public
        knowledge" extension the paper's conclusion proposes. It never
        overrides collected evidence: the fit still matches every grid
        constraint; the prior only shapes mass *within* grid cells.
        """
        i = (self.schema.index_of(attr_i) if isinstance(attr_i, str)
             else int(attr_i))
        j = (self.schema.index_of(attr_j) if isinstance(attr_j, str)
             else int(attr_j))
        if i == j:
            raise QueryError("prior needs two distinct attributes")
        if i > j:
            i, j = j, i
            matrix = np.asarray(matrix).T
        matrix = np.asarray(matrix, dtype=np.float64)
        expected = (self.schema[i].domain_size, self.schema[j].domain_size)
        if matrix.shape != expected:
            raise QueryError(
                f"prior shape {matrix.shape} does not match domains "
                f"{expected}")
        with np.errstate(over="ignore"):  # an overflowing sum is refused
            total = matrix.sum()
        if not (np.isfinite(matrix).all() and (matrix >= 0).all()
                and 0.0 < total < np.inf):
            raise QueryError("prior must be finite and non-negative with "
                             "a positive, finite total mass")
        self._priors[(i, j)] = matrix / total
        self._matrices.pop((i, j), None)
        self._matrix_diags.pop((i, j), None)
        self._sats.pop((i, j), None)

    def joint(self, attr_i, attr_j) -> np.ndarray:
        """Estimated value-level joint distribution of an attribute pair.

        Returns the response matrix oriented ``(attr_i, attr_j)``; compare
        against :meth:`repro.data.Dataset.joint_marginal` for evaluation.
        """
        self._require_fitted()
        i = (self.schema.index_of(attr_i) if isinstance(attr_i, str)
             else int(attr_i))
        j = (self.schema.index_of(attr_j) if isinstance(attr_j, str)
             else int(attr_j))
        if i == j:
            raise QueryError("joint needs two distinct attributes")
        if i < j:
            return self.response_matrix(i, j).copy()
        return self.response_matrix(j, i).T.copy()

    def estimate_mean(self, attribute) -> float:
        """Estimated mean of a numerical attribute (decoded values)."""
        t = (self.schema.index_of(attribute) if isinstance(attribute, str)
             else int(attribute))
        attr = self.schema[t]
        if not attr.is_numerical:
            raise QueryError(
                f"attribute {attr.name!r} is categorical; means are only "
                f"defined for numerical attributes")
        marginal = self.marginal(t)
        values = attr.decoded_values()
        total = marginal.sum()
        if total <= 0:
            return float(values.mean())
        return float((marginal / total) @ values)

    def marginal(self, attribute) -> np.ndarray:
        """Estimated value-level frequency vector of one attribute.

        Derived from the response matrix of the attribute's first pair, so
        it reflects all post-processing. Single-attribute schemas have no
        pair to build a matrix from; the attribute's own 1-D grid estimate
        is expanded to value level instead (within-cell uniformity).
        """
        self._require_fitted()
        t = (self.schema.index_of(attribute) if isinstance(attribute, str)
             else int(attribute))
        if len(self.schema) == 1:
            estimate = self.estimate_for((t,))
            widths = estimate.grid.binning.widths
            return np.repeat(estimate.frequencies / widths, widths)
        partner = 0 if t != 0 else 1
        i, j = min(t, partner), max(t, partner)
        matrix = self.response_matrix(i, j)
        return matrix.sum(axis=1) if t == i else matrix.sum(axis=0)

    # -- query answering ---------------------------------------------------------

    def answer(self, query: Query) -> float:
        """Estimated fractional answer of a λ-D query."""
        return float(self.answer_workload([query])[0])

    def plan_answers(self, queries: Iterable[Query]) -> AnswerPlan:
        """Compile a workload into an inspectable :class:`AnswerPlan`.

        Pure — a function of (schema, queries, config) only (see
        :func:`repro.optimizer.build_answer_plan`); building a plan
        validates the queries but runs none of them, and may be called
        before :meth:`fit`. Execute it with :meth:`execute_answer_plan`.
        """
        return build_answer_plan(self.schema, queries, self.config)

    def execute_answer_plan(self, plan: AnswerPlan) -> np.ndarray:
        """Answer a compiled :class:`AnswerPlan`, in workload order.

        Each λ ≤ 2 node goes to its primitive: 1-D sums
        (:meth:`_answer_singles`) or 2-D rectangle sums
        (:meth:`_pair_values`). The λ ≥ 3 nodes are answered together by
        :meth:`_answer_lambdas`: one sign-table pass over the whole
        batch, then one batched Algorithm 4 IPF per λ. The plan already
        validated and schema-ordered every query's predicates. Answers
        are clipped to [0, 1]; time is recorded under the ``answer``
        stage.
        """
        self._require_fitted()
        if self.config.record_workload:
            for node in plan.nodes:
                for predicates in node.predicates:
                    self._recorded.add(predicates)
        out = np.zeros(plan.num_queries)
        if not plan.nodes:
            return out
        with self.timings.time("answer"):
            high: List[AnswerNode] = []
            for node in plan.nodes:
                key, batch = node.key, node.predicates
                if len(key) == 1:
                    values = self._answer_singles(
                        key[0], [preds[0] for preds in batch])
                elif len(key) == 2:
                    values = self._pair_values(
                        key[0], key[1], [preds[0] for preds in batch],
                        [preds[1] for preds in batch])
                else:
                    high.append(node)
                    continue
                out[list(node.positions)] = np.clip(values, 0.0, 1.0)
            if high:
                for positions, values in self._answer_lambdas(high):
                    out[positions] = np.clip(values, 0.0, 1.0)
        return out

    def answer_workload(self, queries: Iterable[Query]) -> np.ndarray:
        """Batched workload answering (grouped by λ and attribute set).

        ``execute_answer_plan(plan_answers(queries))``: 1-D groups as one
        stacked weight/indicator matmul, 2-D groups as summed-area
        lookups or one indicator matmul, λ ≥ 3 groups through the
        batched Algorithm 4 IPF. Every primitive reduces in a
        batch-size-invariant order, so a query's answer does not depend
        on the rest of the workload (:meth:`answer` is a batch of one).
        """
        self._require_fitted()
        return self.execute_answer_plan(self.plan_answers(queries))

    # -- workload recording ------------------------------------------------------

    def recorded_workload(self) -> WorkloadSpec:
        """Harvest a :class:`WorkloadSpec` from the recorded queries.

        Requires ``config.record_workload=True`` and at least one
        answered query since the last :meth:`fit` — the record half of
        the declare-or-record loop (run blind, harvest, refit with
        ``config.workload`` set). Recording keeps running counts, not
        the queries, so its memory is bounded by the workload's shape.
        """
        if not self.config.record_workload:
            raise QueryError(
                "workload recording is off; construct the config with "
                "record_workload=True")
        return self._recorded.spec()

    def _indicator(self, predicate: Predicate) -> np.ndarray:
        domain = self.schema[predicate.attribute].domain_size
        return predicate.indicator(domain)

    def _answer_singles(self, t: int,
                        predicates: List[Predicate]) -> np.ndarray:
        """Batched 1-D answers on attribute ``t`` (one stacked matmul).

        The reduction is an ``einsum`` rather than ``@``: BLAS picks
        different gemv/gemm kernels by operand shape (so a batch of one
        need not reproduce a batch of many bit-for-bit), while einsum's
        fixed summation order is batch-size invariant.
        """
        if (t,) in self._estimates:
            estimate = self._estimates[(t,)]
            weights = np.stack([
                predicate_cell_weights(estimate.grid.binning, p,
                                       estimate.grid.attribute)
                for p in predicates])
            return np.einsum("ql,l->q", weights, estimate.frequencies,
                             optimize=False)
        marginal = self.marginal(t)
        indicators = np.stack([self._indicator(p) for p in predicates])
        return np.einsum("ql,l->q", indicators, marginal, optimize=False)

    def _range_bounds(self, predicates: List[Predicate]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        los = np.array([p.interval[0] for p in predicates], dtype=np.intp)
        his = np.array([p.interval[1] for p in predicates], dtype=np.intp)
        return los, his

    def _pair_values(self, ti: int, tj: int, preds_i: List[Predicate],
                     preds_j: List[Predicate]) -> np.ndarray:
        """Batched 2-D rectangle masses for schema pair ``(ti, tj)``.

        ``BETWEEN x BETWEEN`` queries hit the pair's summed-area table
        when it is materialized (O(1) each); everything else falls back to
        one stacked indicator matmul against the response matrix.
        """
        values = np.empty(len(preds_i))
        sat = self._sats.get((ti, tj))
        if sat is not None:
            fast = np.fromiter((pi.is_range and pj.is_range
                                for pi, pj in zip(preds_i, preds_j)),
                               dtype=bool, count=len(preds_i))
        else:
            fast = np.zeros(len(preds_i), dtype=bool)
        if fast.any():
            picks = np.flatnonzero(fast)
            r0, r1 = self._range_bounds([preds_i[q] for q in picks])
            c0, c1 = self._range_bounds([preds_j[q] for q in picks])
            values[picks] = sat.rectangle(r0, r1, c0, c1)
        if not fast.all():
            picks = np.flatnonzero(~fast)
            matrix = self.response_matrix(ti, tj)
            stack_i = np.stack([self._indicator(preds_i[q]) for q in picks])
            stack_j = np.stack([self._indicator(preds_j[q]) for q in picks])
            # einsum (not BLAS @) so a batch of one matches a batch of
            # many bit-for-bit — see _answer_singles.
            values[picks] = np.einsum("qi,ij,qj->q", stack_i, matrix,
                                      stack_j, optimize=False)
        return values

    def _pair_tables(self, ti: int, tj: int, preds_i: List[Predicate],
                     preds_j: List[Predicate]) -> np.ndarray:
        """Batched 2x2 sign tables for schema pair ``(ti, tj)``.

        Returns ``(R, 2, 2)`` tables indexed ``[request, sign_i, sign_j]``,
        via O(1) summed-area lookups for ``BETWEEN x BETWEEN`` requests on
        a materialized pair and one stacked indicator matmul for the
        rest. The path is chosen per request, so a table never depends
        on the rest of its batch.
        """
        tables = np.empty((len(preds_i), 2, 2))
        sat = self._sats.get((ti, tj))
        if sat is not None:
            fast = np.fromiter((pi.is_range and pj.is_range
                                for pi, pj in zip(preds_i, preds_j)),
                               dtype=bool, count=len(preds_i))
        else:
            fast = np.zeros(len(preds_i), dtype=bool)
        if fast.any():
            picks = np.flatnonzero(fast)
            r0, r1 = self._range_bounds([preds_i[q] for q in picks])
            c0, c1 = self._range_bounds([preds_j[q] for q in picks])
            tables[picks] = sat.sign_tables(r0, r1, c0, c1)
        if not fast.all():
            picks = np.flatnonzero(~fast)
            matrix = self.response_matrix(ti, tj)
            stack_i = np.stack([self._indicator(preds_i[q]) for q in picks])
            stack_j = np.stack([self._indicator(preds_j[q]) for q in picks])
            tables[picks] = pair_answers_tables(matrix, stack_i, stack_j)
        return tables

    def _lambda_tables(self, nodes: List[AnswerNode]
                       ) -> Dict[int, Tuple[List[int], np.ndarray]]:
        """Sign tables of every λ ≥ 3 node, built in one pass.

        Returns, per λ in first-encounter order, the workload positions
        of its queries (in node order) and their ``(Q, C(λ, 2), 2, 2)``
        tables. Every (query, pair position) request of every node is
        grouped by the schema pair it reads, so the whole batch makes at
        most ``C(k, 2)`` :meth:`_pair_tables` calls however its queries
        spread over attribute sets and λ.
        """
        by_lambda: Dict[int, List[AnswerNode]] = {}
        for node in nodes:
            by_lambda.setdefault(len(node.key), []).append(node)
        # One flat (R, 2, 2) buffer holds every request, λ by λ, each
        # λ's block its (Q, C(λ, 2)) table stack in row-major order:
        # visiting queries in node order and pair positions in canonical
        # order, a request's slot is the running count.
        groups: Dict[Tuple[int, int],
                     Tuple[List[int], List[Predicate], List[Predicate]]] = {}
        blocks = []
        slot = 0
        for dimension, members in by_lambda.items():
            pairs = canonical_pairs(dimension)
            start, positions = slot, []
            for node in members:
                key = node.key
                targets = [groups.setdefault((key[a], key[b]), ([], [], []))
                           for a, b in pairs]
                for preds in node.predicates:
                    for (a, b), (slots, preds_i, preds_j) in zip(pairs,
                                                                 targets):
                        slots.append(slot)
                        preds_i.append(preds[a])
                        preds_j.append(preds[b])
                        slot += 1
                positions.extend(node.positions)
            blocks.append((dimension, positions, start, slot, len(pairs)))
        flat = np.empty((slot, 2, 2))
        for (ti, tj), (slots, preds_i, preds_j) in groups.items():
            flat[slots] = self._pair_tables(ti, tj, preds_i, preds_j)
        return {dimension: (positions,
                            flat[start:stop].reshape(-1, width, 2, 2))
                for dimension, positions, start, stop, width in blocks}

    def _answer_lambdas(self, nodes: List[AnswerNode]
                        ) -> List[Tuple[List[int], np.ndarray]]:
        """λ ≥ 3 answers of ``nodes``: ``(positions, values)`` per λ.

        Runs ONE batched Algorithm 4 IPF per λ over the tables of
        :meth:`_lambda_tables`: the IPF sees only predicate positions,
        and per-query freezing keeps every row identical to its solo run.
        """
        answers = []
        for dimension, (positions, tables) in self._lambda_tables(
                nodes).items():
            values, sweeps, converged = fit_lambda_queries(
                tables, dimension, self._tolerance,
                max_iters=self.config.lambda_max_iters)
            self._record_lambda(sweeps, converged)
            if not converged.all():
                behind = int((~converged).sum())
                warnings.warn(
                    f"lambda-query batch (lambda={dimension}): {behind} of "
                    f"{len(tables)} queries still moving at the sweep cap "
                    f"({self.config.lambda_max_iters})",
                    ConvergenceWarning, stacklevel=3)
            answers.append((positions, values))
        return answers
