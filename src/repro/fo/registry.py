"""The protocol registry: one :class:`ProtocolSpec` per frequency oracle.

Before this module existed, "what is a protocol" was spread over six
parallel dispatch tables — the oracle factory in ``fo/adaptive.py``, a
report-merger map in ``core/merge.py``, the sanitizer map in
``robustness/policy.py``, the known-name whitelist in ``core/config.py``,
the variance-class tuple in ``grids/sizing.py``, and hardcoded
``protocol == "ahead"`` branches in the planner/client/server/streaming
layers. Every new oracle had to touch all of them, and they drifted.

Now a protocol is one :class:`ProtocolSpec` value: its name, how to build
its oracle, which report type it emits, how an untrusted report is
sanitized, its analytic and planning variance models, and capability
flags that every layer queries instead of matching names. How reports
combine is not spec payload: every collection path folds each shard's
report with its oracle (:meth:`repro.fo.base.FrequencyOracle.fold`) and
merges the folded states (:func:`repro.core.merge.merge_reports`), the
same for every protocol. The flags:

* ``budget_splittable`` — the protocol works at ``epsilon / m`` under the
  sequential-composition strawman (``partition_mode="budget"``).
* ``streamable`` — batches may arrive over time, folded into one state
  per grid (needs an oracle ``factory``).
* ``one_d_only`` — a 1-D refinement backend selected via
  ``FelipConfig.one_d_protocol`` (SW, AHEAD), not pinnable via
  ``FelipConfig.protocols``.
* ``adaptive_candidate`` — considered by the adaptive frequency-oracle
  choice (paper Section 5.3) and by default grid planning.

Registering a spec (see :mod:`repro.fo.hr` for a complete worked example)
is the *only* step needed to make a new protocol usable end-to-end:
batch, sharded, streaming, budget-split, robustness ingestion, and grid
sizing all dispatch through the accessors here.

This module also hosts the specs of the eight built-in protocols, which
is why the per-protocol sanitizers live here: they are spec payload, not
layer logic. ``tests/test_registry_lint.py`` enforces that
no other module under ``src/repro`` dispatches on protocol name literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.fo import kernels as fo_kernels
from repro.fo.base import FrequencyOracle
from repro.fo.grr import GeneralizedRandomizedResponse, GRRReport
from repro.fo.he import (
    SHEReport,
    SummationHistogramEncoding,
    THEReport,
    ThresholdHistogramEncoding,
)
from repro.fo.olh import OLHReport, OptimizedLocalHashing
from repro.fo.oue import OptimizedUnaryEncoding, OUEReport
from repro.fo.square_wave import SquareWave, SWReport
from repro.fo.sue import SymmetricUnaryEncoding
from repro.fo.variance import grr_variance, olh_variance
from repro.robustness.ingest import Reject, ReportSpec, check_feasible_total


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the pipeline needs to know about one protocol.

    Attributes
    ----------
    name:
        Short identifier used in configs and plans (``"grr"``, ``"olh"``).
    factory:
        ``(epsilon, domain_size) -> FrequencyOracle``, or ``None`` for
        backends with no standalone client oracle (AHEAD, which consumes
        its whole group through :attr:`interactive_fit`).
    report_type:
        The report class :meth:`FrequencyOracle.perturb` returns. Several
        specs may share one (SUE perturbs into OUE's container); the first
        registered owner handles sanitizing for the type.
    sanitizer:
        ``(report, ReportSpec) -> None`` comparing one untrusted report
        with the plan: raises :class:`~repro.robustness.ingest.Reject`
        when a declared parameter differs from the
        :class:`~repro.robustness.ReportSpec` or a total is infeasible.
        The report's structure is its constructor's to check. ``None``
        means reports of this protocol pass through admission control
        unchecked (trusted in-process payloads only).
    analytic_variance:
        ``(epsilon, num_cells, n) -> float``: per-value estimation
        variance from ``n`` reports. Drives the adaptive choice and the
        budget-mode consistency weights.
    cell_variance:
        ``(SizingParams, num_cells) -> float``: the grid-planning
        per-cell variance model (includes the group factor ``m/n``).
    variance_grows_with_cells:
        True when per-cell variance grows with the cell count (GRR);
        selects the bisection solver branch in :mod:`repro.grids.sizing`
        instead of the size-independent closed forms.
    budget_splittable, streamable, one_d_only, adaptive_candidate:
        Capability flags; see the module docstring.
    wire_code:
        Stable one-byte protocol tag for the binary wire codec
        (:mod:`repro.wire`). Codes are part of the wire format: once a
        code has shipped it must never be reassigned to a different
        protocol (retire codes, don't recycle them). ``None`` means
        reports of this protocol cannot travel over the wire (AHEAD's
        interactive models have no standalone report).
    interactive_fit:
        ``(planned, column, epsilon, rng) -> report`` for backends that
        consume a whole group interactively instead of a one-shot
        ``perturb`` (AHEAD's tree refinement).
    grid_estimator:
        ``(GroupReport) -> GridEstimate`` for backends whose report
        carries its own (data-adaptive) grid structure; ``None`` means
        the aggregator unbiases the group's folded state with
        ``factory(...).unbias(state)``.
    kernels:
        Names of the :mod:`repro.fo.kernels` hot-path kernels this
        protocol dispatches to (perturb transforms, support sweeps,
        state folds). Purely declarative — the oracle modules call the
        kernel layer directly — but it lets
        :func:`~repro.fo.adaptive.make_oracle` and :func:`kernels_for`
        warm exactly the kernels a plan will hit before any timed work,
        so JIT-compile or shared-library-load cost never lands inside a
        measured stage.
        Names are validated against
        :data:`repro.fo.kernels.KERNEL_NAMES` at registration.
    """

    name: str
    factory: Optional[Callable[[float, int], FrequencyOracle]] = None
    report_type: Optional[type] = None
    sanitizer: Optional[Callable[[object, ReportSpec], None]] = None
    analytic_variance: Optional[Callable[[float, int, int], float]] = None
    cell_variance: Optional[Callable[[object, int], float]] = None
    variance_grows_with_cells: bool = False
    budget_splittable: bool = True
    streamable: bool = True
    one_d_only: bool = False
    adaptive_candidate: bool = False
    wire_code: Optional[int] = None
    interactive_fit: Optional[Callable] = None
    grid_estimator: Optional[Callable] = None
    kernels: Tuple[str, ...] = ()


_REGISTRY: Dict[str, ProtocolSpec] = {}
_BY_REPORT_TYPE: Dict[type, ProtocolSpec] = {}
_BY_WIRE_CODE: Dict[int, ProtocolSpec] = {}

#: the pseudo-protocol resolved to a concrete adaptive candidate at
#: planning time; accepted by name-based predicates, never registered
ADAPTIVE = "adaptive"


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a protocol to the registry; returns the spec for convenience.

    Validates internal consistency up front so a broken spec fails at
    import time, not deep inside a collection: a spec without a
    client-side oracle factory must provide the interactive fitting path
    instead, and cannot be streamable (a stream folds every report with
    the grid's oracle).
    """
    if not spec.name or spec.name == ADAPTIVE:
        raise ConfigurationError(
            f"invalid protocol name {spec.name!r}: must be a non-empty "
            f"name other than {ADAPTIVE!r}")
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"protocol {spec.name!r} is already registered; unregister it "
            f"first to replace the spec")
    if spec.factory is None and spec.interactive_fit is None:
        raise ConfigurationError(
            f"protocol {spec.name!r} provides neither an oracle factory "
            f"nor an interactive_fit collection path")
    if spec.streamable and spec.factory is None:
        raise ConfigurationError(
            f"protocol {spec.name!r} is flagged streamable but has no "
            f"oracle factory; a stream folds every report with the "
            f"grid's oracle")
    if spec.wire_code is not None:
        if not 1 <= spec.wire_code <= 255:
            raise ConfigurationError(
                f"protocol {spec.name!r} wire_code must fit one byte "
                f"(1..255), got {spec.wire_code}")
        if spec.wire_code in _BY_WIRE_CODE:
            raise ConfigurationError(
                f"wire_code {spec.wire_code} of protocol {spec.name!r} is "
                f"already taken by "
                f"{_BY_WIRE_CODE[spec.wire_code].name!r}; wire codes are "
                f"part of the frame format and must be unique forever")
        if spec.report_type is None:
            raise ConfigurationError(
                f"protocol {spec.name!r} declares wire_code "
                f"{spec.wire_code} but no report_type to decode into")
    unknown = [k for k in spec.kernels if k not in fo_kernels.KERNEL_NAMES]
    if unknown:
        raise ConfigurationError(
            f"protocol {spec.name!r} declares unknown kernels {unknown}; "
            f"known kernels: {list(fo_kernels.KERNEL_NAMES)}")
    _REGISTRY[spec.name] = spec
    if spec.report_type is not None and \
            spec.report_type not in _BY_REPORT_TYPE:
        # First owner wins: SUE shares OUE's report container, so OUE's
        # spec handles OUEReport sanitizing.
        _BY_REPORT_TYPE[spec.report_type] = spec
    if spec.wire_code is not None:
        _BY_WIRE_CODE[spec.wire_code] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a protocol (test hook); unknown names are a no-op."""
    spec = _REGISTRY.pop(name, None)
    if spec is None:
        return
    _BY_REPORT_TYPE.clear()
    _BY_WIRE_CODE.clear()
    for other in _REGISTRY.values():
        if other.report_type is not None and \
                other.report_type not in _BY_REPORT_TYPE:
            _BY_REPORT_TYPE[other.report_type] = other
        if other.wire_code is not None:
            _BY_WIRE_CODE[other.wire_code] = other


def get(name: str) -> ProtocolSpec:
    """The spec registered under ``name``.

    This is the single source of the unknown-protocol error: every layer
    (oracle construction, config validation, grid sizing) raises the same
    :class:`~repro.errors.ConfigurationError` listing what is actually
    registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{list(_REGISTRY)} (or {ADAPTIVE!r}, resolved to a concrete "
            f"candidate at planning time)") from None


def registered_names() -> Tuple[str, ...]:
    """All registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def all_specs() -> Tuple[ProtocolSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def spec_for_report(report_type: type) -> Optional[ProtocolSpec]:
    """The spec owning a report class, or ``None`` for foreign types."""
    return _BY_REPORT_TYPE.get(report_type)


def spec_for_wire_code(code: int) -> Optional[ProtocolSpec]:
    """The spec registered under a wire protocol tag, or ``None``.

    The binary codec (:mod:`repro.wire`) resolves the frame header's
    one-byte protocol tag here, so a newly registered protocol with a
    ``wire_code`` becomes decodable with zero codec edits.
    """
    return _BY_WIRE_CODE.get(int(code))


def wire_codes() -> Dict[str, int]:
    """``{protocol name: wire code}`` for every wire-capable protocol."""
    return {s.name: s.wire_code for s in _REGISTRY.values()
            if s.wire_code is not None}


def adaptive_candidates() -> Tuple[ProtocolSpec, ...]:
    """Specs the adaptive frequency-oracle choice considers, in order.

    Registration order is the tie-break: the first candidate whose
    variance no later candidate strictly beats wins (GRR before OLH
    reproduces the paper's Eq. 13 ``<=`` comparison exactly).
    """
    return tuple(s for s in _REGISTRY.values() if s.adaptive_candidate)


def kernels_for(protocols: Iterable[str]) -> Tuple[str, ...]:
    """The union of hot-path kernel names a set of protocols dispatches
    to, for targeted :func:`repro.fo.kernels.warm` calls before timed
    work. The :data:`ADAPTIVE` pseudo-protocol expands to every adaptive
    candidate (the concrete choice is not known until planning runs).
    Order follows :data:`repro.fo.kernels.KERNEL_NAMES` for determinism.
    """
    wanted = set()
    for name in protocols:
        specs = adaptive_candidates() if name == ADAPTIVE else (get(name),)
        for spec in specs:
            wanted.update(spec.kernels)
    return tuple(k for k in fo_kernels.KERNEL_NAMES if k in wanted)


def pinnable_protocol_names() -> Tuple[str, ...]:
    """Names valid in ``FelipConfig.protocols`` (not 1-D-only backends)."""
    return tuple(n for n, s in _REGISTRY.items() if not s.one_d_only)


def one_d_protocol_names() -> Tuple[str, ...]:
    """Names valid in ``FelipConfig.one_d_protocol``."""
    return tuple(n for n, s in _REGISTRY.items() if s.one_d_only)


# ---------------------------------------------------------------------------
# Ingestion sanitizers of the built-in report types (dispatched by
# repro.robustness.policy.sanitize_report). A report's constructor has
# already checked its structure, so a sanitizer only compares what the
# report declares with the plan's ReportSpec, and its totals with the
# k-sigma band an honest batch falls in.
# ---------------------------------------------------------------------------


def _check_domain(report, expected: ReportSpec) -> None:
    if report.domain_size != expected.domain_size:
        raise Reject("domain-mismatch",
                     f"declared {report.domain_size}, "
                     f"expected {expected.domain_size}")


def _check_length(vector: np.ndarray, name: str, length: int) -> None:
    if len(vector) != length:
        raise Reject(f"{name}-wrong-shape",
                     f"length {len(vector)}, expected {length}")


def _check_unary_total(n: int, counts: np.ndarray,
                       expected: ReportSpec) -> None:
    """Honest total one-bits: Binomial(n, p) + Binomial(n(d-1), q)."""
    if n:
        p, q, d = expected.p, expected.q, len(counts)
        check_feasible_total(float(counts.sum()), n * (p + q * (d - 1)),
                             n * p * (1 - p) + n * (d - 1) * q * (1 - q))


def _sanitize_grr(report: GRRReport, expected: ReportSpec) -> None:
    _check_domain(report, expected)


def _sanitize_olh(report: OLHReport, expected: ReportSpec) -> None:
    if report.hash_range != expected.hash_range:
        raise Reject("hash-range-mismatch",
                     f"declared {report.hash_range}, expected "
                     f"{expected.hash_range}")
    _check_domain(report, expected)


def _sanitize_oue(report: OUEReport, expected: ReportSpec) -> None:
    _check_length(report.ones, "ones", expected.domain_size)
    _check_unary_total(report.n, report.ones, expected)


def _sanitize_she(report: SHEReport, expected: ReportSpec) -> None:
    _check_length(report.sums, "sums", expected.domain_size)
    if report.n:
        # Each honest user contributes exactly one one-hot unit plus
        # zero-mean Laplace(scale) noise on every coordinate, so the
        # grand total is n ± noise with variance n·d·2·scale².
        check_feasible_total(
            float(report.sums.sum()), float(report.n),
            report.n * len(report.sums) * 2.0 * expected.scale ** 2)


def _sanitize_the(report: THEReport, expected: ReportSpec) -> None:
    _check_length(report.supports, "supports", expected.domain_size)
    if abs(report.threshold - expected.threshold) > 1e-9:
        raise Reject("threshold-mismatch",
                     f"declared θ={report.threshold}, expected "
                     f"{expected.threshold}")
    _check_unary_total(report.n, report.supports, expected)


def _sanitize_sw(report: SWReport, expected: ReportSpec) -> None:
    _check_length(report.counts, "counts", expected.report_buckets)
    if abs(report.wave_width - expected.wave_width) > 1e-9:
        raise Reject("wave-width-mismatch",
                     f"declared b={report.wave_width}, expected "
                     f"{expected.wave_width}")


# ---------------------------------------------------------------------------
# Variance models. The unary/histogram/square-wave protocols have no
# closed form that grows with the cell count; OLH's size-independent
# variance is their planning proxy (exactly the pre-registry behavior).
# ---------------------------------------------------------------------------


def _grr_analytic(epsilon: float, num_cells: int, n: int) -> float:
    return grr_variance(epsilon, num_cells, n)


def _olh_class_analytic(epsilon: float, num_cells: int, n: int) -> float:
    return olh_variance(epsilon, n)


def _grr_cell_variance(params, num_cells: int) -> float:
    return params.cell_variance_grr(num_cells)


def _olh_class_cell_variance(params, num_cells: int) -> float:
    return params.cell_variance_olh


# ---------------------------------------------------------------------------
# AHEAD's interactive collection and estimation paths. Imports stay local:
# baselines and grids both import repro.fo, so a module-level import here
# would be a cycle.
# ---------------------------------------------------------------------------


def _fit_ahead(planned, column: np.ndarray, epsilon: float, rng):
    """Run the AHEAD adaptive decomposition on one group's column.

    The group's users are partitioned across AHEAD's tree-building rounds
    internally; each still submits exactly one ε-LDP report.
    """
    from repro.baselines.ahead import Ahead1D
    model = Ahead1D(planned.grid.attribute.domain_size, epsilon)
    return model.fit(column, rng)


def _estimate_ahead_group(group):
    """Turn a fitted AHEAD model into a (data-adaptively binned) grid.

    The planned placeholder grid is replaced by one whose binning is the
    model's final frontier — finer cells where the data is — and whose
    frequencies are the frontier estimates. Downstream stages
    (consistency, response matrices) already handle arbitrary contiguous
    binnings.
    """
    from repro.grids.binning import Binning
    from repro.grids.grid import Grid1D, GridEstimate
    model = group.report
    intervals = model.frontier
    edges = np.array([iv.lo for iv in intervals]
                     + [intervals[-1].hi + 1], dtype=np.int64)
    binning = Binning.from_edges(edges)
    grid = Grid1D(group.planned.grid.attr_index,
                  group.planned.grid.attribute, binning)
    freqs = np.array([iv.frequency for iv in intervals])
    return GridEstimate(grid=grid, frequencies=freqs)


# ---------------------------------------------------------------------------
# Built-in protocol specs. Registration order matters for tie-breaking:
# GRR before OLH reproduces the paper's Eq. 13 "GRR on ties" choice, and
# plan_grid keeps the earliest-registered candidate on equal predicted
# error.
# ---------------------------------------------------------------------------


register(ProtocolSpec(
    name="grr",
    wire_code=1,
    factory=GeneralizedRandomizedResponse,
    report_type=GRRReport,
    sanitizer=_sanitize_grr,
    analytic_variance=_grr_analytic,
    cell_variance=_grr_cell_variance,
    variance_grows_with_cells=True,
    adaptive_candidate=True,
    kernels=("grr_apply",),
))

register(ProtocolSpec(
    name="olh",
    wire_code=2,
    factory=OptimizedLocalHashing,
    report_type=OLHReport,
    sanitizer=_sanitize_olh,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    adaptive_candidate=True,
    kernels=("olh_perturb", "mix_seeds", "support_counts"),
))

register(ProtocolSpec(
    name="oue",
    wire_code=3,
    factory=OptimizedUnaryEncoding,
    report_type=OUEReport,
    sanitizer=_sanitize_oue,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("ue_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="sue",
    wire_code=4,
    factory=SymmetricUnaryEncoding,
    report_type=OUEReport,  # SUE perturbs into OUE's container
    sanitizer=_sanitize_oue,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("ue_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="she",
    wire_code=5,
    factory=SummationHistogramEncoding,
    report_type=SHEReport,
    sanitizer=_sanitize_she,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("he_sum_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="the",
    wire_code=6,
    factory=ThresholdHistogramEncoding,
    report_type=THEReport,
    sanitizer=_sanitize_the,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    kernels=("he_threshold_accumulate", "fold_arrays"),
))

register(ProtocolSpec(
    name="sw",
    wire_code=7,
    factory=SquareWave,
    report_type=SWReport,
    sanitizer=_sanitize_sw,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    one_d_only=True,
    kernels=("sw_transform", "fold_arrays"),
))

register(ProtocolSpec(
    name="ahead",
    factory=None,
    report_type=None,
    sanitizer=None,
    analytic_variance=_olh_class_analytic,
    cell_variance=_olh_class_cell_variance,
    budget_splittable=False,
    streamable=False,
    one_d_only=True,
    interactive_fit=_fit_ahead,
    grid_estimator=_estimate_ahead_group,
))
