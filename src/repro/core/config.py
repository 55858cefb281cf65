"""FELIP strategy configuration.

One dataclass covers the paper's four strategies and the two baselines that
share the grid machinery:

==========  ==========  ============  ===================  =================
Strategy    ``strategy``  ``protocols``  ``shared_granularity``  selectivity
==========  ==========  ============  ===================  =================
OUG         ``"oug"``   grr+olh       False                aggregator's prior
OHG         ``"ohg"``   grr+olh       False                aggregator's prior
OUG-OLH     ``"oug"``   olh only      False                aggregator's prior
OHG-OLH     ``"ohg"``   olh only      False                aggregator's prior
TDG         ``"oug"``   olh only      True (+pow2)         fixed 0.5
HDG         ``"ohg"``   olh only      True (+pow2)         fixed 0.5
==========  ==========  ============  ===================  =================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.optimizer.workload import WorkloadSpec
from repro.fo.registry import (
    get as protocol_spec,
    one_d_protocol_names,
    pinnable_protocol_names,
)
from repro.robustness.detect import validate_detector_names
from repro.robustness.ingest import INGEST_MODES

_STRATEGIES = ("oug", "ohg")
_PARTITION_MODES = ("users", "budget")


@dataclass(frozen=True)
class FelipConfig:
    """All knobs of a FELIP-style collection.

    Attributes
    ----------
    epsilon:
        Privacy budget ε; every user spends all of it on one report.
    strategy:
        ``"oug"`` (2-D grids only) or ``"ohg"`` (plus 1-D refinement grids
        for numerical attributes).
    protocols:
        Candidate frequency oracles for the adaptive choice. A single-entry
        tuple pins the protocol (the paper's OUG-OLH / OHG-OLH variants).
    alpha1, alpha2:
        Non-uniformity constants (paper defaults 0.7 / 0.03).
    expected_selectivity:
        The aggregator's prior on per-attribute query selectivity ``r``,
        used when sizing grids (FELIP's "incorporate knowledge of query
        selectivity"; TDG/HDG hard-code 0.5).
    selectivity_overrides:
        Optional per-attribute-name selectivity priors.
    postprocess_rounds:
        Consistency/non-negativity alternations (0 = non-negativity only).
    response_matrix_max_iters, lambda_max_iters:
        Iteration caps of Algorithms 3 and 4.
    shared_granularity:
        TDG/HDG mode: one granularity for all 1-D grids and one for all 2-D
        numerical axes, derived from the largest numerical domain.
    power_of_two_granularity:
        TDG/HDG mode: round granularities to the nearest power of two.
    partition_mode:
        ``"users"`` (the paper's design, Theorem 5.1): the population is
        split into m groups, each user reports one grid with full ε.
        ``"budget"``: every user reports every grid with ε/m (sequential
        composition) — strictly worse (the theorem), provided for the
        empirical demonstration and ablations.
    one_d_protocol:
        ``"sw"`` replaces OHG's binned 1-D refinement grids with the
        Square Wave mechanism over the full value domain (EM/EMS
        reconstruction; an extension following the paper's reference
        [25]). ``"ahead"`` uses the AHEAD-style *data-adaptive* binning
        (extension implementing the paper's "avoid cells with low true
        counts" future-work note). ``None`` (default) keeps the paper's
        grid design. Incompatible with ``partition_mode="budget"``: AHEAD
        needs each group's full per-user budget for its interactive
        refinement rounds and cannot be budget-split.
    workers:
        Pool width of the sharded collection/estimation executor
        (``1`` = serial, ``0`` = one worker per CPU). Parallelism never
        changes outputs: shards draw from deterministically spawned
        generators and are reduced in a fixed order, so results are a
        pure function of ``(seed, chunk_size)``.
    chunk_size:
        Rows per client-side shard within a group (``None`` = whole
        groups). ``None`` additionally makes the sharded executor
        bit-identical to the serial reference path under a fixed seed.
    ingest_policy:
        What the aggregator does with reports that fail ingestion
        validation (``repro.robustness``): ``"strict"`` raises
        :class:`~repro.errors.IngestError` (default — an invalid report
        in a trusted pipeline means a bug), ``"drop"`` discards and
        counts, ``"quarantine"`` discards, counts, and retains a bounded
        audit trail. Counters surface in
        ``Aggregator.robustness_report()``.
    detectors:
        Feasibility detectors run on the *raw* per-grid estimates at the
        start of the postprocess stage: any subset of ``("range", "l1",
        "imbalance")``. Detectors only flag (in the robustness report);
        they never mutate estimates. Empty (default) = off.
    shard_retries:
        Extra attempts per shard after a transient (non-``ReproError``)
        failure in the sharded executor, with exponential backoff.
        Retried shards replay the same spawned RNG stream, so retries
        never change the collected output.
    workload:
        Optional :class:`repro.optimizer.WorkloadSpec` describing the
        expected query workload. When set, the planner sizes grids
        against the spec's per-attribute selectivity *moments* (the
        workload-weighted expected objectives in ``repro.grids.sizing``)
        instead of the scalar priors above, and ``materialize()``
        defaults to the workload-pruned pair set chosen by
        :func:`repro.optimizer.plan_materialization`. ``None`` (default)
        keeps the workload-blind legacy behavior bit-for-bit.
    materialize_budget_bytes:
        Optional memory budget for eager pair materialization (response
        matrix + summed-area table, float64 bytes). Only consulted
        together with ``workload``-driven or explicit budgeted
        materialization planning; ``None`` = unbounded.
    record_workload:
        When True the aggregator records every query it answers, and
        ``Aggregator.recorded_workload()`` harvests a
        :class:`~repro.optimizer.WorkloadSpec` from the recording — the
        declare-or-record loop: run blind once, harvest, refit with
        ``workload=`` set.
    """

    epsilon: float = 1.0
    strategy: str = "ohg"
    protocols: Tuple[str, ...] = ("grr", "olh")
    alpha1: float = 0.7
    alpha2: float = 0.03
    expected_selectivity: float = 0.5
    selectivity_overrides: Dict[str, float] = field(default_factory=dict)
    postprocess_rounds: int = 2
    response_matrix_max_iters: int = 100
    lambda_max_iters: int = 500
    shared_granularity: bool = False
    power_of_two_granularity: bool = False
    partition_mode: str = "users"
    one_d_protocol: str = None
    workers: int = 1
    chunk_size: Optional[int] = None
    ingest_policy: str = "strict"
    detectors: Tuple[str, ...] = ()
    shard_retries: int = 2
    workload: Optional[WorkloadSpec] = None
    materialize_budget_bytes: Optional[int] = None
    record_workload: bool = False

    def __post_init__(self) -> None:
        if self.workload is not None and \
                not isinstance(self.workload, WorkloadSpec):
            raise ConfigurationError(
                f"workload must be a repro.optimizer.WorkloadSpec or None, "
                f"got {type(self.workload).__name__}")
        if self.materialize_budget_bytes is not None and \
                self.materialize_budget_bytes < 0:
            raise ConfigurationError(
                f"materialize_budget_bytes must be None or >= 0, got "
                f"{self.materialize_budget_bytes}")
        if self.ingest_policy not in INGEST_MODES:
            raise ConfigurationError(
                f"ingest_policy must be one of {INGEST_MODES}, "
                f"got {self.ingest_policy!r}")
        validate_detector_names(self.detectors)
        if self.shard_retries < 0:
            raise ConfigurationError(
                f"shard_retries must be >= 0, got {self.shard_retries}")
        if self.partition_mode not in _PARTITION_MODES:
            raise ConfigurationError(
                f"partition_mode must be one of {_PARTITION_MODES}, "
                f"got {self.partition_mode!r}")
        if self.one_d_protocol is not None:
            spec = protocol_spec(self.one_d_protocol)
            if not spec.one_d_only:
                raise ConfigurationError(
                    f"one_d_protocol must be None or one of "
                    f"{list(one_d_protocol_names())}, "
                    f"got {self.one_d_protocol!r}")
            if self.partition_mode == "budget" and \
                    not spec.budget_splittable:
                raise ConfigurationError(
                    f"partition_mode='budget' cannot be combined with "
                    f"one_d_protocol={self.one_d_protocol!r}: its "
                    f"adaptive refinement needs each group's full "
                    f"per-user budget and cannot report every grid with "
                    f"epsilon/m; use partition_mode='users' or a "
                    f"budget-splittable 1-D backend")
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0 (0 = one per CPU), got "
                f"{self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be None or >= 1, got {self.chunk_size}")
        if self.epsilon <= 0:
            raise ConfigurationError(
                f"epsilon must be positive, got {self.epsilon}")
        if self.strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {_STRATEGIES}, "
                f"got {self.strategy!r}")
        if not self.protocols:
            raise ConfigurationError("need at least one candidate protocol")
        known = pinnable_protocol_names()
        unknown = [p for p in self.protocols if p not in known]
        if unknown:
            raise ConfigurationError(
                f"unknown protocols {unknown}; expected a subset of the "
                f"registered pinnable protocols {list(known)} (1-D-only "
                f"backends are selected via one_d_protocol)")
        if not 0.0 < self.expected_selectivity <= 1.0:
            raise ConfigurationError(
                f"expected_selectivity must be in (0, 1], got "
                f"{self.expected_selectivity}")
        for name, value in self.selectivity_overrides.items():
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(
                    f"selectivity override for {name!r} must be in (0, 1], "
                    f"got {value}")
        if self.postprocess_rounds < 0:
            raise ConfigurationError("postprocess_rounds must be >= 0")
        if self.response_matrix_max_iters < 1:
            raise ConfigurationError("response_matrix_max_iters must be >= 1")
        if self.lambda_max_iters < 1:
            raise ConfigurationError("lambda_max_iters must be >= 1")

    def selectivity_for(self, attribute_name: str) -> float:
        """The planning selectivity prior for one attribute."""
        return self.selectivity_overrides.get(attribute_name,
                                              self.expected_selectivity)

    def selectivity_moments_for(self, attribute_name: str
                                ) -> Optional[Tuple[float, float]]:
        """``(E[r], E[r²])`` from the declared workload, if any.

        ``None`` means "no workload knowledge for this attribute" — the
        planner then falls back to the scalar :meth:`selectivity_for`
        prior and the legacy fixed-selectivity sizing objectives.
        """
        if self.workload is None:
            return None
        return self.workload.selectivity_moments(attribute_name)

    @property
    def uses_1d_grids(self) -> bool:
        """True for the hybrid (OHG / HDG) strategies."""
        return self.strategy == "ohg"
