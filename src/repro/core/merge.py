"""Report merging shared by the batch and budget-split paths.

Every mergeable frequency-oracle report type is an associative monoid
under concatenation of the underlying user batches: merging the reports
of two disjoint user sets yields exactly the report the oracle would have
produced for the union (per-user-row types concatenate; sufficient-
statistic types add). That associativity is what lets the sharded
collection executor perturb ``(group, chunk)`` shards independently and
reduce them in any grouping through :func:`merge_reports`. The same
property makes :class:`~repro.core.streaming.StreamingCollector`'s folds
exact, but the collector goes one step further: it reduces reports to
per-grid sufficient statistics (:meth:`repro.fo.base.FrequencyOracle.fold`)
instead of merging them.

Which report types merge, and how, is the protocol registry's knowledge
(:mod:`repro.fo.registry`): each :class:`~repro.fo.registry.ProtocolSpec`
carries its report type and merge monoid, and this module dispatches on
them. Protocols flagged unmergeable (AHEAD's interactive tree refinement
consumes its whole group at once) must be rejected up front by
configurations that need mergeability — use :func:`mergeable_protocol`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProtocolError
from repro.fo.registry import (
    ADAPTIVE,
    mergeable_protocol_names,
    registered_names,
    spec_for_report,
)


def __getattr__(name: str):
    # MERGEABLE_PROTOCOLS is derived from the live registry (a protocol
    # registered after this module was imported still shows up), hence a
    # module __getattr__ rather than a frozen module constant.
    if name == "MERGEABLE_PROTOCOLS":
        return frozenset(mergeable_protocol_names()) | {ADAPTIVE}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def mergeable_protocol(protocol: str) -> bool:
    """True when ``protocol`` produces reports that can be merged.

    ``adaptive`` resolves to a concrete (always mergeable) candidate at
    planning time, so it counts as mergeable; unregistered names do not.
    """
    if protocol == ADAPTIVE:
        return True
    return (protocol in registered_names()
            and protocol in mergeable_protocol_names())


def merge_reports(reports: List[object]) -> Optional[object]:
    """Combine report batches of the same protocol and parameters.

    The merge is associative and order-insensitive up to report-internal
    ordering (per-user-row types concatenate their arrays in the order
    given; every estimator downstream is permutation-invariant). Returns
    ``None`` for an empty list, so accumulators need no empty-group
    special case.

    Untrusted reports are checked against their plan first, with
    :func:`repro.robustness.sanitize_reports`; merge its survivors.
    """
    reports = [r for r in reports if r is not None]
    if not reports:
        return None
    first = reports[0]
    if len(reports) == 1:
        # Identity merge — valid for any report, including single-shard
        # unmergeable backends (a fitted AHEAD model).
        return first
    spec = spec_for_report(type(first))
    if spec is None or spec.merger is None:
        raise ProtocolError(
            f"unsupported report type {type(first).__name__}; mergeable "
            f"types: {sorted(t.__name__ for t in _mergeable_types())}")
    if any(type(r) is not type(first) for r in reports):
        raise ProtocolError(
            f"cannot merge mixed report types "
            f"{sorted({type(r).__name__ for r in reports})}")
    return spec.merger(reports)


def _mergeable_types():
    from repro.fo.registry import all_specs
    return {s.report_type for s in all_specs()
            if s.report_type is not None and s.merger is not None}
