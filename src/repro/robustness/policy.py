"""Ingestion policies: check untrusted reports against the plan.

A deployed aggregator receives perturbed reports from clients it does not
control. Nothing stops a faulty or adversarial client from sending values
outside the protocol's domain, buckets outside the hash range, mis-shaped
bit vectors, NaN-laden sufficient statistics, or a well-formed report that
lies about its parameters — and a single such report must neither crash
the collection nor silently corrupt every downstream estimate. Two checks
stand between a client and the estimates, each made once:

* **Structure** — a report's constructor. Every report type validates its
  own shapes, dtypes, finiteness and row/counter bounds, and the wire
  decoder (:func:`repro.wire.decode_frame`) builds every report through
  it, so a structurally invalid frame is a
  :class:`~repro.errors.PayloadError` that never reaches this module.
* **The plan** — the frame's header pin (checked by the ingestion
  service) and :func:`sanitize_report` here. Each protocol's sanitizer
  lives with its :class:`~repro.fo.registry.ProtocolSpec`, so a newly
  registered protocol is checked here with zero edits to this module. It
  compares the report's declared parameters (domain, hash range,
  Hadamard order, θ, wave width, vector length) with the expected
  :class:`ReportSpec` and applies a *feasibility* test where the
  protocol admits one: the total weight of an honest batch concentrates
  tightly around its expectation (e.g. an OUE batch of ``n`` users
  carries ``n·(p + q(d-1))`` one-bits in expectation), so an aggregate
  report whose totals sit many standard deviations away cannot have been
  produced by honest clients and is rejected as infeasible.

:class:`IngestPolicy` decides what a rejection does: ``strict`` (raise
:class:`~repro.errors.IngestError`), ``drop`` (discard and count), or
``quarantine`` (discard, count, and retain a bounded audit trail). It is
defined in :mod:`repro.robustness.ingest` together with
:class:`IngestStats` and :class:`ReportSpec`, and re-exported here for
the public API.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import IngestError
from repro.robustness.ingest import (
    INGEST_MODES,
    IngestPolicy,
    IngestStats,
    Reject,
    ReportSpec,
    report_user_count,
)

__all__ = [
    "INGEST_MODES",
    "IngestPolicy",
    "IngestStats",
    "ReportSpec",
    "report_user_count",
    "sanitize_report",
    "sanitize_reports",
]


def sanitize_report(report, policy: IngestPolicy,
                    stats: Optional[IngestStats] = None, *,
                    expected: ReportSpec, source: str = ""):
    """Check one untrusted report against its plan under ``policy``.

    Returns ``report`` itself when it agrees with ``expected`` (the
    plan's :class:`ReportSpec`), or ``None`` when it was rejected under
    ``drop``/``quarantine``; ``strict`` mode raises
    :class:`~repro.errors.IngestError` instead of returning ``None``.
    The sanitizer is looked up from the report type's registered
    :class:`~repro.fo.registry.ProtocolSpec`; report types without one
    (e.g. a fitted AHEAD model produced inside the trusted pipeline) pass
    through unchanged.

    ``source`` names where the report came from — a grid key for local
    batches, a wire peer id for the ingestion service — and is attributed
    to the rejection this call records (quarantine audit entries and the
    per-source counters in :meth:`IngestStats.as_dict`).

    Every rejection is accounted in ``stats`` — there is no code path
    that discards data without either raising or incrementing a counter.
    """
    stats = stats if stats is not None else IngestStats()
    # Local import: repro.fo.registry imports this package's ingest
    # helpers at module load, so the registry lookup resolves lazily.
    from repro.fo.registry import spec_for_report
    spec = spec_for_report(type(report))
    users = report_user_count(report)
    if spec is not None and spec.sanitizer is not None:
        try:
            spec.sanitizer(report, expected)
        except Reject as reject:
            stats.record_reject(reject.reason, users, policy,
                                reject.detail, source=source)
            if policy.mode == "strict":
                raise IngestError(
                    f"{type(report).__name__} rejected at ingestion "
                    f"({reject.reason}): {reject.detail}") from None
            return None
    stats.record_accept(users)
    return report


def sanitize_reports(reports, policy: IngestPolicy,
                     stats: Optional[IngestStats] = None, *,
                     expected: ReportSpec) -> list:
    """Sanitize a batch, keeping only the survivors (order preserved)."""
    return [report for report in reports
            if sanitize_report(report, policy, stats,
                               expected=expected) is not None]
