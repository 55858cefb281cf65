"""Protocol-independent admission-control framework for untrusted reports.

This module holds everything about report ingestion that does *not* depend
on any particular frequency-oracle protocol: the :class:`IngestPolicy`
admission modes, the thread-safe :class:`IngestStats` accounting, the
:class:`ReportSpec` parameter expectations, the :class:`Reject` control
signal, and the k-sigma feasibility band.

A report's structure (shapes, dtypes, finiteness, row and counter bounds)
is checked once, by its constructor, which the wire decoder runs on every
frame. What is left for admission control is the plan: per-protocol
sanitizers live next to their protocol's
:class:`~repro.fo.registry.ProtocolSpec` (see :mod:`repro.fo.registry`)
and compare a report's declared parameters and totals with the
:class:`ReportSpec`; :func:`repro.robustness.policy.sanitize_report`
routes a report to its sanitizer. Keeping this module free of
``repro.fo`` imports is what lets the protocol registry reference it
without an import cycle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import IngestError

#: admission modes, in decreasing strictness
INGEST_MODES = ("strict", "drop", "quarantine")

#: Most rejection sources :class:`IngestStats` counts by name. A wire
#: source is ``peer=<host>:<port>``, one per connection, and a checkpoint
#: carries every key, so past this many the rejections of any new source
#: count under :data:`OTHER_SOURCES`: the total stays exact, the map
#: bounded.
MAX_SOURCE_KEYS = 64

#: The catch-all key of the sources beyond :data:`MAX_SOURCE_KEYS`.
OTHER_SOURCES = "<other>"

#: Width of the aggregate-feasibility acceptance band, in standard
#: deviations of the honest-batch total. Honest batches fail a k-sigma
#: test with probability ≲ exp(-k²/2), so 6 makes false rejections
#: astronomically unlikely while still catching grossly forged
#: sufficient statistics.
FEASIBILITY_SIGMAS = 6.0


@dataclass(frozen=True)
class IngestPolicy:
    """How the aggregator treats reports that fail validation.

    Attributes
    ----------
    mode:
        ``strict`` — raise :class:`IngestError` (fail the collection: the
        right default for trusted pipelines where an invalid report means
        a bug, not an attacker). ``drop`` — discard invalid reports,
        counting them in :class:`IngestStats`. ``quarantine`` — like
        ``drop`` but additionally retains up to ``quarantine_capacity``
        rejected payload summaries for audit.
    quarantine_capacity:
        Maximum retained audit entries (counters keep counting past it).
    """

    mode: str = "strict"
    quarantine_capacity: int = 64

    def __post_init__(self) -> None:
        if self.mode not in INGEST_MODES:
            raise IngestError(
                f"ingest mode must be one of {INGEST_MODES}, "
                f"got {self.mode!r}")
        if self.quarantine_capacity < 0:
            raise IngestError(
                f"quarantine_capacity must be >= 0, got "
                f"{self.quarantine_capacity}")


class IngestStats:
    """Thread-safe admission accounting; shared across shards and batches.

    ``sources`` counts rejections per source (a grid key, ``local`` or a
    wire peer) under at most :data:`MAX_SOURCE_KEYS` names plus the
    :data:`OTHER_SOURCES` catch-all.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.accepted_reports = 0
        self.accepted_users = 0
        self.dropped_reports = 0
        self.dropped_users = 0
        self.reasons: Dict[str, int] = {}
        self.sources: Dict[str, int] = {}
        self.quarantine: List[Dict[str, Any]] = []

    def record_accept(self, users: int) -> None:
        with self._lock:
            self.accepted_reports += 1
            self.accepted_users += int(users)

    def record_reject(self, reason: str, users: int,
                      policy: IngestPolicy,
                      detail: str = "", source: str = "") -> None:
        """Count one rejected report; retain an audit entry under
        quarantine."""
        with self._lock:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
            self.dropped_users += int(users)
            self.dropped_reports += 1
            if source:
                self._count_source(source, 1)
            if (policy.mode == "quarantine"
                    and len(self.quarantine) < policy.quarantine_capacity):
                self.quarantine.append(
                    {"reason": reason, "users": int(users),
                     "detail": detail, "source": source})

    def _count_source(self, source: str, count: int) -> None:
        """Add ``count`` rejections to ``source`` (caller holds the lock);
        a new source past the cap counts under :data:`OTHER_SOURCES`."""
        named = len(self.sources) - (OTHER_SOURCES in self.sources)
        if source not in self.sources and named >= MAX_SOURCE_KEYS:
            source = OTHER_SOURCES
        self.sources[source] = self.sources.get(source, 0) + count

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "accepted_reports": self.accepted_reports,
                "accepted_users": self.accepted_users,
                "dropped_reports": self.dropped_reports,
                "dropped_users": self.dropped_users,
                "reasons": dict(self.reasons),
                "rejected_by_source": dict(self.sources),
                "quarantined": len(self.quarantine),
            }

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every counter (checkpointing)."""
        with self._lock:
            return {
                "accepted_reports": self.accepted_reports,
                "accepted_users": self.accepted_users,
                "dropped_reports": self.dropped_reports,
                "dropped_users": self.dropped_users,
                "reasons": dict(self.reasons),
                "sources": dict(self.sources),
                "quarantine": [dict(entry) for entry in self.quarantine],
            }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing all counters."""
        with self._lock:
            self.accepted_reports = int(state["accepted_reports"])
            self.accepted_users = int(state["accepted_users"])
            self.dropped_reports = int(state["dropped_reports"])
            self.dropped_users = int(state["dropped_users"])
            self.reasons = {str(k): int(v)
                            for k, v in state["reasons"].items()}
            self.sources = {}
            for key, count in state.get("sources", {}).items():
                self._count_source(str(key), int(count))
            self.quarantine = [dict(entry)
                               for entry in state.get("quarantine", [])]

    def __repr__(self) -> str:
        d = self.as_dict()
        return (f"IngestStats(accepted={d['accepted_reports']}, "
                f"dropped={d['dropped_reports']}, "
                f"reasons={d['reasons']})")


@dataclass(frozen=True)
class ReportSpec:
    """What the aggregator expects a report's parameters to be.

    Built from the oracle that planned the collection
    (:meth:`ReportSpec.from_oracle`); fields not applicable to the
    protocol stay ``None``. A protocol's sanitizer reads the fields it
    needs and rejects a report whose declared parameters differ.
    """

    protocol: str = ""
    domain_size: Optional[int] = None
    hash_range: Optional[int] = None
    report_buckets: Optional[int] = None
    threshold: Optional[float] = None
    wave_width: Optional[float] = None
    p: Optional[float] = None
    q: Optional[float] = None
    scale: Optional[float] = None

    @classmethod
    def from_oracle(cls, oracle) -> "ReportSpec":
        return cls(
            protocol=getattr(oracle, "name", ""),
            domain_size=getattr(oracle, "domain_size", None),
            hash_range=getattr(oracle, "g", None),
            report_buckets=getattr(oracle, "report_buckets", None),
            threshold=getattr(oracle, "threshold", None),
            wave_width=getattr(oracle, "b", None),
            p=getattr(oracle, "p", None),
            q=getattr(oracle, "q", None),
            scale=getattr(oracle, "scale", None),
        )


class Reject(Exception):
    """Control signal: this report disagrees with its plan.

    Raised inside per-protocol sanitizers, caught by the
    :func:`repro.robustness.policy.sanitize_report` driver, which turns it
    into a raise (strict) or a counted drop (drop/quarantine).
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


def check_feasible_total(total: float, mean: float, var: float) -> None:
    """:data:`FEASIBILITY_SIGMAS`-sigma acceptance band around the
    honest-batch expectation."""
    band = FEASIBILITY_SIGMAS * np.sqrt(max(var, 0.0)) + 1e-9
    if abs(total - mean) > band:
        raise Reject(
            "infeasible-total",
            f"total {total:.1f} outside {mean:.1f} ± {band:.1f}")


def report_user_count(report) -> int:
    """Best-effort number of users a report claims to aggregate.

    Sufficient-statistic types declare ``n``; per-user-row types are as
    long as their row arrays. Unknown shapes count as zero users.
    """
    n = getattr(report, "n", None)
    if n is not None:
        try:
            return max(int(n), 0)
        except (TypeError, ValueError):
            return 0
    for attr in ("values", "buckets", "bits"):
        rows = getattr(report, attr, None)
        if rows is not None:
            try:
                return len(rows)
            except TypeError:
                return 0
    return 0
