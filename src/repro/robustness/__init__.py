"""Robustness subsystem: the aggregator's fault and threat model.

Three layers, composed through the collection pipeline:

* **Ingestion policies** (:mod:`repro.robustness.policy`) — per-protocol
  sanitizers that compare a report with its plan, behind a configurable
  :class:`IngestPolicy` (``strict`` raise / ``drop`` / ``quarantine``
  with counters), threaded through ``collect_reports`` and
  ``StreamingCollector``. A report's structure is its constructor's to
  check.
* **Attack simulation** (:mod:`repro.robustness.attacks`) — random-value,
  random-report, and maximal-gain poisoning adversaries that forge
  reports for a target cell, folded like honest ones.
* **Detection** (:mod:`repro.robustness.detect`) — feasibility detectors
  (range, L1-norm, group imbalance) run in the aggregator's postprocess
  stage, surfaced via ``Aggregator.robustness_report()``.

Fault-tolerant shard execution (retry-with-backoff, pool degradation)
lives in :mod:`repro.core.parallel`; the deterministic chaos hook it
consumes is :class:`FaultInjector` here.
"""

from repro.robustness.attacks import (
    ATTACKS,
    MaximalGainAttack,
    PoisoningAttack,
    RandomReportAttack,
    RandomValueAttack,
    forge_report,
    make_attack,
)
from repro.robustness.detect import (
    DETECTOR_NAMES,
    DetectorFlag,
    RobustnessFlags,
    group_imbalance,
    l1_feasibility,
    range_feasibility,
    run_detectors,
    validate_detector_names,
)
from repro.robustness.faults import (
    FaultInjector,
    NetworkFaultInjector,
    PoisonedShardError,
    TransientShardFault,
    backoff_delay,
)
from repro.robustness.policy import (
    INGEST_MODES,
    IngestPolicy,
    IngestStats,
    ReportSpec,
    report_user_count,
    sanitize_report,
    sanitize_reports,
)

__all__ = [
    "ATTACKS",
    "DETECTOR_NAMES",
    "DetectorFlag",
    "FaultInjector",
    "INGEST_MODES",
    "IngestPolicy",
    "IngestStats",
    "MaximalGainAttack",
    "NetworkFaultInjector",
    "PoisonedShardError",
    "PoisoningAttack",
    "RandomReportAttack",
    "RandomValueAttack",
    "ReportSpec",
    "RobustnessFlags",
    "TransientShardFault",
    "backoff_delay",
    "forge_report",
    "group_imbalance",
    "l1_feasibility",
    "make_attack",
    "range_feasibility",
    "report_user_count",
    "run_detectors",
    "sanitize_report",
    "sanitize_reports",
    "validate_detector_names",
]
