"""Exception hierarchy for the FELIP reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate on the specific failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemaError(ReproError):
    """An attribute or schema definition is invalid."""


class DataError(ReproError):
    """A dataset is malformed or inconsistent with its schema."""


class QueryError(ReproError):
    """A query or predicate is invalid for the schema it targets."""


class PrivacyError(ReproError):
    """A privacy parameter (e.g. the budget epsilon) is invalid."""


class ProtocolError(ReproError):
    """A frequency-oracle protocol was misused (wrong domain, bad report...)."""


class IngestError(ReproError):
    """An untrusted report failed ingestion validation under a strict policy.

    Raised by :func:`repro.robustness.sanitize_report` when
    ``IngestPolicy(mode="strict")`` meets a malformed or infeasible report;
    the ``drop`` and ``quarantine`` modes record the rejection in an
    :class:`~repro.robustness.IngestStats` counter instead of raising.
    """


class WireError(ReproError):
    """A binary wire frame is malformed, truncated, or corrupted.

    Raised by :mod:`repro.wire` when a frame fails structural decoding:
    bad magic, unsupported version, CRC mismatch, truncation, or a payload
    that cannot be mapped back to a report. A frame that decodes cleanly
    but carries forged *parameters* is not a :class:`WireError` — it is
    handed to the ingestion sanitizers, whose policy decides its fate.
    """


class PayloadError(WireError):
    """An intact wire frame whose content is not a valid report.

    Both CRCs matched, so the frame's boundaries can be trusted and a
    stream decoder can step past it; only its content — tables, wire
    code, or the report its fields build — is bad. Sessions reject such a
    frame in sequence instead of dropping the connection.
    """


class ClientError(ReproError):
    """The wire client could not deliver its buffered frames.

    Raised by :class:`repro.service.client.WireClient` when the server
    stays unreachable past the configured reconnect budget, refuses the
    session (e.g. the peer is banned), or stops acknowledging frames for
    longer than the stall budget. Transient disconnects never surface as
    this error — the client reconnects and retransmits silently; a
    :class:`ClientError` means delivery genuinely failed and the caller
    owns whatever is still buffered.
    """


class CheckpointError(ReproError):
    """A streaming-collector checkpoint is corrupt or mismatched.

    Raised by :mod:`repro.service.checkpoint` when restoring a snapshot
    into a collector whose plans, schema, or config fingerprint disagree
    with the one that wrote it, or when the checkpoint bytes fail CRC.
    """


class GridError(ReproError):
    """A grid definition or grid-sizing computation is invalid."""


class EstimationError(ReproError):
    """An estimation routine failed to produce a usable result."""


class ConfigurationError(ReproError):
    """A strategy or experiment configuration is invalid."""


class NotFittedError(ReproError):
    """An aggregator was queried before data collection ran."""


class ConvergenceWarning(UserWarning):
    """An iterative fit (Algorithm 3 / 4 IPF sweep) hit its iteration cap.

    Emitted via :func:`warnings.warn` when a response-matrix or λ-D
    estimate stops at ``max_iters`` while its last sweep still moved the
    iterate by the stop tolerance or more. The estimate is still returned
    — it is the iterate after ``max_iters`` sweeps — but callers that care
    can escalate the warning or inspect
    :meth:`repro.core.Aggregator.fit_diagnostics`.
    """
