"""Deployment surface: resilient client, ingestion service, durability.

:class:`IngestionService` is the front door a deployed aggregator runs —
it accepts :mod:`repro.wire` frames (directly or over a socket), applies
backpressure through a bounded queue, validates every frame's header pin
against the collection plan, and feeds the surviving reports through the
:class:`~repro.core.StreamingCollector`'s sanitize→merge admission path.
Socket peers are subject to optional per-peer admission control
(:class:`PeerLimits` / :class:`PeerAdmission`): token-bucket rate
limits, connection quotas, and escalating bans fed by the collector's
per-peer rejection attribution.

:class:`WireClient` is the matching producer: a reconnecting sequenced
session that retains frames until the service reports them durable, so
delivery is effectively exactly-once across connection chaos and even
across a service crash restored from its latest checkpoint.

:func:`save_checkpoint` / :func:`restore_checkpoint` snapshot a
collector's complete streaming state so a killed aggregator resumes
mid-collection with bit-identical final estimates; with
``checkpoint_dir`` set, the service writes those snapshots itself — a
:func:`cut_checkpoint` by reference on the consumer loop, then
:func:`write_checkpoint_file` streaming the same bytes to disk from a
flush thread, atomically, pruned to the newest few — and reports the
recovery-point lag a crash would cost.
"""

from repro.service.admission import PeerAdmission, PeerLimits, TokenBucket
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCut,
    checkpoint_index,
    checkpoint_meta,
    checkpoint_path,
    cut_checkpoint,
    latest_checkpoint,
    list_checkpoints,
    prune_checkpoints,
    restore_checkpoint,
    save_checkpoint,
    write_checkpoint_file,
)
from repro.service.client import ClientStats, WireClient
from repro.service.ingest import IngestionService, LatencyWindow, ServiceStats

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCut",
    "ClientStats",
    "IngestionService",
    "LatencyWindow",
    "PeerAdmission",
    "PeerLimits",
    "ServiceStats",
    "TokenBucket",
    "WireClient",
    "checkpoint_index",
    "checkpoint_meta",
    "checkpoint_path",
    "cut_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
    "restore_checkpoint",
    "save_checkpoint",
    "write_checkpoint_file",
]
