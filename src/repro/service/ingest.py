"""Asyncio ingestion front door for wire-encoded ε-LDP reports.

:class:`IngestionService` sits between the network and a
:class:`~repro.core.StreamingCollector`: producers submit encoded frames
(or stream them over a socket via :meth:`IngestionService.serve`), a
single consumer task decodes nothing — frames are decoded at submission
so malformed bytes are charged to the submitting peer — validates each
frame's :class:`~repro.robustness.ReportSpec` pin against the collector's
plan, and batches the reports through the existing sanitize→merge
admission path.

Backpressure is structural, not advisory: the pending-frame queue is a
bounded :class:`asyncio.Queue`, so ``await submit(...)`` blocks once the
consumer falls ``max_pending`` frames behind, propagating the slowdown
to the socket reader (which stops reading, which fills the kernel
buffer, which stalls the sender). Nothing is silently shed. Because
submitters *wait* on the consumer, the consumer is not allowed to die:
any exception it meets — expected admission failures and surprises
alike — is captured, the queue keeps draining, and the failure re-raises
from :meth:`stop` and from every subsequent :meth:`submit`.

Socket connections speak either protocol the first bytes announce:

* a raw ``FLW1`` frame stream (the legacy fire-and-forget producer), or
* a **session** opened by a ``FELIP-SESSION`` hello
  (:mod:`repro.wire.session`): every frame arrives in a sequence
  envelope, the service replies with the client's admitted and durable
  watermarks, acks each processed frame, and suppresses duplicates by
  per-``client_id`` last-seen sequence — checked *at admission time* in
  the consumer, so the watermark a checkpoint persists is exactly
  consistent with the collector state it snapshots. This is what makes
  delivery effectively exactly-once across arbitrary reconnects: the
  client retries everything unacked (at-least-once) and the admission
  watermark drops the overlap (at-most-once).

With ``checkpoint_dir`` set the service also drives durability itself:
every ``checkpoint_every`` accepted frames the consumer cuts a snapshot
(:func:`~repro.service.checkpoint.cut_checkpoint`, including the
per-client watermarks) synchronously. The cut compacts, then holds each
grid's compacted report by reference plus the small meta document.
Beyond compaction its cost grows with the number of grids, not with the
admitted rows; the compaction itself still concatenates every admitted
OLH/GRR row of each grid with batches pending since the last one, so
that part grows with the stream. A flush thread then streams the cut to
disk (:func:`~repro.service.checkpoint.write_checkpoint_file`: frames
serialized from zero-copy views, CRCs, fsync, rename, directory fsync)
and prunes to the newest ``keep_checkpoints`` files, while the consumer
keeps admitting. :class:`ServiceStats` tracks the recovery-point lag
(users accepted since the last durable snapshot — what a crash right now
would need to replay) so operators can bound data-loss exposure.

Per-peer admission control (:class:`~repro.service.admission`) is off by
default; pass ``limits=PeerLimits(...)`` to bound each peer's frame and
byte rate (token buckets that *slow* the peer's own connection, never
honest ones), cap concurrent connections per host, and escalate
temporary bans from the per-peer rejection attribution the collector
already keeps.

Failure semantics follow the collector's
:class:`~repro.robustness.IngestPolicy`: under ``drop``/``quarantine``
bad frames are counted (and attributed to their source) and the stream
keeps flowing; under ``strict`` the first bad frame fails the collection
— the error re-raises from :meth:`stop` and from any subsequent
:meth:`submit`.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from pathlib import Path
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Tuple, Union)

from repro.core.streaming import StreamingCollector
from repro.errors import IngestError, PayloadError, WireError
from repro.robustness.faults import NetworkFaultInjector
from repro.robustness.ingest import report_user_count
from repro.service.admission import PeerAdmission, PeerLimits
# save_checkpoint is not called here; the repository benchmark wraps
# this module's name, so it stays importable.
from repro.service.checkpoint import (CheckpointCut,  # noqa: F401
                                      checkpoint_index, checkpoint_path,
                                      cut_checkpoint, list_checkpoints,
                                      prune_checkpoints, save_checkpoint,
                                      write_checkpoint_file)
from repro.wire import (FrameDecoder, SequencedDecoder, WireFrame,
                        ack_line, decode_frame, parse_hello,
                        refusal_line, session_reply)
from repro.wire.session import HELLO_PREFIX

__all__ = ["IngestionService", "LatencyWindow", "ServiceStats"]

#: sentinel queued by stop() to terminate the consumer after a drain
_STOP = object()


class _Pending(NamedTuple):
    """One queued frame plus everything needed to account and ack it."""

    frame: Union[WireFrame, PayloadError]  # error: a session poison frame
    source: str
    peer: Optional[str]          # admission-control key (remote host)
    client_id: Optional[str]     # session identity; None for legacy
    seq: int                     # session sequence; 0 for legacy
    ack: Optional[Callable[[int], None]]
    submitted_at: float


class _Durable(NamedTuple):
    """What the world looked like when a checkpoint was cut."""

    peer_seqs: Dict[str, int]
    users_accepted: int
    frames_accepted: int


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class LatencyWindow:
    """Sliding-window latency sample with percentile summaries.

    A fixed-size ring over the most recent ``window`` observations, so a
    long soak reports current, not lifetime, percentiles. Shared by the
    service (submit→admit latency) and the wire client (send→ack
    round-trip).
    """

    def __init__(self, window: int = 8192):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._values: List[float] = []
        self._cursor = 0

    def record(self, seconds: float) -> None:
        if len(self._values) < self._window:
            self._values.append(seconds)
        else:  # overwrite in ring order: O(1), no deque reshuffle
            self._values[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % self._window

    def __len__(self) -> int:
        return len(self._values)

    def summary(self) -> Dict[str, float]:
        sample = sorted(self._values)
        return {
            "count": len(sample),
            "p50_ms": _percentile(sample, 0.50) * 1e3,
            "p99_ms": _percentile(sample, 0.99) * 1e3,
            "max_ms": (sample[-1] if sample else 0.0) * 1e3,
        }


class ServiceStats:
    """Counters and latency percentiles for one ingestion service.

    Latency is measured per frame from submission to admission (queue
    wait plus sanitize/merge), over a sliding window of the most recent
    ``latency_window`` frames.

    ``recovery_point_lag`` is the durability exposure: users accepted
    since the newest on-disk checkpoint, i.e. how much work a crash at
    this instant would force session clients to replay (and lose
    entirely for legacy fire-and-forget senders). Zero whenever
    checkpointing is disabled or a snapshot just landed;
    ``recovery_lag_high_watermark`` keeps the worst value seen.
    """

    def __init__(self, latency_window: int = 8192):
        self.frames_submitted = 0
        self.frames_accepted = 0
        self.frames_rejected = 0
        self.frames_deduplicated = 0
        self.frames_throttled = 0
        self.throttle_seconds = 0.0
        self.malformed_frames = 0
        self.sequence_gaps = 0
        self.users_accepted = 0
        self.bytes_received = 0
        self.compactions = 0
        self.queue_high_watermark = 0
        self.connections_opened = 0
        self.connections_denied = 0
        self.peers_banned = 0
        self.acks_sent = 0
        self.checkpoints_written = 0
        self.last_checkpoint_bytes = 0
        self.recovery_point_lag = 0
        self.recovery_lag_high_watermark = 0
        self._latency = LatencyWindow(latency_window)

    def record_latency(self, seconds: float) -> None:
        self._latency.record(seconds)

    def latency_summary(self) -> Dict[str, float]:
        return self._latency.summary()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "frames_submitted": self.frames_submitted,
            "frames_accepted": self.frames_accepted,
            "frames_rejected": self.frames_rejected,
            "frames_deduplicated": self.frames_deduplicated,
            "frames_throttled": self.frames_throttled,
            "throttle_seconds": self.throttle_seconds,
            "malformed_frames": self.malformed_frames,
            "sequence_gaps": self.sequence_gaps,
            "users_accepted": self.users_accepted,
            "bytes_received": self.bytes_received,
            "compactions": self.compactions,
            "queue_high_watermark": self.queue_high_watermark,
            "connections_opened": self.connections_opened,
            "connections_denied": self.connections_denied,
            "peers_banned": self.peers_banned,
            "acks_sent": self.acks_sent,
            "checkpoints_written": self.checkpoints_written,
            "last_checkpoint_bytes": self.last_checkpoint_bytes,
            "recovery_point_lag": self.recovery_point_lag,
            "recovery_lag_high_watermark":
                self.recovery_lag_high_watermark,
            "latency": self.latency_summary(),
        }


class IngestionService:
    """Bounded-queue asyncio front end over a :class:`StreamingCollector`.

    Parameters
    ----------
    collector:
        The target collector. The service never touches its batch
        internals — every report goes through
        :meth:`~repro.core.StreamingCollector.ingest_report`, i.e. the
        same admission control as local observation.
    max_pending:
        Queue bound; ``submit`` awaits once this many frames are queued.
    batch_size:
        Maximum frames the consumer admits per scheduling slice before
        yielding back to the event loop (keeps socket readers live under
        a flood without interleaving overhead per frame).
    compact_every:
        Accepted-frame interval between
        :meth:`~repro.core.StreamingCollector.compact` calls; ``0``
        disables periodic compaction.
    checkpoint_every, checkpoint_dir, keep_checkpoints:
        Service-driven durability. With ``checkpoint_dir`` set, the
        consumer cuts a snapshot of the collector every
        ``checkpoint_every`` accepted frames (``0``: only on
        :meth:`stop`); a flush thread writes it atomically and prunes
        to the newest ``keep_checkpoints`` files. Numbering continues
        from whatever the directory already holds, so a restored service
        appends rather than overwrites.
    limits:
        Optional :class:`~repro.service.admission.PeerLimits` enabling
        per-peer admission control on socket connections.
    peer_seqs:
        Per-client admitted-sequence watermarks to resume duplicate
        suppression from — pass the ``extra["peer_seqs"]`` document of
        the checkpoint the collector was restored from.
    max_peers:
        Bound on tracked per-peer state (watermarks and admission),
        evicting least-recently-active entries.
    peer_key:
        Maps a socket peername tuple to the admission-control peer key;
        defaults to the remote host. Injectable so tests (where every
        connection shares 127.0.0.1) can separate logical peers, and so
        deployments behind a proxy can key on whatever identity the
        proxy forwards.
    clock:
        Injectable monotonic clock for admission control (tests).
    """

    def __init__(self, collector: StreamingCollector, *,
                 max_pending: int = 1024, batch_size: int = 256,
                 compact_every: int = 512,
                 latency_window: int = 8192,
                 checkpoint_every: int = 0,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 keep_checkpoints: int = 3,
                 limits: Optional[PeerLimits] = None,
                 peer_seqs: Optional[Dict[str, int]] = None,
                 max_peers: int = 4096,
                 peer_key: Optional[Callable[[Any], str]] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if compact_every < 0:
            raise ValueError(
                f"compact_every must be >= 0, got {compact_every}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if keep_checkpoints < 1:
            raise ValueError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}")
        if max_peers < 1:
            raise ValueError(f"max_peers must be >= 1, got {max_peers}")
        self.collector = collector
        self.max_pending = max_pending
        self.batch_size = batch_size
        self.compact_every = compact_every
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.keep_checkpoints = keep_checkpoints
        self.stats = ServiceStats(latency_window=latency_window)
        self.admission = (PeerAdmission(limits, clock=clock,
                                        max_peers=max_peers)
                          if limits is not None else None)
        self._plans = {tuple(p.key): p for p in collector.plans}
        self._peer_key = peer_key
        self._max_peers = max_peers
        self._queue: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        self._failure: Optional[BaseException] = None
        self._since_compact = 0
        # --- session state: admitted vs durable watermarks per client
        self._peer_seqs: Dict[str, int] = (
            {str(k): int(v) for k, v in peer_seqs.items()}
            if peer_seqs else {})
        # a restored watermark came off disk, so it is durable already
        self._durable_seqs: Dict[str, int] = dict(self._peer_seqs)
        # --- checkpoint state
        self._checkpointing = self.checkpoint_dir is not None
        self._since_checkpoint = 0
        self._users_at_durable = 0
        self._frames_at_durable = 0
        self._ckpt_task: Optional[asyncio.Task] = None
        # set by abort(): the flush thread stops before its rename
        self._abandon = threading.Event()
        if self._checkpointing:
            existing = list_checkpoints(self.checkpoint_dir)
            self._ckpt_index = (checkpoint_index(existing[-1]) + 1
                                if existing else 0)
        else:
            self._ckpt_index = 0
        # --- socket front-end state
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: set = set()
        self._handlers: set = set()
        self._frames_served = 0

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> "IngestionService":
        if self._consumer is not None:
            raise RuntimeError("service already started")
        self._failure = None
        self._abandon.clear()
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        self._consumer = asyncio.create_task(self._run())
        return self

    async def stop(self) -> None:
        """Graceful shutdown: drain everything, snapshot, surface failure.

        Closes any :meth:`serve`-started listeners, unblocks in-flight
        connection handlers and waits for them, drains the queue through
        the consumer (including frames that race in behind the stop
        sentinel), finishes any in-flight checkpoint write plus a final
        snapshot covering every accepted frame, and re-raises the
        captured failure if the consumer met one. Idempotent: a second
        call on a stopped service is a no-op.
        """
        if self._consumer is None:
            return
        await self._close_servers()
        for conn in list(self._connections):
            conn.close()
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        queue = self._queue
        await queue.put(_STOP)
        try:
            await self._consumer
        finally:
            self._consumer = None
            self._queue = None
        # Stragglers: a submitter that was blocked on a full queue may
        # complete its put() between the consumer's final sweep and
        # here; nothing may be lost on a graceful stop.
        while True:
            try:
                entry = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if entry is not _STOP:
                self._process(entry)
        if self._ckpt_task is not None:
            await self._ckpt_task
            self._ckpt_task = None
        if self._checkpointing and self._failure is None and \
                self.stats.frames_accepted != self._frames_at_durable:
            self._begin_checkpoint()  # the final snapshot, same path
            if self._ckpt_task is not None:
                await self._ckpt_task
                self._ckpt_task = None
        if self._failure is not None:
            raise self._failure

    async def abort(self) -> None:
        """Crash-stop: tear down without draining or snapshotting.

        Chaos harnesses use this to simulate a hard kill: queued frames
        and un-checkpointed collector state are simply gone, exactly as
        after ``kill -9``. Recovery is the real path — restore a fresh
        collector from the latest on-disk checkpoint and let session
        clients replay past the durable watermark.

        A checkpoint write in flight is abandoned before its rename,
        leaving its temp file as a crash would. A thread cannot be
        cancelled, so this waits for the writer to see the flag and
        exit: once ``abort()`` returns, no write of this service can
        still land in the directory a revived service takes over.
        """
        self._abandon.set()
        await self._close_servers()
        for conn in list(self._connections):
            conn.close()
        doomed = [self._consumer] if self._consumer is not None else []
        doomed.extend(self._handlers)
        for task in doomed:
            task.cancel()
        if self._ckpt_task is not None:
            doomed.append(self._ckpt_task)  # not cancelled: awaited
        if doomed:
            await asyncio.gather(*doomed, return_exceptions=True)
        self._consumer = None
        self._queue = None
        self._ckpt_task = None

    async def __aenter__(self) -> "IngestionService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        # Suppress nothing; a strict-mode failure surfaces unless the
        # body is already unwinding with its own exception.
        if exc_type is None:
            await self.stop()
        else:
            try:
                await self.stop()
            except Exception:
                pass

    async def _close_servers(self) -> None:
        servers, self._servers = self._servers, []
        for server in servers:
            server.close()
        for server in servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()

    # ------------------------------------------------------------------
    # submission

    async def submit(self, frame: Union[bytes, bytearray, WireFrame],
                     source: str = "wire") -> bool:
        """Enqueue one frame; awaits under backpressure.

        Accepts either encoded bytes or an already-decoded
        :class:`~repro.wire.WireFrame` (the socket handler decodes
        incrementally). Malformed bytes never reach the queue: they are
        counted against ``source`` and — matching the sanitizer contract
        — raise :class:`~repro.errors.WireError` only under ``strict``.

        Returns ``True`` when the frame was enqueued.
        """
        if self._queue is None:
            raise RuntimeError("service is not running; call start()")
        if self._failure is not None:
            raise self._failure
        submitted_at = time.monotonic()
        if not isinstance(frame, WireFrame):
            nbytes = len(frame)
            try:
                frame = decode_frame(bytes(frame))
            except WireError as exc:
                self._reject_malformed(nbytes, str(exc), source)
                if self.collector.ingest_policy.mode == "strict":
                    raise
                return False
        await self._submit_entry(frame, source, submitted_at=submitted_at)
        return True

    async def _submit_entry(self, frame: WireFrame, source: str, *,
                            peer: Optional[str] = None,
                            client_id: Optional[str] = None,
                            seq: int = 0,
                            ack: Optional[Callable[[int], None]] = None,
                            wire_nbytes: Optional[int] = None,
                            submitted_at: Optional[float] = None) -> None:
        if self._queue is None:
            raise RuntimeError("service is not running; call start()")
        if self._failure is not None:
            raise self._failure
        self.stats.frames_submitted += 1
        self.stats.bytes_received += (frame.nbytes if wire_nbytes is None
                                      else wire_nbytes)
        await self._queue.put(_Pending(
            frame, source, peer, client_id, seq, ack,
            time.monotonic() if submitted_at is None else submitted_at))
        self.stats.queue_high_watermark = max(
            self.stats.queue_high_watermark, self._queue.qsize())

    def _reject_malformed(self, nbytes: int, detail: str, source: str, *,
                          peer: Optional[str] = None,
                          submitted: bool = True) -> None:
        # ``submitted=False`` is the socket path: undecodable stream
        # garbage was never submitted as a frame, so it must not inflate
        # frames_submitted — but its actual byte cost is still charged.
        if submitted:
            self.stats.frames_submitted += 1
        self.stats.bytes_received += nbytes
        self._charge_malformed(detail, source, peer)

    def _charge_malformed(self, detail: str, source: str,
                          peer: Optional[str]) -> None:
        self.stats.malformed_frames += 1
        self.collector.ingest_stats.record_reject(
            "malformed-frame", 0, self.collector.ingest_policy,
            detail=detail, source=source)
        self._record_peer_rejection(peer)

    def _record_peer_rejection(self, peer: Optional[str]) -> None:
        if self.admission is not None and peer is not None:
            if self.admission.record_rejection(peer):
                self.stats.peers_banned += 1

    # ------------------------------------------------------------------
    # consumer

    async def _run(self) -> None:
        stopping = False
        while not stopping:
            item = await self._queue.get()
            batch = [item]
            # Greedily drain what is already queued, up to batch_size,
            # then process synchronously — one loop iteration per batch,
            # not per frame.
            while len(batch) < self.batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            for entry in batch:
                if entry is _STOP:
                    stopping = True
                    continue
                self._process(entry)
            if not stopping:
                self._maybe_checkpoint()
            await asyncio.sleep(0)  # yield so submitters make progress
        # Final sweep: frames that were already queued behind the stop
        # sentinel (or raced in while this batch was processing).
        while True:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if entry is not _STOP:
                self._process(entry)

    def _process(self, entry: _Pending) -> None:
        """Admit one entry; the consumer survives whatever it raises.

        Submitters *await* this consumer, so an escaped exception would
        not just lose frames — it would leave the queue full forever and
        every ``submit()`` awaiting a drain that never comes. Expected
        admission failures (strict-mode :class:`IngestError` /
        :class:`WireError`) and surprises alike are captured as the
        service failure; the loop keeps draining (counting latency, so
        backpressure stays honest) and the failure surfaces from
        :meth:`stop` and every subsequent :meth:`submit`.
        """
        try:
            if self._failure is None:
                self._admit_entry(entry)
        except Exception as exc:  # noqa: BLE001 — see docstring
            self._failure = exc
        finally:
            self.stats.record_latency(
                time.monotonic() - entry.submitted_at)

    def _admit_entry(self, entry: _Pending) -> None:
        if entry.client_id is not None and \
                entry.seq <= self._peer_seqs.get(entry.client_id, 0):
            # Already admitted (a replay across a reconnect, or the same
            # frame queued twice by overlapping connections): count it,
            # ack it so the client stops resending, and drop it. This
            # check lives here — not in the socket handler — so the
            # watermark is updated in the same thread of control as the
            # collector mutation it witnesses, and a checkpoint snapshots
            # the two in perfect sync.
            self.stats.frames_deduplicated += 1
            if entry.ack is not None:
                entry.ack(entry.seq)
            return
        self._admit(entry.frame, entry.source, entry.peer)
        if entry.client_id is not None:
            self._note_seq(entry.client_id, entry.seq)
            if entry.ack is not None:
                entry.ack(entry.seq)

    def _admit(self, frame: Union[WireFrame, PayloadError], source: str,
               peer: Optional[str] = None) -> None:
        """Pin-check one decoded frame, then hand it to the collector.

        A session poison frame (the :class:`PayloadError` its decoder
        stepped past) is charged to the peer as ``malformed-frame``; like
        any other rejected frame it is then acked in sequence, or fails
        the collection under ``strict``.
        """
        if isinstance(frame, PayloadError):
            self._charge_malformed(str(frame), source, peer)
            if self.collector.ingest_policy.mode == "strict":
                raise IngestError(
                    f"wire frame from {source} rejected "
                    f"(malformed-frame): {frame}")
            return
        mismatch = self._pin_mismatch(frame)
        if mismatch is not None:
            reason, detail = mismatch
            self.stats.frames_rejected += 1
            users = report_user_count(frame.report)
            self.collector.ingest_stats.record_reject(
                reason, users, self.collector.ingest_policy,
                detail=detail, source=source)
            self._record_peer_rejection(peer)
            if self.collector.ingest_policy.mode == "strict":
                raise IngestError(
                    f"wire frame from {source} rejected ({reason}): "
                    f"{detail}")
            return
        observed_before = self.collector.observed
        accepted = self.collector.ingest_report(frame.key, frame.report,
                                                source=source)
        if accepted:
            self.stats.frames_accepted += 1
            self.stats.users_accepted += (self.collector.observed
                                          - observed_before)
            self._since_compact += 1
            self._since_checkpoint += 1
            if self._checkpointing:
                lag = self.stats.users_accepted - self._users_at_durable
                self.stats.recovery_point_lag = lag
                if lag > self.stats.recovery_lag_high_watermark:
                    self.stats.recovery_lag_high_watermark = lag
            if self.compact_every and \
                    self._since_compact >= self.compact_every:
                self.collector.compact()
                self.stats.compactions += 1
                self._since_compact = 0
        else:
            self.stats.frames_rejected += 1
            self._record_peer_rejection(peer)

    def _note_seq(self, client_id: str, seq: int) -> None:
        seqs = self._peer_seqs
        if client_id in seqs:
            del seqs[client_id]  # re-insert: most recently active last
        elif len(seqs) >= self._max_peers:
            seqs.pop(next(iter(seqs)))
        seqs[client_id] = seq

    def _pin_mismatch(self,
                      frame: WireFrame) -> Optional[Tuple[str, str]]:
        """Check the frame's header pin against the collector's plan.

        The pin describes the *collection slot* the frame claims —
        protocol, epsilon, cell count, grid key — and is validated here,
        before the report's own declared parameters ever reach a
        sanitizer. Returns ``(reason, detail)`` on mismatch.
        """
        plan = self._plans.get(frame.key)
        if plan is None:
            return ("unknown-grid",
                    f"no planned grid with key {frame.key}")
        if frame.protocol != plan.protocol:
            return ("pin-protocol-mismatch",
                    f"frame claims {frame.protocol!r}, grid {frame.key} "
                    f"runs {plan.protocol!r}")
        if frame.num_cells != plan.num_cells:
            return ("pin-cells-mismatch",
                    f"frame claims {frame.num_cells} cells, grid "
                    f"{frame.key} has {plan.num_cells}")
        # Exact comparison on purpose: honest senders echo the f64 the
        # aggregator published, so any difference is a forged budget.
        if frame.epsilon != self.collector.config.epsilon:
            return ("pin-epsilon-mismatch",
                    f"frame claims epsilon={frame.epsilon!r}, collection "
                    f"runs epsilon={self.collector.config.epsilon!r}")
        return None

    # ------------------------------------------------------------------
    # checkpoints

    def _maybe_checkpoint(self) -> None:
        if (self._failure is None and self._checkpointing
                and self.checkpoint_every
                and self._since_checkpoint >= self.checkpoint_every
                and (self._ckpt_task is None or self._ckpt_task.done())):
            self._begin_checkpoint()

    def _checkpoint_extra(self) -> Dict[str, Any]:
        return {"peer_seqs": dict(self._peer_seqs)}

    def _begin_checkpoint(self) -> None:
        """Cut a snapshot now; write it to disk off the consumer loop.

        The cut runs synchronously here in the consumer, between
        batches, so it is consistent with the session watermarks it
        records. It compacts, which recopies every admitted row of each
        grid with batches pending since the last compaction; beyond
        that it captures references and renders the meta document —
        O(grids), no row copied or serialized. Serialization, CRCs,
        fsync, rename, the directory fsync and pruning all run in the
        flush thread while the consumer keeps admitting.
        """
        try:
            path = checkpoint_path(self.checkpoint_dir, self._ckpt_index)
            cut = cut_checkpoint(self.collector,
                                 extra=self._checkpoint_extra())
        except Exception as exc:  # noqa: BLE001 — see _flush_checkpoint
            self._failure = exc
            return
        durable = _Durable(dict(self._peer_seqs), self.stats.users_accepted,
                           self.stats.frames_accepted)
        self._ckpt_index += 1
        self._since_checkpoint = 0
        self._ckpt_task = asyncio.create_task(
            self._flush_checkpoint(path, cut, durable))

    async def _flush_checkpoint(self, path: Path, cut: CheckpointCut,
                                durable: _Durable) -> None:
        try:
            nbytes = await asyncio.to_thread(self._write_checkpoint, path,
                                             cut)
            if nbytes is not None:
                self._note_durable(nbytes, durable)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — broken disk is fatal
            # Durability failing silently would let clients discard
            # frames the service can no longer recover; surface it the
            # same way consumer failures surface.
            self._failure = exc

    def _write_checkpoint(self, path: Path,
                          cut: CheckpointCut) -> Optional[int]:
        """Flush thread: write, prune; the file's size, None if aborted."""
        if write_checkpoint_file(path, cut, abandon=self._abandon) is None:
            return None
        nbytes = path.stat().st_size
        prune_checkpoints(self.checkpoint_dir, self.keep_checkpoints)
        return nbytes

    def _note_durable(self, nbytes: int, durable: _Durable) -> None:
        self._durable_seqs = durable.peer_seqs
        self._users_at_durable = durable.users_accepted
        self._frames_at_durable = durable.frames_accepted
        self.stats.checkpoints_written += 1
        self.stats.last_checkpoint_bytes = nbytes
        self.stats.recovery_point_lag = (self.stats.users_accepted
                                         - durable.users_accepted)

    def _durable_for(self, client_id: str, seq: int) -> int:
        """The durable watermark to advertise alongside ``seq``.

        Without checkpointing there is nothing more durable than the
        collector's memory, so the admitted sequence *is* the durable
        one and clients may free frames as they are acked.
        """
        if not self._checkpointing:
            return seq
        return min(seq, self._durable_seqs.get(client_id, 0))

    # ------------------------------------------------------------------
    # socket front end

    async def serve(self, host: str = "127.0.0.1", port: int = 0, *,
                    fault_injector: Optional[NetworkFaultInjector] = None
                    ) -> "asyncio.AbstractServer":
        """Listen for frame streams; returns the started server.

        Each connection speaks whichever protocol its first bytes
        announce: a raw ``FLW1`` frame stream, or a sequenced session
        opened by a ``FELIP-SESSION`` hello. Either way the connection
        gets its own decoder and a ``peer=host:port`` source label, so
        quarantine entries name the misbehaving sender. A structurally
        invalid stream (garbage between frames, a CRC mismatch) cannot
        be resynchronized, so the connection is dropped after the
        rejection is recorded — with the undecodable bytes charged, not
        zero. A session frame that is intact but does not decode to a
        valid report is instead rejected in sequence and acked, so one
        poison frame never costs the frames behind it.

        ``fault_injector`` (a
        :class:`~repro.robustness.NetworkFaultInjector`) makes the
        server drop connections after deterministic accepted-frame
        counts — the server half of a chaos script.

        The server is tracked: :meth:`stop` closes it and waits for
        in-flight handlers before draining.
        """
        server = await asyncio.start_server(
            lambda r, w: self._handle_connection(r, w, fault_injector),
            host, port)
        self._servers.append(server)
        return server

    async def _handle_connection(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter,
            fault_injector: Optional[NetworkFaultInjector] = None) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        peername = writer.get_extra_info("peername")
        has_addr = isinstance(peername, tuple) and len(peername) >= 2
        if self._peer_key is not None:
            host = str(self._peer_key(peername))
        else:
            host = str(peername[0]) if has_addr else "?"
        source = (f"peer={peername[0]}:{peername[1]}" if has_addr
                  else "peer=?")
        admitted_conn = False
        try:
            if self.admission is not None:
                refusal = self.admission.connect(host)
                if refusal is not None:
                    self.stats.connections_denied += 1
                    writer.write(refusal_line(refusal))
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.drain()
                    return
                admitted_conn = True
            self.stats.connections_opened += 1
            head = b""
            while len(head) < 4:
                chunk = await reader.read(4 - len(head))
                if not chunk:
                    break
                head += chunk
            if not head:
                return
            if head.startswith(HELLO_PREFIX[:4]):
                await self._serve_session(reader, writer, head, host,
                                          source, fault_injector)
            else:
                await self._serve_legacy(reader, writer, head, host,
                                         source, fault_injector)
        except (IngestError, WireError):
            pass  # strict-mode failure; surfaces via stop()
        except (ConnectionError, OSError):
            pass  # peer vanished mid-read/write
        except asyncio.CancelledError:
            # abort() crash-stops the handler; exiting cleanly keeps the
            # asyncio.streams done-callback from logging the cancellation
            return
        finally:
            if admitted_conn:
                self.admission.disconnect(host)
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _gate_frame(self, host: str, nbytes: int) -> bool:
        """Admission-control one inbound frame; False drops the link."""
        if self.admission is None:
            return True
        if self.admission.is_banned(host):
            return False
        wait = self.admission.throttle(host, nbytes)
        if wait > 0:
            self.stats.frames_throttled += 1
            self.stats.throttle_seconds += wait
            await asyncio.sleep(wait)
        return True

    def _served_frame_disconnects(
            self,
            fault_injector: Optional[NetworkFaultInjector]) -> bool:
        index = self._frames_served
        self._frames_served += 1
        return (fault_injector is not None
                and fault_injector.server_should_disconnect(index))

    async def _serve_legacy(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter, initial: bytes, host: str,
            source: str,
            fault_injector: Optional[NetworkFaultInjector]) -> None:
        decoder = FrameDecoder()
        chunk = initial
        while chunk:
            try:
                for frame in decoder.feed(chunk):
                    if not await self._gate_frame(host, frame.nbytes):
                        return
                    await self.submit(frame, source=source)
                    if self._served_frame_disconnects(fault_injector):
                        return
            except WireError as exc:
                self._reject_malformed(decoder.pending_bytes, str(exc),
                                       source, peer=host,
                                       submitted=False)
                return
            chunk = await reader.read(1 << 16)

    async def _serve_session(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter, head: bytes, host: str,
            source: str,
            fault_injector: Optional[NetworkFaultInjector]) -> None:
        try:
            line = head + await reader.readline()
        except ValueError:  # line blew the stream's buffer limit
            self._reject_malformed(0, "oversized session hello", source,
                                   peer=host, submitted=False)
            return
        try:
            client_id = parse_hello(line)
        except WireError as exc:
            self._reject_malformed(len(line), str(exc), source,
                                   peer=host, submitted=False)
            return
        last = self._peer_seqs.get(client_id, 0)
        writer.write(session_reply(last, self._durable_for(client_id,
                                                           last)))
        await writer.drain()
        decoder = SequencedDecoder()
        expected = last + 1

        def ack(seq: int) -> None:
            self._send_ack(writer, client_id, seq)

        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                return
            try:
                for seq, frame, nbytes in decoder.feed(chunk):
                    if seq != expected:
                        # A gap within one connection proves a frame was
                        # lost in flight, and a binary stream cannot be
                        # resynchronized mid-flow: drop the connection
                        # and let the reconnect handshake repair the
                        # window from the admitted watermark.
                        self.stats.sequence_gaps += 1
                        return
                    if not await self._gate_frame(host, nbytes):
                        return
                    await self._submit_entry(
                        frame, source, peer=host, client_id=client_id,
                        seq=seq, ack=ack, wire_nbytes=nbytes)
                    expected = seq + 1
                    if self._served_frame_disconnects(fault_injector):
                        return
            except WireError as exc:
                self._reject_malformed(decoder.pending_bytes, str(exc),
                                       source, peer=host,
                                       submitted=False)
                return

    def _send_ack(self, writer: asyncio.StreamWriter, client_id: str,
                  seq: int) -> None:
        """Best-effort ack from consumer context; a dead link is fine.

        The client treats a missing ack as reason to reconnect and
        resend, and the admission watermark dedups the resend — so ack
        delivery needs no guarantee at all, only the attempt.
        """
        if writer.is_closing():
            return
        try:
            writer.write(ack_line(seq, self._durable_for(client_id,
                                                         seq)))
        except (ConnectionError, OSError, RuntimeError):
            return
        self.stats.acks_sent += 1
