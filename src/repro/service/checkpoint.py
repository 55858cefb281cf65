"""Checkpoint / restore for :class:`~repro.core.StreamingCollector`.

A checkpoint is a single self-contained byte string capturing everything
the collector's final estimates depend on:

* the merged per-grid reports (compacted first, then re-encoded as
  standard :mod:`repro.wire` frames — the checkpoint payload *is* the
  wire format, so there is exactly one serialization of every report
  type in the codebase);
* the admission accounting (``observed``, ``trusted_users``, per-group
  sizes, the full :class:`~repro.robustness.IngestStats` and
  :class:`~repro.core.parallel.ExecutionStats` state), so
  ``finalize()``'s accounting invariant and ``robustness_report()``
  survive a restart;
* the collector RNG's bit-generator state, so post-restore group
  assignment and perturbation continue the *same* random stream — a
  killed-and-resumed collection is bit-identical to an uninterrupted
  one, not merely statistically equivalent;
* a plan fingerprint (grid keys, protocols, cell counts, epsilon,
  ingest mode) that restore validates against the target collector, so
  a checkpoint can never be replayed into a differently-configured
  collection.

Layout: a fixed header (magic ``b"FLCK"``, version, meta length, frame
count), a canonical-JSON meta document, the concatenated report frames,
and a trailing CRC-32 over everything before it. Corruption anywhere —
header, meta, frames, or truncation — raises
:class:`~repro.errors.CheckpointError`.

Compaction before the snapshot keeps the frame count at one per grid,
not one per received batch: the merge monoid folds each grid's
accumulated reports into one, and because merging is associative and
order-preserving (a left fold), the folded prefix plus post-restore
arrivals reduces to exactly the same value — including float summation
order — as the uninterrupted stream. The *bytes* still grow with the
stream: per-user-row reports (OLH's seeds and buckets, GRR's values)
keep every admitted row.

A snapshot is therefore split in two. :func:`cut_checkpoint` is the
consistent cut: it compacts, captures a reference to each grid's
compacted report (flagging its arrays read-only — every merge already
builds new arrays, so the captured ones never change) and renders the
small meta document. Beyond the compaction, which still concatenates
the rows of each grid with pending batches, it touches no row.
Serializing the rows is the second half: :func:`write_checkpoint_file`
streams a cut to disk part by part from
:func:`~repro.wire.encode_report_parts` views, chaining every CRC over
the same parts it writes, and :func:`save_checkpoint` joins the same
parts into one byte string. Both produce the same bytes.

Restore reads through a :class:`memoryview` of one immutable blob, so
the restored reports are zero-copy views into it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import struct
import threading
import zlib
from pathlib import Path
from typing import (Any, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np

from repro.core.parallel import ExecutionStats
from repro.core.streaming import StreamingCollector
from repro.errors import CheckpointError, WireError
from repro.robustness import IngestStats
# encode_report is not called here; the repository benchmark wraps this
# module's name to attribute frame encoding, so it stays importable.
from repro.wire import (decode_frame, encode_report,  # noqa: F401
                        encode_report_parts, frame_length)

__all__ = ["CHECKPOINT_VERSION", "CheckpointCut", "checkpoint_index",
           "checkpoint_meta", "checkpoint_path", "cut_checkpoint",
           "latest_checkpoint", "list_checkpoints", "prune_checkpoints",
           "restore_checkpoint", "save_checkpoint",
           "write_checkpoint_file"]

MAGIC = b"FLCK"
CHECKPOINT_VERSION = 1

#: filenames the service writes: a strictly increasing index, so the
#: lexicographic and numeric orders agree and "latest" is well defined
_CHECKPOINT_NAME = re.compile(r"^ckpt-(\d{10})\.flck$")

#: magic, version, meta length (u64), frame count (u32)
_HEADER = struct.Struct("<4sBQI")
_CRC = struct.Struct("<I")


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays for JSON round-tripping."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _fingerprint(collector: StreamingCollector) -> Dict[str, Any]:
    """The configuration surface a checkpoint must match to be replayable."""
    return {
        "epsilon": float(collector.config.epsilon),
        "ingest_policy": collector.config.ingest_policy,
        "num_attributes": len(collector.schema),
        "plans": [{"key": [int(k) for k in p.key],
                   "protocol": p.protocol,
                   "num_cells": int(p.num_cells)}
                  for p in collector.plans],
    }


class CheckpointCut(NamedTuple):
    """A consistent cut of a collector's streaming state, held by reference.

    ``meta`` is the rendered meta document; ``frames`` pairs each
    compacted report (its arrays flagged read-only) with the wire pin it
    is framed under. Beyond the compaction that precedes it, building
    one copies no report row; serializing it (:func:`write_checkpoint_file`,
    :func:`save_checkpoint`) may happen later, on another thread, while
    the collector keeps admitting.
    """

    meta: bytes
    frames: Tuple[Tuple[object, Dict[str, Any]], ...]


def _freeze(report) -> None:
    """Flag every array of ``report`` read-only (the cut aliases them)."""
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def cut_checkpoint(collector: StreamingCollector, *,
                   extra: Optional[Dict[str, Any]] = None) -> CheckpointCut:
    """Cut the collector's state for a snapshot, holding it by reference.

    Compacts first, so the cut carries at most one report per grid
    regardless of how many batches have been observed (the compaction
    concatenates the rows of each grid with pending batches; nothing
    after it copies a row), then captures those reports by reference
    and renders the meta document (plan fingerprint, accounting, stats,
    RNG state, ``extra``). Later admissions and compactions build new
    report objects and arrays, so the cut keeps describing this instant.
    ``extra`` is as for :func:`save_checkpoint`.
    """
    collector.compact()
    epsilon = collector.config.epsilon
    frames = []
    for plan in collector.plans:
        for report in collector._batches[plan.key]:
            _freeze(report)
            frames.append((report, {"protocol": plan.protocol,
                                    "epsilon": epsilon,
                                    "num_cells": plan.num_cells,
                                    "key": plan.key}))
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "fingerprint": _fingerprint(collector),
        "observed": int(collector.observed),
        "trusted_users": int(collector.trusted_users),
        "group_sizes": [int(s) for s in collector._group_sizes],
        "rng_state": _jsonable(collector._rng.bit_generator.state),
        "ingest_stats": _jsonable(collector.ingest_stats.state_dict()),
        "exec_stats": _jsonable(collector.exec_stats.state_dict()),
    }
    if extra is not None:
        meta["extra"] = _jsonable(extra)
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    return CheckpointCut(meta_bytes, tuple(frames))


def _file_parts(cut: CheckpointCut) -> Iterator[Union[bytes, memoryview]]:
    """The checkpoint file, part by part: the header, the meta document,
    each frame's header and zero-copy payload parts, then the CRC
    chained over every part before it."""
    def body():
        yield _HEADER.pack(MAGIC, CHECKPOINT_VERSION, len(cut.meta),
                           len(cut.frames))
        yield cut.meta
        for report, pin in cut.frames:
            header, payload = encode_report_parts(report, **pin)
            yield header
            yield from payload

    crc = 0
    for part in body():
        crc = zlib.crc32(part, crc)
        yield part
    yield _CRC.pack(crc)


def save_checkpoint(collector: StreamingCollector, *,
                    extra: Optional[Dict[str, Any]] = None) -> bytes:
    """Snapshot the collector's full streaming state into bytes.

    The bytes are the parts of :func:`cut_checkpoint`'s cut joined —
    the file :func:`write_checkpoint_file` writes from the same cut.

    ``extra`` is an optional JSON-serializable document stored verbatim
    in the checkpoint meta (readable back via :func:`checkpoint_meta`)
    and ignored by :func:`restore_checkpoint` — the ingestion service
    uses it to persist its per-client admitted-sequence watermarks, so a
    restored service resumes duplicate suppression exactly where the
    snapshot left off.
    """
    return b"".join(_file_parts(cut_checkpoint(collector, extra=extra)))


def _parse(blob: bytes):
    """Validate structure + CRC; return (meta, list-of-frame-views).

    Reads through a :class:`memoryview`, so the frames are views into
    ``blob`` and the CRC pass copies nothing. Any buffer other than
    ``bytes`` is copied once first: a mutable one could change under the
    views (and the reports decoded from them) after validation.
    """
    if not isinstance(blob, bytes):
        blob = bytes(blob)
    view = memoryview(blob)
    if len(view) < _HEADER.size + _CRC.size:
        raise CheckpointError(
            f"checkpoint truncated: {len(view)} bytes")
    magic, version, meta_len, frame_count = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (supported: "
            f"{CHECKPOINT_VERSION})")
    end = len(view) - _CRC.size
    stored_crc = _CRC.unpack_from(view, end)[0]
    if zlib.crc32(view[:end]) != stored_crc:
        raise CheckpointError("checkpoint CRC mismatch (corrupted)")
    cursor = _HEADER.size
    if cursor + meta_len > end:
        raise CheckpointError("checkpoint meta escapes the blob")
    try:
        meta = json.loads(str(view[cursor:cursor + meta_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint meta is not valid JSON: {exc}") from None
    cursor += meta_len
    frames = []
    for index in range(frame_count):
        try:
            length = frame_length(view[cursor:cursor + 16])
        except WireError as exc:
            raise CheckpointError(
                f"checkpoint frame {index} is not a wire frame: "
                f"{exc}") from None
        if length is None or cursor + length > end:
            raise CheckpointError(
                f"checkpoint frame {index} truncated")
        frames.append(view[cursor:cursor + length])
        cursor += length
    if cursor != end:
        raise CheckpointError(
            f"{end - cursor} trailing bytes after the declared "
            f"{frame_count} frames")
    return meta, frames


def checkpoint_meta(blob: bytes) -> Dict[str, Any]:
    """Decode and return a checkpoint's meta document (for inspection)."""
    meta, _ = _parse(blob)
    return meta


def restore_checkpoint(collector: StreamingCollector,
                       blob: bytes) -> StreamingCollector:
    """Load a checkpoint into a freshly constructed collector.

    The target must be empty (nothing observed) and configured
    identically to the collector that produced the checkpoint — same
    schema width, epsilon, ingest mode, and planned grids. Any mismatch,
    truncation, or corruption raises
    :class:`~repro.errors.CheckpointError`; on success the collector
    continues the stream exactly where the snapshot left off.

    Restore is atomic with respect to the target: *every* field of the
    checkpoint — frames, RNG state, admission and executor stats — is
    validated on scratch objects before the first collector attribute is
    touched, so a failing restore leaves the target exactly as fresh as
    it arrived (and therefore retryable with a good blob). Without this,
    a checkpoint whose stats document was corrupt would leave behind a
    collector with a restored RNG but empty batches — a half-restored
    hybrid that no longer looks fresh and silently diverges if used.
    """
    meta, frame_blobs = _parse(blob)
    if not collector.is_fresh():
        raise CheckpointError(
            "restore target must be a freshly constructed collector")
    expected = _fingerprint(collector)
    if meta.get("fingerprint") != expected:
        raise CheckpointError(
            f"checkpoint fingerprint does not match this collector's "
            f"plan: checkpoint {meta.get('fingerprint')!r} vs expected "
            f"{expected!r}")
    sizes = meta["group_sizes"]
    if len(sizes) != len(collector.plans):
        raise CheckpointError(
            f"checkpoint has {len(sizes)} group sizes for "
            f"{len(collector.plans)} plans")

    reports: Dict[tuple, list] = {p.key: [] for p in collector.plans}
    plan_by_key = {p.key: p for p in collector.plans}
    for index, frame_blob in enumerate(frame_blobs):
        try:
            frame = decode_frame(frame_blob)
        except WireError as exc:
            raise CheckpointError(
                f"checkpoint frame {index} failed to decode: "
                f"{exc}") from None
        plan = plan_by_key.get(frame.key)
        if plan is None or frame.protocol != plan.protocol or \
                frame.num_cells != plan.num_cells or \
                frame.epsilon != collector.config.epsilon:
            raise CheckpointError(
                f"checkpoint frame {index} pins "
                f"({frame.protocol!r}, eps={frame.epsilon!r}, "
                f"cells={frame.num_cells}, key={frame.key}) which "
                f"matches no planned grid")
        reports[frame.key].append(frame.report)

    # Validate-then-mutate: every remaining field is rehearsed on
    # scratch objects first, so a defect discovered here cannot leave
    # the collector half-restored.
    try:
        scratch_bg = type(collector._rng.bit_generator)()
        scratch_bg.state = meta["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint RNG state does not fit this collector's "
            f"bit generator: {exc}") from None
    try:
        IngestStats().load_state(meta["ingest_stats"])
        ExecutionStats().load_state(meta["exec_stats"])
        observed = int(meta["observed"])
        trusted_users = int(meta["trusted_users"])
        group_sizes = np.asarray(sizes, dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint stats document is malformed: {exc}") from None

    collector._rng.bit_generator.state = scratch_bg.state
    collector.ingest_stats.load_state(meta["ingest_stats"])
    collector.exec_stats.load_state(meta["exec_stats"])
    collector.observed = observed
    collector.trusted_users = trusted_users
    collector._group_sizes[:] = group_sizes
    for key, batch in reports.items():
        collector._batches[key] = batch
    return collector


# ----------------------------------------------------------------------
# durable checkpoint files (service-driven incremental snapshots)

def checkpoint_path(checkpoint_dir: Union[str, Path],
                    index: int) -> Path:
    """The canonical filename for snapshot number ``index``."""
    if not 0 <= index <= 9_999_999_999:
        raise CheckpointError(f"checkpoint index {index} out of range")
    return Path(checkpoint_dir) / f"ckpt-{index:010d}.flck"


def checkpoint_index(path: Union[str, Path]) -> int:
    """The snapshot number encoded in a checkpoint filename."""
    match = _CHECKPOINT_NAME.match(Path(path).name)
    if match is None:
        raise CheckpointError(
            f"{Path(path).name!r} is not a checkpoint filename")
    return int(match.group(1))


def list_checkpoints(checkpoint_dir: Union[str, Path]) -> List[Path]:
    """All checkpoint blobs in ``checkpoint_dir``, oldest first."""
    directory = Path(checkpoint_dir)
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir()
                  if _CHECKPOINT_NAME.match(p.name))


def latest_checkpoint(checkpoint_dir: Union[str, Path]) -> Optional[Path]:
    """Path of the newest checkpoint blob, or None when there is none."""
    paths = list_checkpoints(checkpoint_dir)
    return paths[-1] if paths else None


def _fsync_directory(directory: Path) -> None:
    """Make a rename in ``directory`` durable: fsync the directory.

    A no-op where directories cannot be opened as descriptors
    (``os.O_DIRECTORY`` is missing, e.g. on Windows).
    """
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:
        return
    fd = os.open(directory, os.O_RDONLY | flag)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_checkpoint_file(path: Union[str, Path], cut: CheckpointCut, *,
                          abandon: Optional[threading.Event] = None
                          ) -> Optional[Path]:
    """Durably write one checkpoint: temp file, fsync, rename, fsync dir.

    The cut is streamed: each frame's header and zero-copy payload parts
    are written as produced, the CRC is chained over the same parts, and
    no whole-file buffer exists. The file is byte-for-byte
    :func:`save_checkpoint` of the same state.

    The rename is atomic on POSIX, so a crash mid-write leaves either
    the previous set of checkpoints or the previous set plus a complete
    new one — never a truncated blob that :func:`restore_checkpoint`
    would have to reject. The directory is fsynced after the rename, so
    the new name is on disk before the caller reports it durable.

    ``abandon``, when set, stops the write between parts and before the
    rename, leaving the temp file behind as a crash would; the call then
    returns ``None`` instead of the path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        for part in _file_parts(cut):
            if abandon is not None and abandon.is_set():
                return None
            handle.write(part)
        handle.flush()
        os.fsync(handle.fileno())
    if abandon is not None and abandon.is_set():
        return None
    os.replace(temp, path)
    _fsync_directory(path.parent)
    return path


def prune_checkpoints(checkpoint_dir: Union[str, Path],
                      keep: int) -> List[Path]:
    """Delete all but the newest ``keep`` blobs; returns what was removed."""
    if keep < 1:
        raise CheckpointError(f"keep must be >= 1, got {keep}")
    doomed = list_checkpoints(checkpoint_dir)[:-keep]
    for path in doomed:
        try:
            path.unlink()
        except OSError:
            pass  # a vanished blob is already pruned
    return doomed
