"""Checkpoint / restore for :class:`~repro.core.StreamingCollector`.

A checkpoint is a single self-contained byte string capturing everything
the collector's final estimates depend on:

* each grid's folded state (:class:`~repro.fo.base.FoldedState`: its
  user count ``n`` and one fixed-length vector — OLH support counts, a
  GRR histogram, HR projections, or unary/histogram/square-wave sums),
  taken after a compaction, so no report row is left to save;
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

Layout (format version 2): a fixed header (magic ``b"FLCK"``, version,
meta length, state count), a canonical-JSON meta document whose
``states`` table names each vector's grid key, ``n``, dtype and length,
the vectors' raw bytes in table order, and a trailing CRC-32 over
everything before it. Its size is O(Σ cells) — kilobytes — however many
users were admitted. Version 1 stored every admitted report row as wire
frames; such a file raises :class:`~repro.errors.CheckpointError`, as
does corruption anywhere — header, meta, vectors, or truncation.

Folding is exact: integer statistics add, and float sums continue one
left fold (the restored state, then the reports that arrive after), so
the restored prefix plus post-restore arrivals reduces to exactly the
value of the uninterrupted stream, float summation order included.

:func:`save_checkpoint` renders the blob (it compacts first); the
ingestion service calls it on its consumer loop, where the blob *is*
the consistent cut, and hands the bytes to a flush thread for
:func:`write_checkpoint_file`. Restore validates every field — each
state against its grid's oracle (dtype, length, ``n``, count bounds)
and against the recorded group size, and the accounting against
``finalize()``'s invariant — before touching the target.
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.parallel import ExecutionStats
from repro.core.streaming import StreamingCollector
from repro.errors import CheckpointError, ProtocolError
from repro.fo.base import FoldedState
from repro.robustness import IngestStats
# encode_report is not called here; the repository benchmark wraps this
# module's name to attribute frame encoding, so it stays importable.
from repro.wire import encode_report  # noqa: F401

__all__ = ["CHECKPOINT_VERSION", "checkpoint_index", "checkpoint_meta",
           "checkpoint_path", "latest_checkpoint", "list_checkpoints",
           "prune_checkpoints", "restore_checkpoint", "save_checkpoint",
           "write_checkpoint_file"]

MAGIC = b"FLCK"
CHECKPOINT_VERSION = 2

#: filenames the service writes: a strictly increasing index, so the
#: lexicographic and numeric orders agree and "latest" is well defined
_CHECKPOINT_NAME = re.compile(r"^ckpt-(\d{10})\.flck$")

#: magic, version, meta length (u64), state count (u32)
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


def _render(meta: Dict[str, Any], vectors: List[np.ndarray]) -> bytes:
    """Header, canonical meta, the vectors' bytes, then the CRC."""
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    body = b"".join([_HEADER.pack(MAGIC, CHECKPOINT_VERSION,
                                  len(meta_bytes), len(vectors)),
                     meta_bytes, *(v.tobytes() for v in vectors)])
    return body + _CRC.pack(zlib.crc32(body))


def save_checkpoint(collector: StreamingCollector, *,
                    extra: Optional[Dict[str, Any]] = None) -> bytes:
    """Snapshot the collector's full streaming state into bytes.

    Compacts first, so every admitted report is in a folded state and
    the blob holds one vector per grid that has received reports.

    ``extra`` is an optional JSON-serializable document stored verbatim
    in the checkpoint meta (readable back via :func:`checkpoint_meta`)
    and ignored by :func:`restore_checkpoint` — the ingestion service
    uses it to persist its per-client admitted-sequence watermarks, so a
    restored service resumes duplicate suppression exactly where the
    snapshot left off.
    """
    collector.compact()
    states = [(key, state) for key, state in collector._states.items()
              if state is not None]
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "fingerprint": _fingerprint(collector),
        "observed": int(collector.observed),
        "trusted_users": int(collector.trusted_users),
        "group_sizes": [int(s) for s in collector._group_sizes],
        "rng_state": _jsonable(collector._rng.bit_generator.state),
        "ingest_stats": _jsonable(collector.ingest_stats.state_dict()),
        "exec_stats": _jsonable(collector.exec_stats.state_dict()),
        "states": [{"key": [int(k) for k in key], "n": int(state.n),
                    "dtype": state.vector.dtype.str,
                    "length": len(state.vector)}
                   for key, state in states],
    }
    if extra is not None:
        meta["extra"] = _jsonable(extra)
    return _render(meta, [state.vector for _, state in states])


def _parse(blob: bytes) -> Tuple[Dict[str, Any], List[np.ndarray]]:
    """Validate structure + CRC; return (meta, the state vectors).

    The vectors are copies, so nothing refers to ``blob`` afterwards.
    """
    view = memoryview(blob)
    if len(view) < _HEADER.size + _CRC.size:
        raise CheckpointError(
            f"checkpoint truncated: {len(view)} bytes")
    magic, version, meta_len, state_count = _HEADER.unpack_from(view, 0)
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
    table = meta.get("states") if isinstance(meta, dict) else None
    if not isinstance(table, list) or len(table) != state_count:
        raise CheckpointError(
            f"checkpoint state table does not list the {state_count} "
            f"states its header declares")
    vectors = []
    for index, entry in enumerate(table):
        try:
            dtype = np.dtype(entry["dtype"])
            length = entry["length"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint state {index} is malformed: {exc}") from None
        if dtype.kind not in "iuf" or type(length) is not int \
                or length < 0:
            raise CheckpointError(
                f"checkpoint state {index} declares {length!r} entries "
                f"of dtype {dtype}")
        nbytes = length * dtype.itemsize
        if cursor + nbytes > end:
            raise CheckpointError(f"checkpoint state {index} truncated")
        vectors.append(np.frombuffer(view, dtype=dtype, count=length,
                                     offset=cursor).copy())
        cursor += nbytes
    if cursor != end:
        raise CheckpointError(
            f"{end - cursor} trailing bytes after the declared "
            f"{state_count} states")
    return meta, vectors


def checkpoint_meta(blob: bytes) -> Dict[str, Any]:
    """Decode and return a checkpoint's meta document (for inspection)."""
    meta, _ = _parse(blob)
    return meta


def _restored_states(collector: StreamingCollector, table: list,
                     vectors: List[np.ndarray],
                     group_sizes: np.ndarray) -> Dict[tuple, FoldedState]:
    """Each table entry as a validated state of a grid that takes
    reports; its ``n`` must be the users its group admitted."""
    states: Dict[tuple, FoldedState] = {}
    for entry, vector in zip(table, vectors):
        try:
            key = tuple(int(k) for k in entry["key"])
            n = entry["n"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint state table is malformed: {exc}") from None
        oracle = collector._oracles.get(key)
        if oracle is None or key in states:
            raise CheckpointError(
                f"checkpoint holds a state for grid {key}, which is not a "
                f"planned grid taking reports (or is listed twice)")
        state = FoldedState(n, vector)
        try:
            oracle.check_state(state)
        except ProtocolError as exc:
            raise CheckpointError(
                f"checkpoint state for grid {key} is invalid: "
                f"{exc}") from None
        states[key] = state
    for g, plan in enumerate(collector.plans):
        if plan.key in collector._oracles:
            state = states.get(plan.key)
            folded = state.n if state is not None else 0
            if folded != group_sizes[g]:
                raise CheckpointError(
                    f"checkpoint state for grid {plan.key} folds {folded} "
                    f"users but its group admitted {group_sizes[g]}")
    return states


def restore_checkpoint(collector: StreamingCollector,
                       blob: bytes) -> StreamingCollector:
    """Load a checkpoint into a freshly constructed collector.

    The target must be empty (nothing observed) and configured
    identically to the collector that produced the checkpoint — same
    schema width, epsilon, ingest mode, and planned grids. Any mismatch,
    truncation, corruption, or a state its grid's oracle could not have
    folded raises :class:`~repro.errors.CheckpointError`; on success the
    collector continues the stream exactly where the snapshot left off.

    Restore is atomic with respect to the target: *every* field of the
    checkpoint — states, RNG state, admission and executor stats — is
    validated on scratch objects before the first collector attribute is
    touched, so a failing restore leaves the target exactly as fresh as
    it arrived (and therefore retryable with a good blob). Without this,
    a checkpoint whose stats document was corrupt would leave behind a
    collector with a restored RNG but no states — a half-restored
    hybrid that no longer looks fresh and silently diverges if used.
    """
    meta, vectors = _parse(blob)
    if not collector.is_fresh():
        raise CheckpointError(
            "restore target must be a freshly constructed collector")
    expected = _fingerprint(collector)
    if meta.get("fingerprint") != expected:
        raise CheckpointError(
            f"checkpoint fingerprint does not match this collector's "
            f"plan: checkpoint {meta.get('fingerprint')!r} vs expected "
            f"{expected!r}")

    # Validate-then-mutate: every field is rehearsed on scratch objects
    # first, so a defect discovered here cannot leave the collector
    # half-restored.
    try:
        scratch_bg = type(collector._rng.bit_generator)()
        scratch_bg.state = meta["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint RNG state does not fit this collector's "
            f"bit generator: {exc}") from None
    try:
        ingest_stats = IngestStats()
        ingest_stats.load_state(meta["ingest_stats"])
        ExecutionStats().load_state(meta["exec_stats"])
        observed = int(meta["observed"])
        trusted_users = int(meta["trusted_users"])
        group_sizes = np.asarray(meta["group_sizes"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint stats document is malformed: {exc}") from None
    if group_sizes.shape != (len(collector.plans),):
        raise CheckpointError(
            f"checkpoint has {group_sizes.size} group sizes for "
            f"{len(collector.plans)} plans")
    # finalize()'s accounting invariant, checked here so a bad document
    # is a CheckpointError rather than a failed assertion later
    if not observed == int(group_sizes.sum()) == \
            ingest_stats.accepted_users + trusted_users:
        raise CheckpointError(
            f"checkpoint accounting disagrees: observed={observed}, group "
            f"sizes sum to {int(group_sizes.sum())}, accepted + trusted "
            f"users = {ingest_stats.accepted_users + trusted_users}")
    states = _restored_states(collector, meta["states"], vectors,
                              group_sizes)

    collector._rng.bit_generator.state = scratch_bg.state
    collector.ingest_stats.load_state(meta["ingest_stats"])
    collector.exec_stats.load_state(meta["exec_stats"])
    collector.observed = observed
    collector.trusted_users = trusted_users
    collector._group_sizes[:] = group_sizes
    collector._states.update(states)
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


def write_checkpoint_file(path: Union[str, Path], blob: bytes, *,
                          abandon: Optional[threading.Event] = None
                          ) -> Optional[Path]:
    """Durably write one checkpoint: temp file, fsync, rename, fsync dir.

    The rename is atomic on POSIX, so a crash mid-write leaves either
    the previous set of checkpoints or the previous set plus a complete
    new one — never a truncated blob that :func:`restore_checkpoint`
    would have to reject. The directory is fsynced after the rename, so
    the new name is on disk before the caller reports it durable.

    ``abandon``, when set by the time the temp file is synced, skips the
    rename and leaves the temp file behind as a crash would; the call
    then returns ``None`` instead of the path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(blob)
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
