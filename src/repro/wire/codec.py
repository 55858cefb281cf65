"""Binary report frames: encode/decode for every registry report type.

Frame layout (version 1, all integers little-endian)
----------------------------------------------------

::

    offset  size  field
    0       4     magic ``b"FLW1"``
    4       1     format version (1)
    5       1     protocol wire code (``ProtocolSpec.wire_code``)
    6       2     header length H (u16) — prologue + tables + CRC + pad
    8       8     total frame length (u64)
    16      8     epsilon (f64) — the ReportSpec pin
    24      4     num_cells (u32) — the ReportSpec pin
    28      4     CRC-32 of the payload bytes ``[H, frame length)``
    32      var   grid key: count (u8), then count × i64
            var   array table: count (u8), then per array
                    name (u8 length + ascii), dtype (u8 length + numpy
                    ``dtype.str``, e.g. ``"<i8"``), payload offset (u64,
                    from frame start, 8-byte aligned), element count (u64)
            var   scalar table: count (u8), then per scalar
                    name (u8 length + ascii), tag (``b"i"``/``b"f"``),
                    value (i64 or f64)
    H-4     4     CRC-32 of the header bytes ``[0, H-4)``
    H       ...   payload: raw array bytes at their declared offsets

Every multi-byte payload array starts at an offset that is a multiple of
8, so :func:`decode_frame` can hand out **zero-copy**
:func:`numpy.frombuffer` views of the frame — decoding a frame allocates
no array memory. The views are read-only; every consumer downstream
(sanitizers, folds) treats reports as immutable, so this is free
hardening, not a restriction.

Versioning rules
----------------
* The magic and the version byte gate everything: an unknown magic is not
  a frame; an unknown version is rejected (no silent best-effort parse).
* Within version 1, the header is self-describing (explicit header
  length, named fields, explicit offsets), so *adding* report fields or
  protocols (new wire codes) requires no format bump.
* Any change to the prologue layout, CRC coverage, or table encodings is
  a new version byte. Wire codes are never recycled across protocols.

Structure and plan are checked in different places, each once. A frame
that is truncated, bit-flipped, or structurally nonsensical raises
:class:`~repro.errors.WireError` here (both CRCs must match, every offset
must be in bounds), and :func:`decode_frame` builds the report through
its type's validating constructor, so a payload no honest client can
send (a row outside its range, a fractional count, a NaN sum) raises the
:class:`~repro.errors.PayloadError` subclass. A frame that decodes
cleanly but lies about its plan — its header pin, or the parameters its
report declares — is caught downstream, by the ingestion service's pin
check and the sanitizers, which compare it with the collector's planned
:class:`~repro.robustness.ReportSpec` and apply the configured policy.
Byte streams of frames are split by the session layer's
:class:`~repro.wire.SequencedDecoder`.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import PayloadError, ReproError, WireError
from repro.fo.registry import get as protocol_spec
from repro.fo.registry import spec_for_wire_code

MAGIC = b"FLW1"
FRAME_VERSION = 1

#: fixed prologue: magic, version, wire code, header len, frame len,
#: epsilon, num_cells, payload crc
_PROLOGUE = struct.Struct("<4sBBHQdII")
_CRC = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

#: hard ceilings a structurally valid frame must respect; generous for
#: every real report, tight enough that a forged header cannot drive a
#: pathological allocation before the CRC check catches it
MAX_KEY_ENTRIES = 16
MAX_FIELDS = 32
_ALLOWED_KINDS = frozenset("iuf")


@dataclass(frozen=True)
class WireFrame:
    """One decoded frame: the ReportSpec pin plus the report itself."""

    protocol: str
    epsilon: float
    num_cells: int
    key: Tuple[int, ...]
    report: object
    nbytes: int


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _classify_fields(report) -> Tuple[List[Tuple[str, np.ndarray]],
                                      List[Tuple[str, object]]]:
    """Split a report dataclass into array fields and scalar fields."""
    arrays: List[Tuple[str, np.ndarray]] = []
    scalars: List[Tuple[str, object]] = []
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            if value.ndim != 1:
                raise WireError(
                    f"cannot encode field {field.name!r}: wire arrays "
                    f"must be 1-D, got shape {value.shape}")
            arrays.append((field.name, np.ascontiguousarray(value)))
        elif isinstance(value, (bool, int, float, np.integer,
                                np.floating)):
            scalars.append((field.name, value))
        else:
            raise WireError(
                f"cannot encode field {field.name!r} of type "
                f"{type(value).__name__}: wire reports carry numpy "
                f"arrays and numeric scalars only")
    return arrays, scalars


def _encode_name(name: str) -> bytes:
    encoded = name.encode("ascii")
    if not 0 < len(encoded) < 256:
        raise WireError(f"field name {name!r} does not fit the wire")
    return bytes([len(encoded)]) + encoded


def encode_report_parts(report, *, protocol: str, epsilon: float,
                        num_cells: int, key: Tuple[int, ...]
                        ) -> Tuple[bytes, List[Union[bytes, memoryview]]]:
    """Serialize one report as a frame header plus a zero-copy payload.

    Returns ``(header, payload)``: ``header`` is the frame's first H
    bytes (prologue, tables, header CRC, pad), and ``payload`` lists the
    rest in order — zero-byte alignment pads and read-only byte views of
    the report's arrays. ``header + b"".join(payload)`` is exactly the
    frame :func:`encode_report` returns. The payload CRC in the header is
    chained over those views, so building a frame reads each array once
    and copies none of it; a writer can stream the parts straight to a
    file or socket. The views alias the report, which must not change
    until the parts are consumed.

    ``protocol``, ``epsilon``, ``num_cells`` and ``key`` are the
    :class:`~repro.robustness.ReportSpec` pin the receiving aggregator
    validates; they describe the *collection slot* the report claims,
    independent of whatever parameters the report itself declares.
    """
    spec = protocol_spec(protocol)
    if spec.wire_code is None:
        raise WireError(
            f"protocol {protocol!r} has no wire_code; its reports cannot "
            f"travel over the wire")
    if spec.report_type is None or not isinstance(report,
                                                  spec.report_type):
        raise WireError(
            f"protocol {protocol!r} emits "
            f"{getattr(spec.report_type, '__name__', None)!r} reports, "
            f"got {type(report).__name__}")
    key = tuple(int(k) for k in key)
    if len(key) > MAX_KEY_ENTRIES:
        raise WireError(f"grid key {key} exceeds {MAX_KEY_ENTRIES} entries")
    arrays, scalars = _classify_fields(report)
    if len(arrays) > MAX_FIELDS or len(scalars) > MAX_FIELDS:
        raise WireError("report has too many fields for the wire")

    # Variable header tables, with payload offsets filled in a second
    # pass once the header length (and so the payload base) is known.
    tables = bytearray()
    tables.append(len(key))
    for entry in key:
        tables += _I64.pack(entry)
    tables.append(len(arrays))
    offset_slots: List[Tuple[int, np.ndarray]] = []
    for name, array in arrays:
        tables += _encode_name(name)
        dtype_str = array.dtype.str.encode("ascii")
        tables.append(len(dtype_str))
        tables += dtype_str
        offset_slots.append((len(tables), array))
        tables += _U64.pack(0)  # payload offset placeholder
        tables += _U64.pack(len(array))
    tables.append(len(scalars))
    for name, value in scalars:
        tables += _encode_name(name)
        if isinstance(value, (bool, int, np.integer)):
            tables += b"i" + _I64.pack(int(value))
        else:
            tables += b"f" + _F64.pack(float(value))

    header_len = _align8(_PROLOGUE.size + len(tables) + _CRC.size)
    payload: List[Union[bytes, memoryview]] = []
    payload_crc = 0
    cursor = header_len
    for slot, array in offset_slots:
        pad = _align8(cursor) - cursor
        if pad:
            payload.append(bytes(pad))
            payload_crc = zlib.crc32(payload[-1], payload_crc)
            cursor += pad
        tables[slot:slot + 8] = _U64.pack(cursor)
        view = memoryview(array).cast("B").toreadonly()
        payload.append(view)
        payload_crc = zlib.crc32(view, payload_crc)
        cursor += array.nbytes
    frame_len = cursor

    header = bytearray(header_len)
    header[:_PROLOGUE.size] = _PROLOGUE.pack(
        MAGIC, FRAME_VERSION, spec.wire_code, header_len, frame_len,
        float(epsilon), int(num_cells), payload_crc)
    table_end = _PROLOGUE.size + len(tables)
    header[_PROLOGUE.size:table_end] = tables
    header_crc = zlib.crc32(memoryview(header)[:header_len - _CRC.size])
    header[header_len - _CRC.size:] = _CRC.pack(header_crc)
    return bytes(header), payload


def encode_report(report, *, protocol: str, epsilon: float,
                  num_cells: int, key: Tuple[int, ...]) -> bytes:
    """Serialize one report into a self-contained wire frame.

    The frame is :func:`encode_report_parts`' header and payload joined;
    see there for the pin arguments.
    """
    header, payload = encode_report_parts(
        report, protocol=protocol, epsilon=epsilon, num_cells=num_cells,
        key=key)
    return b"".join([header, *payload])


class _Reader:
    """Bounds-checked cursor over the header's variable tables."""

    def __init__(self, buf: memoryview, start: int, end: int):
        self.buf = buf
        self.pos = start
        self.end = end

    def take(self, count: int) -> memoryview:
        if self.pos + count > self.end:
            raise PayloadError("frame header truncated mid-table")
        view = self.buf[self.pos:self.pos + count]
        self.pos += count
        return view

    def u8(self) -> int:
        return self.take(1)[0]

    def name(self) -> str:
        raw = bytes(self.take(self.u8()))
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError:
            raise PayloadError(f"non-ascii field name {raw!r}") from None
        if not text.isidentifier():
            raise PayloadError(f"invalid field name {text!r}")
        return text


def frame_length(data: Union[bytes, bytearray, memoryview]
                 ) -> Optional[int]:
    """Total length of the frame starting at ``data[0]``.

    Returns ``None`` when fewer than 16 bytes are available (the fixed
    part of the prologue that carries the length); raises
    :class:`~repro.errors.WireError` on a wrong magic or version, so
    stream consumers fail fast instead of scanning garbage.
    """
    view = memoryview(data)
    if len(view) < 16:
        return None
    if bytes(view[:4]) != MAGIC:
        raise WireError(f"bad frame magic {bytes(view[:4])!r}")
    version = view[4]
    if version != FRAME_VERSION:
        raise WireError(
            f"unsupported frame version {version} (supported: "
            f"{FRAME_VERSION})")
    (length,) = _U64.unpack_from(view, 8)
    return length


def decode_frame(data: Union[bytes, bytearray, memoryview]) -> WireFrame:
    """Parse one frame; payload arrays are zero-copy views into ``data``.

    Raises :class:`~repro.errors.WireError` on any structural defect —
    truncation, CRC mismatch (header or payload), unknown wire code,
    out-of-bounds offsets, or a payload that the report constructor
    rejects. Defects found after both CRCs match (everything from the
    wire code on) raise the :class:`~repro.errors.PayloadError`
    subclass: the frame is intact, only its content is bad. A clean
    decode guarantees a well-formed report, nothing about honesty: the
    caller must still check the frame's pin and pass ``report`` through
    the ingestion sanitizers against the plan.
    """
    view = memoryview(data)
    if isinstance(data, (bytearray, memoryview)) and not view.readonly:
        view = view.toreadonly()
    if len(view) < _PROLOGUE.size:
        raise WireError(
            f"frame truncated: {len(view)} bytes < {_PROLOGUE.size}-byte "
            f"prologue")
    (magic, version, wire_code, header_len, frame_len, epsilon,
     num_cells, payload_crc) = _PROLOGUE.unpack_from(view, 0)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise WireError(
            f"unsupported frame version {version} (supported: "
            f"{FRAME_VERSION})")
    if not _PROLOGUE.size + _CRC.size <= header_len <= frame_len:
        raise WireError(
            f"inconsistent lengths: header {header_len}, frame "
            f"{frame_len}")
    if len(view) < frame_len:
        raise WireError(
            f"frame truncated: {len(view)} of {frame_len} bytes")
    view = view[:frame_len]
    stored_header_crc = _CRC.unpack_from(
        view, header_len - _CRC.size)[0]
    if zlib.crc32(view[:header_len - _CRC.size]) != stored_header_crc:
        raise WireError("header CRC mismatch (corrupted frame)")
    if zlib.crc32(view[header_len:]) != payload_crc:
        raise WireError("payload CRC mismatch (corrupted frame)")
    spec = spec_for_wire_code(wire_code)
    if spec is None:
        raise PayloadError(f"unknown protocol wire code {wire_code}")

    reader = _Reader(view, _PROLOGUE.size, header_len - _CRC.size)
    key_len = reader.u8()
    if key_len > MAX_KEY_ENTRIES:
        raise PayloadError(f"grid key length {key_len} exceeds "
                           f"{MAX_KEY_ENTRIES}")
    key = tuple(_I64.unpack(reader.take(8))[0] for _ in range(key_len))

    n_arrays = reader.u8()
    if n_arrays > MAX_FIELDS:
        raise PayloadError(f"array field count {n_arrays} exceeds "
                           f"{MAX_FIELDS}")
    fields = {}
    for _ in range(n_arrays):
        name = reader.name()
        dtype_raw = bytes(reader.take(reader.u8()))
        try:
            dtype = np.dtype(dtype_raw.decode("ascii"))
        except (TypeError, ValueError, UnicodeDecodeError):
            raise PayloadError(f"undecodable dtype {dtype_raw!r} for "
                               f"field {name!r}") from None
        if dtype.kind not in _ALLOWED_KINDS or dtype.itemsize > 8:
            raise PayloadError(
                f"field {name!r} dtype {dtype} outside the allowed "
                f"integer/float wire types")
        (offset,) = _U64.unpack(reader.take(8))
        (count,) = _U64.unpack(reader.take(8))
        end = offset + count * dtype.itemsize
        if offset < header_len or end > frame_len:
            raise PayloadError(
                f"field {name!r} payload [{offset}, {end}) escapes the "
                f"frame [{header_len}, {frame_len})")
        if name in fields:
            raise PayloadError(f"duplicate field {name!r}")
        fields[name] = np.frombuffer(view, dtype=dtype, count=count,
                                     offset=offset)

    n_scalars = reader.u8()
    if n_scalars > MAX_FIELDS:
        raise PayloadError(f"scalar field count {n_scalars} exceeds "
                           f"{MAX_FIELDS}")
    for _ in range(n_scalars):
        name = reader.name()
        tag = bytes(reader.take(1))
        if tag == b"i":
            (value,) = _I64.unpack(reader.take(8))
        elif tag == b"f":
            (value,) = _F64.unpack(reader.take(8))
        else:
            raise PayloadError(f"unknown scalar tag {tag!r} for field "
                               f"{name!r}")
        if name in fields:
            raise PayloadError(f"duplicate field {name!r}")
        fields[name] = value

    try:
        report = spec.report_type(**fields)
    except (ReproError, TypeError, ValueError, OverflowError) as exc:
        raise PayloadError(
            f"frame payload does not build a valid "
            f"{spec.report_type.__name__}: {exc}") from None
    return WireFrame(protocol=spec.name, epsilon=epsilon,
                     num_cells=num_cells, key=key, report=report,
                     nbytes=frame_len)
