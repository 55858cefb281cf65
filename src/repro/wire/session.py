"""Session layer over the wire codec: sequencing, hellos, and acks.

The frame codec (:mod:`repro.wire.codec`) makes a single report
self-contained and corruption-evident, but says nothing about *delivery*:
a connection that dies mid-stream leaves both ends unsure which frames
made it. This module adds the minimal session vocabulary the resilient
client/service pair speaks on top of a byte stream:

* every frame travels inside a 12-byte **envelope** — magic ``b"FSEQ"``
  plus a u64 sequence number the client assigns monotonically from 1;
* a connection opens with an ASCII **hello line**
  (``FELIP-SESSION 1 <client_id>\\n``) naming the logical sender, which
  survives reconnects — the server keys its duplicate suppression on it;
* the server answers with ``OK <last_seq> <durable_seq>\\n`` — the
  highest sequence it has *admitted* for this client and the highest it
  has made *durable* (covered by a checkpoint on disk) — and thereafter
  emits one ``ACK <seq> <durable_seq>\\n`` line per processed frame.

The split between the two watermarks is what makes crash recovery exact:
a client may stop *retransmitting* a frame once it is acked
(``seq <= last_seq``), but may only *forget* it once it is durable
(``seq <= durable_seq``), because an ack tells the client the frame
reached the collector's memory, not its checkpoint. After the server is
killed and restored, the hello reply's ``last_seq`` rewinds to the
checkpointed watermark and the client replays exactly the frames the
snapshot missed — no loss, and the server's per-client last-seen check
guarantees no double count. Sequence numbers within one connection must
be contiguous; a gap proves an in-flight frame was lost, and since a
binary stream cannot be resynchronized mid-flow the server drops the
connection and lets the handshake repair the window.

Everything here is layout and parsing; the *behavior* lives in
:class:`repro.service.client.WireClient` and
:class:`repro.service.IngestionService`.
"""

from __future__ import annotations

import re
import struct
from typing import Iterator, Tuple, Union

from repro.errors import PayloadError, WireError
from repro.wire.codec import WireFrame, decode_frame, frame_length

__all__ = [
    "SEQ_MAGIC",
    "SESSION_VERSION",
    "SequencedDecoder",
    "ack_line",
    "encode_envelope",
    "hello_line",
    "parse_ack",
    "parse_hello",
    "parse_session_reply",
    "refusal_line",
    "session_reply",
]

SEQ_MAGIC = b"FSEQ"
SESSION_VERSION = 1

#: envelope: magic + u64 sequence number
ENVELOPE = struct.Struct("<4sQ")

#: logical sender identities must be printable, spaceless, and bounded —
#: they end up in audit trails, ack lines, and checkpoint meta JSON
_CLIENT_ID = re.compile(r"^[A-Za-z0-9._:\-]{1,64}$")

#: ceiling on line length accepted from the peer before we call it abuse
MAX_LINE_BYTES = 256

#: ceiling on one frame's declared length: a larger claim is refused from
#: its 16-byte prologue, before the decoder buffers toward it
MAX_FRAME_BYTES = 1 << 28


def _validate_client_id(client_id: str) -> str:
    if not isinstance(client_id, str) or not _CLIENT_ID.match(client_id):
        raise WireError(
            f"client id {client_id!r} is not 1-64 characters of "
            f"[A-Za-z0-9._:-]")
    return client_id


def encode_envelope(seq: int, frame: bytes) -> bytes:
    """Wrap one encoded frame in its sequence envelope."""
    if seq < 1:
        raise WireError(f"sequence numbers start at 1, got {seq}")
    return ENVELOPE.pack(SEQ_MAGIC, seq) + frame


def hello_line(client_id: str) -> bytes:
    """The session-opening line a client writes after connecting."""
    return (f"FELIP-SESSION {SESSION_VERSION} "
            f"{_validate_client_id(client_id)}\n").encode("ascii")


def parse_hello(line: bytes) -> str:
    """Validate a hello line; returns the client id."""
    parts = _ascii_line(line).split()
    if len(parts) != 3 or parts[0] != "FELIP-SESSION":
        raise WireError(f"malformed session hello {line!r}")
    if parts[1] != str(SESSION_VERSION):
        raise WireError(
            f"unsupported session version {parts[1]!r} (supported: "
            f"{SESSION_VERSION})")
    return _validate_client_id(parts[2])


def session_reply(last_seq: int, durable_seq: int) -> bytes:
    """The server's answer to a hello: both per-client watermarks."""
    return f"OK {int(last_seq)} {int(durable_seq)}\n".encode("ascii")


def refusal_line(reason: str) -> bytes:
    """The server's answer when admission control refuses the session."""
    cleaned = " ".join(str(reason).split()) or "refused"
    return f"ERR {cleaned}\n".encode("ascii")


def parse_session_reply(line: bytes) -> Tuple[int, int]:
    """Parse ``OK <last> <durable>``; returns the watermark pair.

    A refusal (``ERR <reason>``) raises :class:`~repro.errors.WireError`
    carrying the server's reason — the client maps it to a terminal
    :class:`~repro.errors.ClientError` rather than retrying into a ban.
    """
    text = _ascii_line(line)
    parts = text.split()
    if parts and parts[0] == "ERR":
        raise WireError(
            f"session refused: {' '.join(parts[1:]) or 'unspecified'}")
    if len(parts) != 3 or parts[0] != "OK":
        raise WireError(f"malformed session reply {line!r}")
    last_seq, durable_seq = _watermarks(parts[1], parts[2], line)
    return last_seq, durable_seq


def ack_line(seq: int, durable_seq: int) -> bytes:
    """One per-frame acknowledgement line."""
    return f"ACK {int(seq)} {int(durable_seq)}\n".encode("ascii")


def parse_ack(line: bytes) -> Tuple[int, int]:
    """Parse ``ACK <seq> <durable>``; returns the pair."""
    parts = _ascii_line(line).split()
    if len(parts) != 3 or parts[0] != "ACK":
        raise WireError(f"malformed ack line {line!r}")
    return _watermarks(parts[1], parts[2], line)


def _ascii_line(line: bytes) -> str:
    if len(line) > MAX_LINE_BYTES:
        raise WireError(f"session line exceeds {MAX_LINE_BYTES} bytes")
    try:
        return bytes(line).decode("ascii").strip()
    except UnicodeDecodeError:
        raise WireError(f"non-ascii session line {line!r}") from None


def _watermarks(last_raw: str, durable_raw: str,
                line: bytes) -> Tuple[int, int]:
    try:
        last_seq, durable_seq = int(last_raw), int(durable_raw)
    except ValueError:
        raise WireError(f"non-numeric watermark in {line!r}") from None
    if last_seq < 0 or durable_seq < 0 or durable_seq > last_seq:
        raise WireError(
            f"inconsistent watermarks last={last_seq} "
            f"durable={durable_seq}")
    return last_seq, durable_seq


class SequencedDecoder:
    """Incremental splitter for a stream of envelope-wrapped frames.

    Feed arbitrary chunks (as a socket delivers them), get back
    ``(seq, frame, wire_bytes)`` triples where ``wire_bytes`` counts the
    envelope too (so byte accounting charges what actually crossed the
    socket); partial frames wait for more bytes. Structural garbage — a
    bad envelope magic, a corrupt frame, a declared length over
    :data:`MAX_FRAME_BYTES` — raises :class:`~repro.errors.WireError`
    immediately: a binary stream cannot be resynchronized after it, so
    the buffered bytes (:attr:`pending_bytes`) are the undecodable
    remainder the caller should charge to the peer before dropping the
    connection.

    A *poison* frame — envelope and both CRCs intact, content not a
    valid report — is consumed instead: its triple carries the
    :class:`~repro.errors.PayloadError` in the frame's place, so the
    caller can reject that one sequence number and keep the stream.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: Union[bytes, bytearray]
             ) -> Iterator[Tuple[int, Union[WireFrame, PayloadError], int]]:
        """Absorb ``data``; yield every ``(seq, frame, nbytes)`` completed
        (``frame`` is a :class:`~repro.errors.PayloadError` for a poison
        frame)."""
        self._buffer += data
        while True:
            if len(self._buffer) < ENVELOPE.size:
                return
            magic, seq = ENVELOPE.unpack_from(self._buffer, 0)
            if magic != SEQ_MAGIC:
                raise WireError(f"bad envelope magic {bytes(magic)!r}")
            if seq < 1:
                raise WireError(f"envelope sequence {seq} out of range")
            head = self._buffer[ENVELOPE.size:ENVELOPE.size + 16]
            length = frame_length(head)
            if length is None:
                return
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"declared frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit")
            total = ENVELOPE.size + length
            if len(self._buffer) < total:
                return
            # bytes() detaches the frame from the reusable buffer so the
            # decoded report's zero-copy views stay valid after the next
            # feed().
            try:
                frame = decode_frame(
                    bytes(self._buffer[ENVELOPE.size:total]))
            except PayloadError as exc:
                frame = exc
            del self._buffer[:total]
            yield seq, frame, total

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) envelope+frame."""
        return len(self._buffer)
