"""The wire: a compact versioned binary codec for ε-LDP report frames.

Everything a deployed FELIP aggregator receives arrives through here: one
*frame* per report, self-describing and CRC-protected, whose header pins
exactly the :class:`~repro.robustness.ReportSpec` surface the ingestion
sanitizers check — protocol, epsilon, cell count, and target grid key —
and whose payload is the report's arrays, decoded as zero-copy numpy
views into the frame buffer.

See :mod:`repro.wire.codec` for the frame layout and versioning rules,
and :mod:`repro.service` for the asyncio front door that feeds decoded
frames into :class:`~repro.core.StreamingCollector`.
"""

from repro.wire.codec import (
    FRAME_VERSION,
    WireFrame,
    decode_frame,
    encode_report,
    encode_report_parts,
    frame_length,
)
from repro.wire.session import (
    SESSION_VERSION,
    SequencedDecoder,
    ack_line,
    encode_envelope,
    hello_line,
    parse_ack,
    parse_hello,
    parse_session_reply,
    refusal_line,
    session_reply,
)

__all__ = [
    "FRAME_VERSION",
    "SESSION_VERSION",
    "SequencedDecoder",
    "WireFrame",
    "ack_line",
    "decode_frame",
    "encode_envelope",
    "encode_report",
    "encode_report_parts",
    "frame_length",
    "hello_line",
    "parse_ack",
    "parse_hello",
    "parse_session_reply",
    "refusal_line",
    "session_reply",
]
