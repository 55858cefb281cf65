"""Wire codec: round-trips for every registry report type, adversarial frames.

Property-tested guarantees: (1) encode→decode is bit-identical for every
wire-capable protocol's reports across drawn parameters, and the frame
is exactly :func:`~repro.wire.encode_report_parts`' header plus its
zero-copy payload views joined, (2) *any*
single-bit corruption or truncation of a frame raises
:class:`~repro.errors.WireError` — never a crash, never a silently wrong
report — and (3) the incremental :class:`~repro.wire.FrameDecoder`
produces the same frame sequence regardless of how the byte stream is
chunked.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireError
from repro.fo.adaptive import make_oracle
from repro.fo.grr import GRRReport
from repro.fo.registry import (ProtocolSpec, get, register,
                               spec_for_wire_code, unregister, wire_codes)
from repro.wire import (
    FRAME_VERSION,
    FrameDecoder,
    decode_frame,
    encode_report,
    encode_report_parts,
    frame_length,
)

WIRE_PROTOCOLS = sorted(wire_codes())

#: drawn from a small grid so the (protocol, epsilon, cells) oracle cache
#: hits — THE re-runs a numerical threshold optimization per construction
EPSILONS = (0.25, 1.0, 3.0)


@lru_cache(maxsize=None)
def oracle_for(protocol: str, epsilon: float, num_cells: int):
    return make_oracle(protocol, epsilon, num_cells)


def assert_reports_identical(a, b) -> None:
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype, field.name
            assert np.array_equal(va, vb), field.name
        else:
            assert va == vb, field.name


def sample_frame(protocol: str = "grr", epsilon: float = 1.0,
                 num_cells: int = 8, n: int = 25,
                 key=(0, 1), seed: int = 3) -> bytes:
    rng = np.random.default_rng(seed)
    oracle = oracle_for(protocol, epsilon, num_cells)
    report = oracle.perturb(rng.integers(0, num_cells, size=n), rng)
    return encode_report(report, protocol=protocol, epsilon=epsilon,
                         num_cells=num_cells, key=key)


class TestRoundTrip:
    @pytest.mark.parametrize("protocol", WIRE_PROTOCOLS)
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_bit_identical_for_every_protocol(self, protocol, data):
        epsilon = data.draw(st.sampled_from(EPSILONS))
        num_cells = data.draw(st.integers(2, 24))
        n = data.draw(st.integers(1, 96))
        seed = data.draw(st.integers(0, 2**31 - 1))
        key = tuple(data.draw(st.lists(
            st.integers(-2**40, 2**40), max_size=4)))
        oracle = oracle_for(protocol, epsilon, num_cells)
        report = oracle.perturb(
            np.random.default_rng(seed).integers(0, num_cells, size=n),
            np.random.default_rng(seed + 1))

        frame = encode_report(report, protocol=protocol, epsilon=epsilon,
                              num_cells=num_cells, key=key)
        decoded = decode_frame(frame)
        assert decoded.protocol == protocol
        assert decoded.epsilon == epsilon  # exact f64 echo, not approx
        assert decoded.num_cells == num_cells
        assert decoded.key == key
        assert decoded.nbytes == len(frame) == frame_length(frame)
        assert_reports_identical(report, decoded.report)

    @pytest.mark.parametrize("protocol", WIRE_PROTOCOLS)
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_parts_join_to_the_frame_and_alias_the_report(self, protocol,
                                                          data):
        """``encode_report`` is the parts joined; the payload is pads
        and read-only views of the report's own arrays (no copy)."""
        epsilon = data.draw(st.sampled_from(EPSILONS))
        num_cells = data.draw(st.integers(2, 24))
        n = data.draw(st.integers(1, 96))
        seed = data.draw(st.integers(0, 2**31 - 1))
        key = tuple(data.draw(st.lists(
            st.integers(-2**40, 2**40), max_size=4)))
        oracle = oracle_for(protocol, epsilon, num_cells)
        report = oracle.perturb(
            np.random.default_rng(seed).integers(0, num_cells, size=n),
            np.random.default_rng(seed + 1))
        pin = dict(protocol=protocol, epsilon=epsilon,
                   num_cells=num_cells, key=key)

        header, payload = encode_report_parts(report, **pin)
        assert encode_report(report, **pin) == header + b"".join(payload)
        views = [part for part in payload if isinstance(part, memoryview)]
        pads = [part for part in payload if not isinstance(part, memoryview)]
        assert all(view.readonly for view in views)
        assert all(len(pad) < 8 and not any(pad) for pad in pads)
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if isinstance(value, np.ndarray) and value.nbytes:
                assert any(np.shares_memory(value, np.frombuffer(
                    view, dtype=np.uint8)) for view in views), field.name

    def test_zero_user_report(self):
        report = GRRReport(values=np.array([], dtype=np.int64),
                           domain_size=5)
        frame = encode_report(report, protocol="grr", epsilon=1.0,
                              num_cells=5, key=(2,))
        assert_reports_identical(report, decode_frame(frame).report)

    def test_decoded_arrays_are_zero_copy_readonly_views(self):
        decoded = decode_frame(sample_frame()).report
        assert decoded.values.flags.writeable is False
        assert decoded.values.base is not None  # a view, not a copy
        with pytest.raises((ValueError, RuntimeError)):
            decoded.values[0] = 0


@dataclasses.dataclass(frozen=True)
class PaddedReport:
    """A report whose first array leaves the second one unaligned (no
    built-in report does: their arrays are 8-byte, or last)."""

    flags: np.ndarray
    values: np.ndarray


class TestPayloadPads:
    def test_unaligned_array_gets_a_zero_pad(self):
        register(ProtocolSpec(name="padded", factory=lambda e, d: None,
                              report_type=PaddedReport, mergeable=False,
                              streamable=False, wire_code=250))
        try:
            report = PaddedReport(flags=np.arange(5, dtype=np.int8),
                                  values=np.arange(3, dtype=np.int64))
            pin = dict(protocol="padded", epsilon=1.0, num_cells=5,
                       key=(1,))
            header, payload = encode_report_parts(report, **pin)
            assert len(header) % 8 == 0
            assert [len(part) for part in payload] == [5, 3, 24]
            assert payload[1] == bytes(3)
            frame = encode_report(report, **pin)
            assert frame == header + b"".join(payload)
            assert_reports_identical(report, decode_frame(frame).report)
        finally:
            unregister("padded")


class TestAdversarialFrames:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_single_bit_flip_is_rejected(self, data):
        frame = bytearray(sample_frame())
        position = data.draw(st.integers(0, len(frame) * 8 - 1))
        frame[position // 8] ^= 1 << (position % 8)
        with pytest.raises(WireError):
            decode_frame(bytes(frame))

    @given(cut=st.integers(0, 903))
    @settings(max_examples=40, deadline=None)
    def test_any_truncation_is_rejected(self, cut):
        frame = sample_frame()
        cut = min(cut, len(frame) - 1)
        with pytest.raises(WireError):
            decode_frame(frame[:cut])

    def test_unknown_wire_code_rejected(self):
        frame = bytearray(sample_frame())
        dead_code = 251
        assert spec_for_wire_code(dead_code) is None
        frame[5] = dead_code
        # Re-seal the header so the CRC passes and the code check is the
        # failure actually exercised.
        (header_len,) = struct.unpack_from("<H", frame, 6)
        frame[header_len - 4:header_len] = struct.pack(
            "<I", zlib.crc32(bytes(frame[:header_len - 4])))
        with pytest.raises(WireError, match="wire code"):
            decode_frame(bytes(frame))

    def test_wrong_version_rejected(self):
        frame = bytearray(sample_frame())
        frame[4] = FRAME_VERSION + 1
        with pytest.raises(WireError, match="version"):
            frame_length(bytes(frame))
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(frame))

    def test_garbage_is_not_a_frame(self):
        with pytest.raises(WireError, match="magic"):
            decode_frame(b"x" * 64)
        with pytest.raises(WireError, match="magic"):
            frame_length(b"x" * 64)
        assert frame_length(b"FLW1") is None  # too short to judge

    def test_encode_refuses_wireless_protocols_and_foreign_reports(self):
        report = decode_frame(sample_frame()).report
        assert get("ahead").wire_code is None
        with pytest.raises(WireError, match="wire_code"):
            encode_report(report, protocol="ahead", epsilon=1.0,
                          num_cells=8, key=(0,))
        with pytest.raises(WireError, match="reports"):
            encode_report(report, protocol="oue", epsilon=1.0,
                          num_cells=8, key=(0,))


class TestFrameDecoder:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_chunking_invariant(self, data):
        stream = b"".join(
            sample_frame(protocol=p, num_cells=6, n=10, key=(i,),
                         seed=i)
            for i, p in enumerate(("grr", "oue", "hr")))
        reference = [f.key for f in FrameDecoder().feed(stream)]
        assert len(reference) == 3

        decoder = FrameDecoder()
        keys = []
        cursor = 0
        while cursor < len(stream):
            step = data.draw(st.integers(1, 257))
            keys += [f.key
                     for f in decoder.feed(stream[cursor:cursor + step])]
            cursor += step
        assert keys == reference
        assert decoder.pending_bytes == 0

    def test_garbage_mid_stream_raises(self):
        decoder = FrameDecoder()
        list(decoder.feed(sample_frame()))
        with pytest.raises(WireError):
            list(decoder.feed(b"not a frame at all" * 2))

    def test_oversized_declared_length_rejected_before_buffering(self):
        frame = bytearray(sample_frame())
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(WireError, match="limit"):
            list(decoder.feed(bytes(frame)))
