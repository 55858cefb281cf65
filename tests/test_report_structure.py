"""A report's constructor is its only structural check.

Driven over every registered protocol with a wire code: each structural
corruption a hostile client can put in a report — rows outside their
range, fractional rows or counts, NaN sums, counters above ``n``, a
negative or fractional ``n``, a non-finite θ or wave width, 2-D arrays —
raises :class:`~repro.errors.ProtocolError` when the report is
constructed directly. :func:`~repro.robustness.forge_report` skips the
constructor the way that client does, and encoding what it builds gives
the frame the client sends: decoding that frame raises
:class:`~repro.errors.PayloadError`, so a session acks it in sequence as a
poison frame. A 2-D array cannot reach the wire at all:
:func:`~repro.wire.encode_report` refuses it. Reports that are well
formed but disagree with their plan are the sanitizers' to reject
(``tests/test_robustness_policy.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import PayloadError, ProtocolError, WireError
from repro.fo.grr import GRRReport
from repro.fo.he import SHEReport, THEReport
from repro.fo.hr import HRReport
from repro.fo.olh import OLHReport
from repro.fo.oue import OUEReport
from repro.fo.registry import get, wire_codes
from repro.fo.square_wave import SWReport
from repro.robustness import forge_report
from repro.wire import decode_frame, encode_report

DOMAIN = 8


def _honest(protocol: str):
    oracle = get(protocol).factory(1.0, DOMAIN)
    rng = np.random.default_rng(5)
    return oracle.perturb(rng.integers(0, DOMAIN, size=40), rng)


def _fields(report) -> dict:
    return {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)}


def _as_float(array: np.ndarray, bad: float) -> np.ndarray:
    out = np.asarray(array, dtype=np.float64).copy()
    out[0] = bad
    return out


#: per report type: ``label -> corruption(honest report) -> changed fields``
CORRUPTIONS = {
    GRRReport: {
        "out-of-domain": lambda r: {"values": np.array([0, 1, 99, -2, 3])},
        "one-out-of-domain": lambda r: {"values": np.array([0, 99])},
        "all-out-of-domain": lambda r: {"values": np.array([50, 60])},
        "above-domain": lambda r: {"values": np.array([77])},
        "far-above-domain": lambda r: {"values": np.array([10_000])},
        "fractional": lambda r: {"values": np.array([0.5, 1.0])},
        "nan": lambda r: {"values": _as_float(r.values, np.nan)},
        "2d": lambda r: {"values": np.atleast_2d(r.values)},
    },
    OLHReport: {
        "bucket-out-of-range": lambda r: {
            "seeds": np.arange(4, dtype=np.uint64),
            "buckets": np.array([0, 1, r.hash_range + 5, 1])},
        "buckets-far-out-of-range": lambda r: {
            "seeds": np.arange(50, dtype=np.uint64),
            "buckets": np.full(50, 10_000)},
        "fractional-buckets": lambda r: {
            "seeds": np.arange(4, dtype=np.uint64),
            "buckets": np.array([0.5, 1.9, 0.2, 1.0])},
        "fractional-seeds": lambda r: {
            "seeds": _as_float(r.seeds, 0.5)},
        "seed-bucket-mismatch": lambda r: {"seeds": r.seeds[:-1]},
        "2d": lambda r: {"seeds": np.atleast_2d(r.seeds)},
    },
    OUEReport: {
        "above-n": lambda r: {"ones": np.array([5, 200, 1]), "n": 100},
        "negative": lambda r: {"ones": np.full(DOMAIN, -5)},
        "nan": lambda r: {"ones": r.ones.astype(float) + np.nan},
        "fractional": lambda r: {"ones": np.array([0.5, 0.9, 0.5, 0.9]),
                                 "n": 2},
        "fractional-n": lambda r: {"ones": np.zeros(DOMAIN), "n": 2.7},
        "negative-n": lambda r: {"ones": np.zeros(DOMAIN), "n": -3},
        "zero-users": lambda r: {"n": 0},
        "2d": lambda r: {"ones": np.atleast_2d(r.ones)},
    },
    SHEReport: {
        "nan": lambda r: {"sums": np.full(DOMAIN, np.nan)},
        "inf": lambda r: {"sums": _as_float(r.sums, np.inf)},
        "negative-n": lambda r: {"n": -3},
        "fractional-n": lambda r: {"n": 2.7},
        "2d": lambda r: {"sums": np.atleast_2d(r.sums)},
    },
    THEReport: {
        "above-n": lambda r: {"supports": np.full(DOMAIN, r.n + 10)},
        "fractional": lambda r: {"supports": r.supports + 0.5},
        "infinite-threshold": lambda r: {"threshold": np.inf},
        "negative-n": lambda r: {"n": -3},
        "2d": lambda r: {"supports": np.atleast_2d(r.supports)},
    },
    SWReport: {
        "negative": lambda r: {"counts": np.full_like(r.counts, -1)},
        "sum-mismatch": lambda r: {"n": r.n + 999},
        "fractional": lambda r: {"counts": np.array([2.5, 2.5, 0.0]),
                                 "n": 5},
        "zero-wave-width": lambda r: {"wave_width": 0.0},
        "nan-wave-width": lambda r: {"wave_width": np.nan},
        "2d": lambda r: {"counts": np.atleast_2d(r.counts)},
    },
    HRReport: {
        "row-out-of-range": lambda r: {"rows": np.r_[99, r.rows[1:]]},
        "bit-not-a-sign": lambda r: {"bits": np.r_[r.bits[:1], 0,
                                                   r.bits[2:]]},
        "fractional-rows": lambda r: {"rows": np.array([0.5, 3.7]),
                                      "bits": np.array([1, -1])},
        "float-bits": lambda r: {"bits": r.bits.astype(float)},
        "2d": lambda r: {"rows": np.atleast_2d(r.rows)},
    },
}

WIRE_PROTOCOLS = sorted(wire_codes())

CASES = [(protocol, label) for protocol in WIRE_PROTOCOLS
         for label in CORRUPTIONS.get(get(protocol).report_type, {})]


def _corrupt(protocol: str, label: str):
    report = _honest(protocol)
    change = CORRUPTIONS[type(report)][label](report)
    return type(report), {**_fields(report), **change}


def test_every_wire_protocol_has_corruptions():
    missing = [p for p in WIRE_PROTOCOLS
               if get(p).report_type not in CORRUPTIONS]
    assert missing == []


class TestCorruption:
    @pytest.mark.parametrize(
        "protocol,label", CASES, ids=[f"{p}-{label}" for p, label in CASES])
    def test_constructor_raises(self, protocol, label):
        report_type, fields = _corrupt(protocol, label)
        with pytest.raises(ProtocolError):
            report_type(**fields)

    @pytest.mark.parametrize(
        "protocol,label", CASES, ids=[f"{p}-{label}" for p, label in CASES])
    def test_frame_is_a_payload_error(self, protocol, label):
        report_type, fields = _corrupt(protocol, label)
        forged = forge_report(report_type, **fields)
        pin = dict(protocol=protocol, epsilon=1.0, num_cells=DOMAIN,
                   key=(0,))
        if any(np.ndim(value) > 1 for value in fields.values()):
            with pytest.raises(WireError, match="1-D"):
                encode_report(forged, **pin)
            return
        with pytest.raises(PayloadError):
            decode_frame(encode_report(forged, **pin))
