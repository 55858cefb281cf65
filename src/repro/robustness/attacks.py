"""Poisoning-attack simulators: forge the reports malicious users send.

Three adversaries from the data-poisoning literature on LDP frequency
estimation (Cao, Jia & Gong, "Data Poisoning Attacks to Local Differential
Privacy Protocols", USENIX Security 2021 — the threat model Cormode et
al.'s benchmark study says separates reproductions from deployable
systems):

* :class:`RandomValueAttack` (RIA) — each malicious user picks a uniformly
  random *input* value and perturbs it honestly. The weakest adversary:
  its reports are distributionally indistinguishable from honest users
  with uniform data, so it can only dilute, never target.
* :class:`RandomReportAttack` (RPA) — each malicious user sends a
  uniformly random point of the protocol's *output* space, skipping the
  perturbation entirely. Cheap to mount, mildly biased toward nothing.
* :class:`MaximalGainAttack` (MGA) — every fake report is crafted so the
  attacker's target cell gains the maximum possible support: GRR fakes
  report the target itself, OLH fakes pick a random seed and report the
  bucket that seed hashes the target to (support probability 1 instead of
  p), unary/histogram fakes saturate the target counter.

Forged reports are returned as ordinary report objects that fold with the
honest batch (``oracle.fold(None, [honest, forged])``) — exactly how they
would enter a real aggregator, whose collectors fold every admitted
report into its grid's state. :func:`forge_report` builds report
instances *bypassing constructor validation*, modelling a hostile client
that does not run our client library: encoding what it builds gives the
frame that client sends.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.fo.grr import GeneralizedRandomizedResponse, GRRReport
from repro.fo.he import (
    SHEReport,
    SummationHistogramEncoding,
    THEReport,
    ThresholdHistogramEncoding,
)
from repro.fo.hashing import chain_hash, random_seeds
from repro.fo.olh import OLHReport, OptimizedLocalHashing
from repro.fo.oue import OptimizedUnaryEncoding, OUEReport
from repro.fo.square_wave import SquareWave, SWReport
from repro.fo.sue import SymmetricUnaryEncoding
from repro.rng import RngLike, ensure_rng


def forge_report(report_cls, **fields):
    """Construct a report instance without running its validation.

    This models a hostile client, which fills a report's fields with
    whatever it likes: the report is allocated and its fields set
    directly, bypassing ``__init__`` and the dataclass ``__post_init__``
    checks. Encoding the result (:func:`repro.wire.encode_report`) gives
    the frame that client sends. The aggregator never ingests such an
    object as is: :func:`repro.wire.decode_frame` builds every report
    through its validating constructor, so a structurally invalid
    payload is a :class:`~repro.errors.PayloadError`, and a well-formed
    one that lies about its parameters is rejected by the ingestion
    sanitizers (:func:`repro.robustness.sanitize_report`).
    """
    report = object.__new__(report_cls)
    for name, value in fields.items():
        object.__setattr__(report, name, value)
    return report


class PoisoningAttack:
    """Interface: forge ``num_fake`` malicious reports for one oracle."""

    name = ""

    def forge(self, oracle, num_fake: int, target: int,
              rng: RngLike = None):
        """A single report object carrying ``num_fake`` fake users."""
        raise NotImplementedError


class RandomValueAttack(PoisoningAttack):
    """RIA: honest perturbation of uniformly random input values."""

    name = "random_value"

    def forge(self, oracle, num_fake: int, target: int,
              rng: RngLike = None):
        rng = ensure_rng(rng)
        values = rng.integers(0, oracle.domain_size, size=num_fake)
        return oracle.perturb(values, rng)


class RandomReportAttack(PoisoningAttack):
    """RPA: uniformly random points of the protocol's output space."""

    name = "random_report"

    def forge(self, oracle, num_fake: int, target: int,
              rng: RngLike = None):
        rng = ensure_rng(rng)
        d = oracle.domain_size
        if isinstance(oracle, GeneralizedRandomizedResponse):
            return GRRReport(
                values=rng.integers(0, d, size=num_fake),
                domain_size=d)
        if isinstance(oracle, OptimizedLocalHashing):
            return OLHReport(
                seeds=random_seeds(num_fake, rng),
                buckets=rng.integers(0, oracle.g, size=num_fake),
                hash_range=oracle.g, domain_size=d)
        if isinstance(oracle, (OptimizedUnaryEncoding,
                               SymmetricUnaryEncoding)):
            # Each fake bit vector is iid Bernoulli(1/2) per coordinate.
            return OUEReport(ones=rng.binomial(num_fake, 0.5, size=d),
                             n=num_fake)
        if isinstance(oracle, SummationHistogramEncoding):
            sums = rng.laplace(0.0, oracle.scale,
                               size=(num_fake, d)).sum(axis=0)
            return SHEReport(sums=sums, n=num_fake)
        if isinstance(oracle, ThresholdHistogramEncoding):
            return THEReport(
                supports=rng.binomial(num_fake, 0.5, size=d),
                n=num_fake, threshold=oracle.threshold)
        if isinstance(oracle, SquareWave):
            counts = rng.multinomial(
                num_fake, np.full(oracle.report_buckets,
                                  1.0 / oracle.report_buckets))
            return SWReport(counts=counts, n=num_fake, wave_width=oracle.b)
        raise ConfigurationError(
            f"random-report attack does not support "
            f"{type(oracle).__name__}")


class MaximalGainAttack(PoisoningAttack):
    """MGA: every fake report maximally supports the target cell."""

    name = "max_gain"

    def forge(self, oracle, num_fake: int, target: int,
              rng: RngLike = None):
        rng = ensure_rng(rng)
        d = oracle.domain_size
        if not 0 <= target < d:
            raise ConfigurationError(
                f"target {target} outside domain [0, {d})")
        if isinstance(oracle, GeneralizedRandomizedResponse):
            return GRRReport(
                values=np.full(num_fake, target, dtype=np.int64),
                domain_size=d)
        if isinstance(oracle, OptimizedLocalHashing):
            # Pick a random seed, then report exactly the bucket that
            # seed hashes the target to: the fake supports the target
            # with probability 1 (honest reports: p ≈ e^ε/(e^ε+g-1)).
            seeds = random_seeds(num_fake, rng)
            buckets = chain_hash(
                seeds, [np.full(num_fake, target, dtype=np.uint64)],
                oracle.g)
            return OLHReport(seeds=seeds, buckets=buckets,
                             hash_range=oracle.g, domain_size=d)
        if isinstance(oracle, (OptimizedUnaryEncoding,
                               SymmetricUnaryEncoding)):
            # Naive MGA: only the target bit is set in every fake vector.
            # (Grossly infeasible total weight — exactly what the
            # aggregate feasibility test quarantines.)
            ones = np.zeros(d, dtype=np.int64)
            ones[target] = num_fake
            return OUEReport(ones=ones, n=num_fake)
        if isinstance(oracle, SummationHistogramEncoding):
            sums = np.zeros(d)
            sums[target] = float(num_fake)
            return SHEReport(sums=sums, n=num_fake)
        if isinstance(oracle, ThresholdHistogramEncoding):
            supports = np.zeros(d, dtype=np.int64)
            supports[target] = num_fake
            return THEReport(supports=supports, n=num_fake,
                             threshold=oracle.threshold)
        if isinstance(oracle, SquareWave):
            # All mass in the report bucket containing the target value.
            v = (target + 0.5) / d
            width = (1.0 + 2.0 * oracle.b) / oracle.report_buckets
            bucket = int(np.clip((v + oracle.b) // width, 0,
                                 oracle.report_buckets - 1))
            counts = np.zeros(oracle.report_buckets, dtype=np.int64)
            counts[bucket] = num_fake
            return SWReport(counts=counts, n=num_fake, wave_width=oracle.b)
        raise ConfigurationError(
            f"maximal-gain attack does not support "
            f"{type(oracle).__name__}")


ATTACKS = {
    attack.name: attack
    for attack in (RandomValueAttack(), RandomReportAttack(),
                   MaximalGainAttack())
}


def make_attack(name: str) -> PoisoningAttack:
    """Look up an adversary by name (``random_value`` / ``random_report``
    / ``max_gain``)."""
    try:
        return ATTACKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown attack {name!r}; expected one of "
            f"{sorted(ATTACKS)}") from None
