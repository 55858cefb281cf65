"""Histogram Encoding (Wang et al. USENIX'17) — extension protocols.

Each user one-hot encodes their value and adds Laplace(2/ε) noise to every
coordinate (the noisy-histogram randomizer). Two estimators are provided:

* **SHE** (Summation with HE) — the aggregator simply sums the noisy
  histograms; unbiased, variance ``2·(2/ε)² / n`` per value.
* **THE** (Thresholding with HE) — the aggregator counts coordinates above
  a threshold θ and unbiases the count; with the optimal θ this beats SHE
  at small ε but both are dominated by OUE/OLH (which is why FELIP never
  selects them — they exist here as reference points, matching the
  protocol family of Wang et al.'s comparison).

Like OUE, the per-user vector never needs materializing on the server: SHE
keeps coordinate sums, THE keeps above-threshold counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.errors import ProtocolError
from repro.fo import kernels
from repro.fo.base import (FrequencyOracle, counter_array, sum_array,
                           user_count)
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class SHEReport:
    """Coordinate sums of the users' noisy one-hot histograms.

    Invariants enforced at construction: ``n`` is an integer >= 0, and
    ``sums`` is a finite 1-D vector, normalized to ``float64``.
    """

    sums: np.ndarray
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", user_count(self.n))
        object.__setattr__(self, "sums", sum_array(self.sums, "sums"))

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class THEReport:
    """Above-threshold coordinate counts of the noisy histograms.

    Invariants enforced at construction: ``n`` is an integer >= 0,
    ``supports`` a 1-D vector of integral counts in ``[0, n]``
    (normalized to ``int64``), and θ finite.
    """

    supports: np.ndarray
    n: int
    threshold: float

    def __post_init__(self) -> None:
        n = user_count(self.n)
        if not np.isfinite(self.threshold):
            raise ProtocolError(
                f"threshold must be finite, got {self.threshold}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "supports",
                           counter_array(self.supports, "supports", n))
        object.__setattr__(self, "threshold", float(self.threshold))

    def __len__(self) -> int:
        return self.n


class SummationHistogramEncoding(FrequencyOracle):
    """SHE frequency oracle over ``{0..d-1}``."""

    name = "she"
    summed_field = "sums"
    state_dtype = np.dtype(np.float64)
    state_bounds = None  # Laplace noise: any finite sum

    _BLOCK = 16384

    def __init__(self, epsilon: float, domain_size: int):
        super().__init__(epsilon, domain_size)
        self.scale = 2.0 / self.epsilon

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> SHEReport:
        """Ψ_HE: one-hot plus iid Laplace(2/ε) noise on every coordinate."""
        values = self._check_values(values)
        rng = ensure_rng(rng)
        d = self.domain_size
        sums = np.zeros(d, dtype=np.float64)
        for start in range(0, len(values), self._BLOCK):
            block = values[start:start + self._BLOCK]
            # Laplace draws stay on the Generator; the one-hot add and
            # the sequential column sum run in the kernel layer.
            noisy = rng.laplace(0.0, self.scale, size=(len(block), d))
            sums += kernels.he_sum_accumulate(noisy, block)
        return SHEReport(sums=sums, n=len(values))

    def _check_report(self, report: SHEReport) -> None:
        if len(report.sums) != self.domain_size:
            raise ProtocolError(
                f"report has {len(report.sums)} sums, oracle domain is "
                f"{self.domain_size}")

    def unbias(self, state) -> np.ndarray:
        """Φ_SHE: the mean noisy histogram is already unbiased."""
        self._check_users(state)
        return state.vector / state.n

    def theoretical_variance(self, n: int) -> float:
        """``2 (2/ε)² / n`` — the Laplace noise variance per coordinate."""
        if n < 1:
            raise ProtocolError(f"n must be >= 1, got {n}")
        return 2.0 * self.scale ** 2 / n


class ThresholdHistogramEncoding(FrequencyOracle):
    """THE frequency oracle over ``{0..d-1}``.

    Uses the optimal threshold θ solving ``e^{ε(θ−1)/2}·(1−θ) = ...``; we
    take the closed-interval optimum from Wang et al., θ ∈ (0.5, 1),
    found numerically at construction.
    """

    name = "the"
    summed_field = "supports"

    _BLOCK = 16384

    def __init__(self, epsilon: float, domain_size: int,
                 threshold: float = None):
        super().__init__(epsilon, domain_size)
        self.scale = 2.0 / self.epsilon
        if threshold is None:
            threshold = self._optimal_threshold()
        if not 0.0 < threshold < 1.5:
            raise ProtocolError(
                f"threshold must be in (0, 1.5), got {threshold}")
        self.threshold = threshold
        # P[reported coordinate > θ] for a true 1 (p) and a true 0 (q).
        self.p = 1.0 - self._laplace_cdf(self.threshold - 1.0)
        self.q = 1.0 - self._laplace_cdf(self.threshold)

    def _laplace_cdf(self, x: float) -> float:
        return float(stats.laplace.cdf(x, scale=self.scale))

    def _optimal_threshold(self) -> float:
        """Minimize ``q(1−q)/(p−q)²`` over θ ∈ [0.5, 1] numerically."""
        thetas = np.linspace(0.5, 1.0, 101)
        best_theta, best_var = 0.5, float("inf")
        for theta in thetas:
            p = 1.0 - self._laplace_cdf_static(theta - 1.0)
            q = 1.0 - self._laplace_cdf_static(theta)
            if p - q <= 0:
                continue
            var = q * (1 - q) / (p - q) ** 2
            if var < best_var:
                best_theta, best_var = float(theta), var
        return best_theta

    def _laplace_cdf_static(self, x: float) -> float:
        return float(stats.laplace.cdf(x, scale=2.0 / self.epsilon))

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> THEReport:
        """Ψ_HE then server-side thresholding (simulated jointly)."""
        values = self._check_values(values)
        rng = ensure_rng(rng)
        d = self.domain_size
        supports = np.zeros(d, dtype=np.int64)
        for start in range(0, len(values), self._BLOCK):
            block = values[start:start + self._BLOCK]
            noisy = rng.laplace(0.0, self.scale, size=(len(block), d))
            supports += kernels.he_threshold_accumulate(noisy, block,
                                                        self.threshold)
        return THEReport(supports=supports, n=len(values),
                         threshold=self.threshold)

    def _check_report(self, report: THEReport) -> None:
        if len(report.supports) != self.domain_size:
            raise ProtocolError(
                f"report has {len(report.supports)} counters, oracle "
                f"domain is {self.domain_size}")
        if abs(report.threshold - self.threshold) > 1e-12:
            raise ProtocolError(
                f"report threshold {report.threshold} != oracle's "
                f"{self.threshold}")

    def unbias(self, state) -> np.ndarray:
        """Φ_THE: unbias the above-threshold counts."""
        self._check_users(state)
        return (state.vector / state.n - self.q) / (self.p - self.q)

    def theoretical_variance(self, n: int) -> float:
        """``q(1−q) / (n (p−q)²)``."""
        if n < 1:
            raise ProtocolError(f"n must be >= 1, got {n}")
        return self.q * (1 - self.q) / (n * (self.p - self.q) ** 2)
