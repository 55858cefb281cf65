"""Symmetric Unary Encoding (SUE) — basic RAPPOR (Erlingsson et al. 2014).

Extension protocol: like OUE, the value is one-hot encoded and each bit is
flipped independently, but with the *symmetric* probabilities
``p = e^{ε/2} / (e^{ε/2} + 1)`` (keep) and ``q = 1 − p`` (flip), which split
the budget evenly between the 1-bit and the 0-bits. OUE dominates SUE in
variance (that is exactly why Wang et al. derived it); SUE is included for
completeness of the unary-encoding family and as a reference point in
protocol-comparison tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import PrivacyError, ProtocolError
from repro.fo import kernels
from repro.fo.base import FrequencyOracle
from repro.fo.oue import OUEReport
from repro.rng import RngLike, ensure_rng


def sue_variance(epsilon: float, n: int = 1) -> float:
    """SUE: ``q(1−q) / (n (p−q)²)`` with the symmetric p/q.

    Always at least OUE's variance; equality never holds for ε > 0.
    """
    if epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive, got {epsilon}")
    if n < 1:
        raise ProtocolError(f"n must be >= 1, got {n}")
    half = math.exp(epsilon / 2.0)
    p = half / (half + 1.0)
    q = 1.0 - p
    return q * (1.0 - q) / (n * (p - q) ** 2)


class SymmetricUnaryEncoding(FrequencyOracle):
    """SUE / basic-RAPPOR frequency oracle over ``{0..d-1}``."""

    name = "sue"
    summed_field = "ones"

    #: rows perturbed per vectorized block (bounds peak memory)
    _BLOCK = 65536

    def __init__(self, epsilon: float, domain_size: int):
        super().__init__(epsilon, domain_size)
        half = math.exp(self.epsilon / 2.0)
        self.p = half / (half + 1.0)
        self.q = 1.0 - self.p

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> OUEReport:
        """Ψ_SUE: one-hot encode; keep each bit w.p. ``p``, flip w.p. ``q``."""
        values = self._check_values(values)
        rng = ensure_rng(rng)
        d = self.domain_size
        ones = np.zeros(d, dtype=np.int64)
        for start in range(0, len(values), self._BLOCK):
            block = values[start:start + self._BLOCK]
            # Draws stay here (in the original consumption order); the
            # threshold-and-count transform runs in the kernel layer.
            uniforms = rng.random((len(block), d))
            true_uniforms = rng.random(len(block))
            ones += kernels.ue_accumulate(uniforms, block, true_uniforms,
                                          self.p, self.q)
        return OUEReport(ones=ones, n=len(values))

    def _check_report(self, report: OUEReport) -> None:
        if len(report.ones) != self.domain_size:
            raise ProtocolError(
                f"report has {len(report.ones)} counters, oracle domain is "
                f"{self.domain_size}")

    def unbias(self, state) -> np.ndarray:
        """Φ_SUE: unbias the per-value 1-bit counts."""
        self._check_users(state)
        return (state.vector / state.n - self.q) / (self.p - self.q)

    def theoretical_variance(self, n: int) -> float:
        return sue_variance(self.epsilon, n)
