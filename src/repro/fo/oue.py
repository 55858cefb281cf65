"""Optimized Unary Encoding (Wang et al. USENIX'17) — extension protocol.

Not used by the paper's strategies (which adaptively pick GRR or OLH), but
OUE matches OLH's variance exactly and is useful as an independent check in
tests and ablations: it has no hashing step, so disagreement between OUE and
OLH estimates isolates hash-family problems.

The user one-hot encodes their value and flips each bit independently:
a 1 stays 1 with probability ``p = 1/2``; a 0 becomes 1 with probability
``q = 1/(e^ε + 1)``. The privacy loss concentrates on the single 1-bit,
giving ``p(1-q) / (q(1-p)) = e^ε``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ProtocolError
from repro.fo import kernels
from repro.fo.base import FrequencyOracle, counter_array, user_count
from repro.fo.variance import oue_variance
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class OUEReport:
    """Aggregated OUE reports: per-value 1-bit counts over ``n`` users.

    Storing the column sums (rather than the full ``n x d`` bit matrix) is
    lossless for estimation and keeps memory linear in ``d``. Invariants
    enforced at construction: ``n`` is an integer >= 0, and ``ones`` is
    a 1-D vector of integral counts in ``[0, n]``, normalized to
    ``int64``.
    """

    ones: np.ndarray
    n: int

    def __post_init__(self) -> None:
        n = user_count(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ones",
                           counter_array(self.ones, "ones", n))

    def __len__(self) -> int:
        return self.n


class OptimizedUnaryEncoding(FrequencyOracle):
    """OUE frequency oracle over ``{0..d-1}``."""

    name = "oue"
    summed_field = "ones"

    #: rows perturbed per vectorized block (bounds peak memory at
    #: ``_BLOCK * d`` bits regardless of n)
    _BLOCK = 65536

    def __init__(self, epsilon: float, domain_size: int):
        super().__init__(epsilon, domain_size)
        self.p = 0.5
        self.q = 1.0 / (math.exp(self.epsilon) + 1.0)

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> OUEReport:
        """Ψ_OUE: one-hot encode and flip bits, block by block."""
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
                f"{self.domain_size}"
            )

    def unbias(self, state) -> np.ndarray:
        """Φ_OUE: unbias the per-value 1-bit counts."""
        self._check_users(state)
        return (state.vector / state.n - self.q) / (self.p - self.q)

    def theoretical_variance(self, n: int) -> float:
        return oue_variance(self.epsilon, n)
