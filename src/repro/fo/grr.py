"""Generalized Randomized Response (paper, Section 2.2.1).

Each user reports their true value with probability
``p = e^ε / (e^ε + d − 1)`` and otherwise a uniformly random *other* value.
The ratio ``p/q = e^ε`` for any pair of outputs, so GRR satisfies ε-LDP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fo import kernels
from repro.fo.base import FrequencyOracle, row_array
from repro.fo.variance import grr_variance
from repro.errors import ProtocolError
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class GRRReport:
    """Batch of GRR reports: one perturbed value per user.

    Invariants enforced at construction (mirroring :class:`OLHReport`):
    integer values, every one in ``[0, domain_size)``. ``values`` is
    normalized to ``int64`` so estimation's ``bincount`` never re-casts.
    """

    values: np.ndarray
    domain_size: int

    def __post_init__(self) -> None:
        values = row_array(self.values, "values")
        if self.domain_size < 1:
            raise ProtocolError(
                f"domain size must be >= 1, got {self.domain_size}")
        if len(values) and (values.min() < 0
                            or values.max() >= self.domain_size):
            raise ProtocolError(
                f"values must lie in [0, {self.domain_size}), got range "
                f"[{values.min()}, {values.max()}]"
            )
        object.__setattr__(
            self, "values", values.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return len(self.values)


class GeneralizedRandomizedResponse(FrequencyOracle):
    """GRR frequency oracle over ``{0..d-1}``."""

    name = "grr"

    def __init__(self, epsilon: float, domain_size: int):
        super().__init__(epsilon, domain_size)
        e = math.exp(self.epsilon)
        self.p = e / (e + self.domain_size - 1)
        self.q = 1.0 / (e + self.domain_size - 1)

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> GRRReport:
        """Ψ_GRR: keep with probability ``p``, else uniform other value."""
        values = self._check_values(values)
        rng = ensure_rng(rng)
        n = len(values)
        # Draw here, transform in the kernel: the keep uniforms and the
        # uniform draw over the d-1 "other" values (from [0, d-1), shifted
        # past the true value inside the kernel) keep the RNG consumption
        # order fixed across kernel backends.
        keep_uniforms = rng.random(n)
        others = rng.integers(0, self.domain_size - 1, size=n)
        return GRRReport(
            values=kernels.grr_apply(values, keep_uniforms, others, self.p),
            domain_size=self.domain_size)

    def _check_report(self, report: GRRReport) -> None:
        if report.domain_size != self.domain_size:
            raise ProtocolError(
                f"report domain {report.domain_size} != oracle domain "
                f"{self.domain_size}"
            )

    def _statistic(self, reports, prior):
        """The histogram of the reports' concatenated values, plus
        ``prior``."""
        values = (reports[0].values if len(reports) == 1
                  else np.concatenate([r.values for r in reports]))
        counts = np.bincount(values, minlength=self.domain_size)
        if prior is not None:
            counts += prior
        return counts

    def unbias(self, state) -> np.ndarray:
        """Φ_GRR (paper Eq. 1): unbias the observed value counts."""
        self._check_users(state)
        return (state.vector / state.n - self.q) / (self.p - self.q)

    def theoretical_variance(self, n: int) -> float:
        return grr_variance(self.epsilon, self.domain_size, n)
