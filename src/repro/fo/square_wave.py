"""Square Wave (SW) mechanism with EM / EMS reconstruction.

Li et al., "Estimating Numerical Distributions under Local Differential
Privacy" (SIGMOD 2020) — the paper's reference [25] and its suggested tool
for finer-grained ordinal distributions. SW exploits the *order* of a
numerical domain: a user with value ``v`` (mapped to [0, 1]) reports a draw
from

    ṽ ~ density  p  on [v − b, v + b]      ("close" reports)
         density  q  on the rest of [−b, 1 + b]

with ``p/q = e^ε``, so SW is ε-LDP. The wave half-width ``b`` maximizes
the mutual information between input and report (closed form below). The
aggregator buckets the reports and reconstructs the input distribution by
expectation maximization, optionally with binomial smoothing between
iterations (EMS) — smoothing regularizes the deconvolution exactly the way
the original paper does.

Within this package SW serves as an alternative backend for OHG's 1-D
refinement grids (``FelipConfig(one_d_protocol="sw")``), reconstructing
value-level marginals instead of coarse cell histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ProtocolError
from repro.fo import kernels
from repro.fo.base import FrequencyOracle, counter_array, user_count
from repro.rng import RngLike, ensure_rng


def optimal_wave_width(epsilon: float) -> float:
    """The information-maximizing half-width ``b`` (Li et al., Eq. 5).

    ``b = (ε e^ε − e^ε + 1) / (2 e^ε (e^ε − 1 − ε))``, which tends to 1/2
    as ε → 0 (reports nearly uniform) and to 0 as ε → ∞ (reports pin the
    value).
    """
    e = math.exp(epsilon)
    denominator = 2.0 * e * (e - 1.0 - epsilon)
    if denominator <= 0.0:  # epsilon tiny: limit value 1/2
        return 0.5
    return (epsilon * e - e + 1.0) / denominator


@dataclass(frozen=True)
class SWReport:
    """Bucketed SW reports over the padded domain ``[−b, 1 + b]``.

    Invariants enforced at construction: ``n`` is an integer >= 0,
    ``counts`` a 1-D vector of integral counts >= 0 that sum to ``n``
    (normalized to ``int64``), and the wave width finite and > 0.
    """

    counts: np.ndarray
    n: int
    wave_width: float

    def __post_init__(self) -> None:
        n = user_count(self.n)
        counts = counter_array(self.counts, "counts", n)
        if int(counts.sum()) != n:
            raise ProtocolError(
                f"counts sum to {int(counts.sum())}, declared n={n}")
        if not (np.isfinite(self.wave_width) and self.wave_width > 0):
            raise ProtocolError(
                f"wave width must be finite and > 0, got "
                f"{self.wave_width}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "wave_width", float(self.wave_width))

    def __len__(self) -> int:
        return self.n


class SquareWave(FrequencyOracle):
    """SW frequency oracle over the ordinal domain ``{0..d-1}``.

    Parameters
    ----------
    epsilon:
        Privacy budget.
    domain_size:
        ``d``; input values are the bucket midpoints ``(i + 0.5) / d``.
    report_buckets:
        Output discretization of ``[−b, 1 + b]`` (default: ``d`` buckets,
        matching the reference implementation).
    smoothing:
        Apply the EMS binomial smoothing step between EM iterations.
    max_iters, tolerance:
        EM stopping rule: iterate until the L1 change of the estimated
        distribution per iteration falls below ``tolerance``.
    """

    name = "sw"
    summed_field = "counts"

    def __init__(self, epsilon: float, domain_size: int,
                 report_buckets: int = None, smoothing: bool = True,
                 max_iters: int = 1000, tolerance: float = 1e-7):
        super().__init__(epsilon, domain_size)
        self.b = optimal_wave_width(self.epsilon)
        e = math.exp(self.epsilon)
        # Densities integrate to 1 over [-b, 1+b]: 2bp + q = 1.
        self.q = 1.0 / (2.0 * self.b * e + 1.0)
        self.p = e * self.q
        self.report_buckets = report_buckets or self.domain_size
        if self.report_buckets < 2:
            raise ProtocolError(
                f"report_buckets must be >= 2, got {self.report_buckets}")
        self.smoothing = smoothing
        self.max_iters = max_iters
        self.tolerance = tolerance
        self._transition = self._build_transition()

    # -- client side ------------------------------------------------------------

    def _to_unit(self, values: np.ndarray) -> np.ndarray:
        return (values + 0.5) / self.domain_size

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> SWReport:
        """Ψ_SW: draw from the two-level density around the true value."""
        values = self._check_values(values)
        rng = ensure_rng(rng)
        n = len(values)
        v = self._to_unit(values)
        # Three draws, fixed order: the close mask, one uniform on
        # [-b, b] per close report, and one unit uniform per far report
        # (mapped onto [-b, 1 + b] \ [v - b, v + b] by shifting past the
        # wave window). The transform + bucketing runs in the kernel.
        close = rng.random(n) < 2.0 * self.b * self.p
        close_draws = rng.uniform(-self.b, self.b, size=int(close.sum()))
        far_draws = rng.uniform(0.0, 1.0, size=int((~close).sum()))
        width = (1.0 + 2.0 * self.b) / self.report_buckets
        counts = kernels.sw_transform(v, close, close_draws, far_draws,
                                      self.b, width, self.report_buckets)
        return SWReport(counts=counts, n=n, wave_width=self.b)

    # -- server side --------------------------------------------------------------

    def _build_transition(self) -> np.ndarray:
        """``M[j, i] = P[report bucket j | input bucket i]``.

        Exact integration of the piecewise-constant density over each
        report bucket.
        """
        d, r = self.domain_size, self.report_buckets
        centers = (np.arange(d) + 0.5) / d
        edges = -self.b + (1.0 + 2.0 * self.b) * np.arange(r + 1) / r
        matrix = np.empty((r, d))
        for i, v in enumerate(centers):
            lo, hi = v - self.b, v + self.b
            # Mass of [a, c] under the density for value v.
            inside = (np.minimum(edges[1:], hi)
                      - np.maximum(edges[:-1], lo)).clip(min=0.0)
            total = edges[1:] - edges[:-1]
            matrix[:, i] = self.p * inside + self.q * (total - inside)
        # Normalize defensively against edge-clipping round-off.
        matrix /= matrix.sum(axis=0, keepdims=True)
        return matrix

    def _smooth(self, frequencies: np.ndarray) -> np.ndarray:
        """EMS binomial smoothing: kernel [1, 2, 1] / 4, edges re-weighted."""
        padded = np.empty(len(frequencies) + 2)
        padded[1:-1] = frequencies
        padded[0] = frequencies[0]
        padded[-1] = frequencies[-1]
        smoothed = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0
        total = smoothed.sum()
        return smoothed / total if total > 0 else smoothed

    @property
    def state_length(self) -> int:
        """The folded vector is the bucketed report histogram."""
        return self.report_buckets

    def _check_report(self, report: SWReport) -> None:
        if len(report.counts) != self.report_buckets:
            raise ProtocolError(
                f"report has {len(report.counts)} buckets, oracle expects "
                f"{self.report_buckets}")
        if abs(report.wave_width - self.b) > 1e-12:
            raise ProtocolError(
                f"report wave width {report.wave_width} != oracle's "
                f"{self.b}")

    def unbias(self, state) -> np.ndarray:
        """Φ_SW: EM (with optional smoothing) deconvolution of the reports."""
        self._check_users(state)
        counts = state.vector.astype(np.float64)
        freq = np.full(self.domain_size, 1.0 / self.domain_size)
        for _ in range(self.max_iters):
            mixture = self._transition @ freq
            mixture = np.maximum(mixture, 1e-300)
            # E step: responsibility-weighted counts; M step: renormalize.
            posterior = (self._transition * freq[None, :]
                         / mixture[:, None])
            new_freq = posterior.T @ (counts / state.n)
            new_freq = np.maximum(new_freq, 0.0)
            total = new_freq.sum()
            if total > 0:
                new_freq /= total
            if self.smoothing:
                new_freq = self._smooth(new_freq)
            change = float(np.abs(new_freq - freq).sum())
            freq = new_freq
            if change < self.tolerance:
                break
        return freq

    def theoretical_variance(self, n: int) -> float:
        """No closed form exists for the EM estimate; we report the
        variance of the *unbiased matrix-inversion* estimator's dominant
        term, ``q(1−q)/(n(p−q)²)`` with bucket-level p/q, as a
        conservative proxy (used only for consistency weighting)."""
        if n < 1:
            raise ProtocolError(f"n must be >= 1, got {n}")
        width = (1.0 + 2.0 * self.b) / self.report_buckets
        p_bucket = min(self.p * width, 1.0)
        q_bucket = min(self.q * width, 1.0)
        return (q_bucket * (1 - q_bucket)
                / (n * max(p_bucket - q_bucket, 1e-12) ** 2))
