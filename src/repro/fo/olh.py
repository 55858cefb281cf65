"""Optimized Local Hashing (paper, Section 2.2.2; Wang et al. USENIX'17).

Each user hashes their value into a small range ``g = ⌈e^ε⌉ + 1`` with a
private random hash function, then GRR-perturbs the hashed value with budget
ε over the domain ``{0..g-1}``. The aggregator counts, for every domain
value ``v``, the reports that *support* ``v`` (their hash of ``v`` equals the
reported bucket), then unbiases the support count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ProtocolError
from repro.fo import kernels
from repro.fo.base import FrequencyOracle, row_array
from repro.fo.hashing import DEFAULT_TILE_BYTES, random_seeds
from repro.fo.variance import olh_variance
from repro.rng import RngLike, ensure_rng


def optimal_hash_range(epsilon: float) -> int:
    """``g`` minimizing OLH variance: ``⌈e^ε⌉ + 1``, at least 2."""
    try:
        e = math.exp(epsilon)
    except OverflowError:
        raise ProtocolError(
            f"epsilon={epsilon} is too large for OLH: e^epsilon overflows "
            f"(the optimal hash range ⌈e^ε⌉ + 1 would exceed float range); "
            f"use GRR, or pass an explicit hash_range"
        ) from None
    return max(2, int(math.ceil(e)) + 1)


@dataclass(frozen=True)
class OLHReport:
    """Batch of OLH reports: per-user hash seed and perturbed bucket.

    Invariants enforced at construction: integer seeds and buckets, one
    bucket per seed, and every bucket in ``[0, hash_range)``. ``seeds``
    and ``buckets`` are normalized to ``uint64`` so estimation never
    re-casts inside the hot path.
    """

    seeds: np.ndarray
    buckets: np.ndarray
    hash_range: int
    domain_size: int

    def __post_init__(self) -> None:
        seeds = row_array(self.seeds, "seeds").astype(np.uint64,
                                                      copy=False)
        buckets = row_array(self.buckets, "buckets")
        if len(seeds) != len(buckets):
            raise ProtocolError(
                f"{len(seeds)} seeds vs {len(buckets)} buckets"
            )
        if self.hash_range < 1:
            raise ProtocolError(
                f"hash range must be >= 1, got {self.hash_range}")
        if len(buckets) and (
                (buckets.min() < 0)
                or np.uint64(buckets.max()) >= np.uint64(self.hash_range)):
            raise ProtocolError(
                f"buckets must lie in [0, {self.hash_range}), got range "
                f"[{buckets.min()}, {buckets.max()}]"
            )
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(
            self, "buckets", buckets.astype(np.uint64, copy=False))

    @cached_property
    def mixed_seeds(self) -> np.ndarray:
        """Pre-mixed splitmix64 state (:func:`repro.fo.kernels.mix_seeds`).

        Every support-counting pass starts from this state. It is
        computed when the report is first folded, not by ``perturb``, and
        lives only as long as the report: a collector folds each report
        once and drops it, while repeated estimates of a kept report
        skip the re-mix.
        """
        return kernels.mix_seeds(self.seeds)

    def __len__(self) -> int:
        return len(self.seeds)


class OptimizedLocalHashing(FrequencyOracle):
    """OLH frequency oracle over ``{0..d-1}``."""

    name = "olh"

    def __init__(self, epsilon: float, domain_size: int,
                 hash_range: int = None,
                 tile_bytes: int = DEFAULT_TILE_BYTES):
        super().__init__(epsilon, domain_size)
        self.g = hash_range or optimal_hash_range(self.epsilon)
        if self.g < 2:
            raise ProtocolError(f"hash range must be >= 2, got {self.g}")
        self.tile_bytes = tile_bytes
        e = math.exp(self.epsilon)
        self.p = e / (e + self.g - 1)
        self.q = 1.0 / (e + self.g - 1)

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> OLHReport:
        """Ψ_OLH: hash to ``[0, g)``, then GRR-perturb the bucket."""
        values = self._check_values(values)
        rng = ensure_rng(rng)
        n = len(values)
        # The draws stay on the Generator, in this order; the hash and
        # the keep/other selection over [0, g) run in one kernel pass.
        seeds = random_seeds(n, rng)
        keep_uniforms = rng.random(n)
        others = rng.integers(0, self.g - 1, size=n)
        return OLHReport(seeds=seeds,
                         buckets=kernels.olh_perturb(seeds, values,
                                                     keep_uniforms, others,
                                                     self.p, self.g),
                         hash_range=self.g, domain_size=self.domain_size)

    def _check_report(self, report: OLHReport) -> None:
        if report.domain_size != self.domain_size:
            raise ProtocolError(
                f"report domain {report.domain_size} != oracle domain "
                f"{self.domain_size}"
            )
        if report.hash_range != self.g:
            raise ProtocolError(
                f"report hash range {report.hash_range} != oracle's {self.g}"
            )

    def _statistic(self, reports, prior):
        """``C(v)`` for every ``v`` — how many of the reports' users hash
        ``v`` to their reported bucket — plus ``prior``.

        One call to the support kernel over the reports' concatenated
        rows and the whole domain: O(d·n) work in tiles bounded by
        ``tile_bytes``, no Python-level loop over domain values.
        """
        if len(reports) == 1:
            mixed, buckets = reports[0].mixed_seeds, reports[0].buckets
        else:
            mixed = kernels.mix_seeds(
                np.concatenate([r.seeds for r in reports]))
            buckets = np.concatenate([r.buckets for r in reports])
        counts = kernels.support_counts(
            mixed, buckets, self.g,
            np.arange(self.domain_size, dtype=np.uint64),
            tile_bytes=self.tile_bytes)
        if prior is not None:
            counts += prior
        return counts

    def unbias(self, state) -> np.ndarray:
        """Φ_OLH: unbias the support counts."""
        self._check_users(state)
        return ((state.vector / state.n - 1.0 / self.g)
                / (self.p - 1.0 / self.g))

    def theoretical_variance(self, n: int) -> float:
        return olh_variance(self.epsilon, n)
