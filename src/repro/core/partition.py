"""Population partitioning (paper, Section 5.1).

Theorem 5.1 shows that splitting the *population* into ``m`` groups (one
per grid, each user reporting once with the full budget ε) dominates
splitting the *budget* into ε/m. This module implements the partitioning:
group sizes differ by at most one, and the assignment is a uniformly random
permutation so group composition is an unbiased sample of the population.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngLike, ensure_rng, permuted_group_assignment


def group_sizes(n: int, m: int) -> np.ndarray:
    """Near-equal sizes: the first ``n mod m`` groups get one extra user."""
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    base, extra = divmod(n, m)
    sizes = np.full(m, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


def partition_users(n: int, m: int, rng: RngLike = None) -> np.ndarray:
    """Random group label (``0..m-1``) for each of ``n`` users.

    The labels have the narrowest unsigned dtype that holds ``m`` groups
    (:func:`repro.rng.label_dtype`: one byte per user up to 256 groups).
    """
    return permuted_group_assignment(n, group_sizes(n, m), ensure_rng(rng))
