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
from repro.fo import kernels as fo_kernels
from repro.rng import RngLike, ensure_rng, label_dtype


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

    Exactly ``group_sizes(n, m)[g]`` users get label ``g``, in a uniformly
    random order: the labels ``0..m-1``, repeated to their sizes, go
    through one shuffle (:func:`repro.fo.kernels.permute`, which draws
    exactly as ``rng.permutation`` does). The labels have the narrowest
    unsigned dtype that holds ``m`` groups
    (:func:`repro.rng.label_dtype`: one byte per user up to 256 groups);
    the shuffle's draws do not depend on the item size, so this is the
    same permutation as of int64 labels, at a fraction of the memory.
    Raises :class:`~repro.errors.ConfigurationError` for ``n < 0`` or
    ``m < 1``.
    """
    sizes = group_sizes(n, m)
    labels = np.repeat(np.arange(m, dtype=label_dtype(m)), sizes)
    return fo_kernels.permute(labels, ensure_rng(rng))
