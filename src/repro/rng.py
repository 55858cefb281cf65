"""Random-number-generation helpers.

Everything stochastic in the library flows through :func:`ensure_rng` so that
experiments are reproducible from a single integer seed and components can be
handed independent child generators via :func:`spawn`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed, or
    an existing generator (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn(rng: np.random.Generator, count: int) -> list:
    """Derive ``count`` statistically independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def random_seed(rng: RngLike = None) -> int:
    """Draw a single 63-bit seed, for handing off to other components."""
    return int(ensure_rng(rng).integers(0, 2**63 - 1, dtype=np.int64))


def label_dtype(num_groups: int) -> np.dtype:
    """The narrowest dtype holding the labels ``0..num_groups-1``:
    uint8 up to 256 groups, uint16 up to 65 536, int64 beyond."""
    if num_groups <= 1 << 8:
        return np.dtype(np.uint8)
    if num_groups <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)

