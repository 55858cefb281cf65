"""Numpy reference implementations of the compiled kernels.

This module is the **semantic definition** of every kernel in
:mod:`repro.fo.kernels`: the compiled C backend must agree with these
functions *bit for bit* on every input — integer kernels trivially,
floating-point kernels because both sides perform the same elementary
operations in the same order (sequential row accumulation, no FMA
contraction, no reassociation). The dispatch layer guarantees one of
these functions runs whenever no compiled backend is available, so the
library never *requires* a compiler.

Kernels are pure transforms: they receive pre-drawn random arrays from
the orchestration layer and never touch an RNG themselves (the
draw/transform split that keeps output a pure function of
``(seed, chunk_size)`` across backends).

Inputs arrive pre-normalized by the dispatch wrappers (correct dtypes,
C-contiguous); implementations may rely on that.
"""

from __future__ import annotations

import numpy as np

from repro.fo.hashing import tiled_support_counts

#: domain values per vectorized tile of :func:`hr_supports` (bounds peak
#: memory at ``n * _HR_TILE`` int64 entries regardless of domain size)
_HR_TILE = 256


def grr_apply(values: np.ndarray, keep_uniforms: np.ndarray,
              others: np.ndarray, p: float) -> np.ndarray:
    """Apply GRR given the drawn randomness.

    ``out[i] = values[i]`` when ``keep_uniforms[i] < p``, else the drawn
    "other" value shifted past the true one (a uniform draw over the
    ``d − 1`` values ``!= values[i]``). Shared by GRR (domain values) and
    OLH (hashed buckets over ``[0, g)``).
    """
    others = others + (others >= values)
    return np.where(keep_uniforms < p, values, others)


def ue_accumulate(uniforms: np.ndarray, values: np.ndarray,
                  true_uniforms: np.ndarray, p: float,
                  q: float) -> np.ndarray:
    """Unary-encoding bit-flip accumulation (OUE/SUE) for one block.

    Row ``i`` one-hot encodes ``values[i]``; each 0-bit becomes 1 when
    ``uniforms[i, j] < q`` and the 1-bit stays 1 when
    ``true_uniforms[i] < p``. Returns the per-column 1-counts.
    """
    bits = uniforms < q
    bits[np.arange(len(values)), values] = true_uniforms < p
    return bits.sum(axis=0)


def he_sum_accumulate(noisy: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
    """SHE accumulation for one block: add the one-hot, sum the columns.

    ``noisy`` is the drawn ``(n, d)`` Laplace noise matrix; it may be
    clobbered. The column sum is sequential over rows (numpy's axis-0
    reduce), which the compiled backends replicate exactly.
    """
    noisy[np.arange(len(values)), values] += 1.0
    return noisy.sum(axis=0)


def he_threshold_accumulate(noisy: np.ndarray, values: np.ndarray,
                            threshold: float) -> np.ndarray:
    """THE accumulation for one block: one-hot plus noise, count above θ.

    ``noisy`` may be clobbered.
    """
    noisy[np.arange(len(values)), values] += 1.0
    return (noisy > threshold).sum(axis=0)


def support_counts(mixed_seeds: np.ndarray, buckets: np.ndarray,
                   hash_range: int, candidates: np.ndarray,
                   tile_bytes: int) -> np.ndarray:
    """OLH-family support counting: the cache-tiled numpy sweep.

    Delegates to :func:`repro.fo.hashing.tiled_support_counts`, the
    retained reference kernel (PR 1).
    """
    return tiled_support_counts(mixed_seeds, buckets, hash_range,
                                candidates, tile_bytes=tile_bytes)


def _parity(x: np.ndarray) -> np.ndarray:
    """Bit parity of each element of a non-negative int64 array (0 or 1)."""
    x = x ^ (x >> 32)
    x = x ^ (x >> 16)
    x = x ^ (x >> 8)
    x = x ^ (x >> 4)
    x = x ^ (x >> 2)
    x = x ^ (x >> 1)
    return x & 1


def hr_apply(rows: np.ndarray, values: np.ndarray,
             keep_uniforms: np.ndarray, p: float) -> np.ndarray:
    """HR perturbation given the drawn randomness.

    ``truth = H[row, value + 1] = (−1)^popcount(row & (value + 1))``,
    reported as-is when ``keep_uniforms[i] < p``, negated otherwise.
    Returns int64 ±1 bits (the report container narrows to int8).
    """
    truth = 1 - 2 * _parity(rows & (values + 1))
    return np.where(keep_uniforms < p, truth, -truth)


def hr_supports(rows: np.ndarray, bits: np.ndarray,
                domain_size: int) -> np.ndarray:
    """HR support sweep: ``Σ_i bits[i] · H(rows[i], v + 1)`` per value."""
    bits = bits.astype(np.int64)
    out = np.empty(domain_size, dtype=np.int64)
    for start in range(0, domain_size, _HR_TILE):
        cols = np.arange(start + 1,
                         min(start + _HR_TILE, domain_size) + 1,
                         dtype=np.int64)
        signs = 1 - 2 * _parity(rows[:, None] & cols[None, :])
        out[start:start + len(cols)] = bits @ signs
    return out


def sw_transform(v: np.ndarray, close: np.ndarray,
                 close_draws: np.ndarray, far_draws: np.ndarray,
                 b: float, width: float, buckets: int) -> np.ndarray:
    """SW report synthesis and bucketing given the drawn randomness.

    Close reports are ``v + U(−b, b)``; far reports map a unit draw onto
    ``[−b, 1 + b] \\ [v − b, v + b]`` by shifting past the wave window.
    Draw arrays are consumed in row order (matching the fancy-indexed
    assignment semantics the compiled backends replicate with cursors).
    """
    reports = np.empty(len(v))
    reports[close] = v[close] + close_draws
    far = ~close
    far_v = v[far]
    reports[far] = np.where(far_draws < far_v,
                            -b + far_draws,
                            far_v + b + (far_draws - far_v))
    idx = np.floor((reports + b) / width).astype(np.int64)
    idx = np.clip(idx, 0, buckets - 1)
    return np.bincount(idx, minlength=buckets)


def fold_arrays(arrays) -> np.ndarray:
    """Elementwise left fold of same-shape arrays (the merge monoid's
    sufficient-statistic addition): ``((a0 + a1) + a2) + …``."""
    out = np.array(arrays[0], copy=True)
    for a in arrays[1:]:
        out += a
    return out


#: every kernel this backend implements (the full set, by construction)
KERNELS = {
    "grr_apply": grr_apply,
    "ue_accumulate": ue_accumulate,
    "he_sum_accumulate": he_sum_accumulate,
    "he_threshold_accumulate": he_threshold_accumulate,
    "support_counts": support_counts,
    "hr_apply": hr_apply,
    "hr_supports": hr_supports,
    "sw_transform": sw_transform,
    "fold_arrays": fold_arrays,
}
