"""Numpy reference implementations of the compiled kernels.

This module is the **semantic definition** of every kernel in
:mod:`repro.fo.kernels`: the compiled C backend must agree with these
functions *bit for bit* on every input — integer kernels trivially,
floating-point kernels because both sides perform the same elementary
operations in the same order (sequential row accumulation, numpy's
pairwise sums inside :func:`ipf_sweep`'s ``reduceat`` and ``sum``, no
FMA contraction, no reassociation). The dispatch layer guarantees one of
these functions runs whenever no compiled backend is available, so the
library never *requires* a compiler.

Kernels are pure transforms: they receive pre-drawn random arrays from
the orchestration layer and never touch an RNG themselves (the
draw/transform split that keeps output a pure function of
``(seed, chunk_size)`` across backends). :func:`group_cells`, which
groups the population's cells by label, takes no draws at all.
:func:`permute` is the one exception: it *is* ``rng.permutation``, and
its compiled tier replays numpy's own Fisher–Yates draws on the
generator's own bit stream, so it stays exact — the same labels, and the
generator left in the same state, on every tier.

Inputs arrive pre-normalized by the dispatch wrappers (correct dtypes,
C-contiguous); implementations may rely on that.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GridError, ProtocolError
from repro.fo.hashing import chain_hash, mix_seeds, tiled_support_counts

#: domain values per vectorized tile of :func:`hr_supports` (bounds peak
#: memory at ``n * _HR_TILE`` int64 entries regardless of domain size)
_HR_TILE = 256


def grr_apply(values: np.ndarray, keep_uniforms: np.ndarray,
              others: np.ndarray, p: float) -> np.ndarray:
    """Apply GRR given the drawn randomness.

    ``out[i] = values[i]`` when ``keep_uniforms[i] < p``, else the drawn
    "other" value shifted past the true one (a uniform draw over the
    ``d − 1`` values ``!= values[i]``). Shared by GRR (domain values) and
    :func:`olh_perturb` (hashed buckets over ``[0, g)``).
    """
    others = others + (others >= values)
    return np.where(keep_uniforms < p, values, others)


def olh_perturb(seeds: np.ndarray, values: np.ndarray,
                keep_uniforms: np.ndarray, others: np.ndarray, p: float,
                g: int) -> np.ndarray:
    """OLH's perturbation given the drawn randomness: uint64 buckets.

    Each value is hashed into ``[0, g)`` under its user's seed
    (:func:`~repro.fo.hashing.chain_hash`: ``splitmix64(splitmix64(seed)
    ^ value) % g``), then :func:`grr_apply` keeps the hashed bucket or
    reports the drawn other bucket of ``[0, g)``.
    """
    hashed = chain_hash(seeds, [values], g)
    return grr_apply(hashed, keep_uniforms, others.astype(np.uint64), p)


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


def domain_error(column: int, size: int) -> GridError:
    """The error :func:`group_cells` raises, on every backend, for a code
    outside its axis table."""
    return GridError(f"group_cells: codes in record column {column} "
                     f"outside domain [0, {size})")


def group_cells(records: np.ndarray, labels: np.ndarray,
                axes) -> tuple:
    """Every row's grid cell, grouped by label: ``(cells, offsets)``.

    ``cells[offsets[g]:offsets[g + 1]]`` are the cells of group ``g``'s
    rows in row order; a row's cell is the sum of ``table[records[row,
    column]]`` over its group's ``axes[g]`` pairs. The reference path:
    one stable argsort of the labels, then per group one gather and one
    table lookup per axis.
    """
    offsets = np.zeros(len(axes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=len(axes)), out=offsets[1:])
    order = np.argsort(labels, kind="stable")
    cells = np.zeros(len(labels), dtype=np.int64)
    for g, pairs in enumerate(axes):
        rows = order[offsets[g]:offsets[g + 1]]
        out = cells[offsets[g]:offsets[g + 1]]
        for column, table in pairs:
            codes = records[:, column][rows]
            if codes.size and (codes.min() < 0
                               or codes.max() >= len(table)):
                raise domain_error(column, len(table))
            out += table[codes]
    return cells, offsets


def permute(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random permutation of ``labels``, drawn from ``rng``:
    ``rng.permutation(labels)``, the shuffle's reference. The only kernel
    that draws."""
    return rng.permutation(labels)


def block_sums(mass: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Per-cell block sums of ``mass`` over the cells whose edges are
    ``rows`` by ``cols`` (each from 0 to the axis length): one reduceat
    per axis."""
    sums = np.add.reduceat(mass, rows[:-1], axis=0)
    return np.add.reduceat(sums, cols[:-1], axis=1)


def _expand(cells: np.ndarray, rows: np.ndarray,
            cols: np.ndarray) -> np.ndarray:
    """Repeat a per-cell array out over the atoms; an axis one cell spans
    stays length 1 and broadcasts."""
    if len(rows) > 2:
        cells = np.repeat(cells, np.diff(rows), axis=0)
    if len(cols) > 2:
        cells = np.repeat(cells, np.diff(cols), axis=1)
    return cells


def edges_error(shape) -> ProtocolError:
    """The error :func:`ipf_sweep` raises, on every backend, for grid
    edges that do not rise strictly from 0 to the rows, then the
    columns, of the atom matrix."""
    return ProtocolError(
        f"ipf_sweep: every grid's edges must rise strictly from 0 to "
        f"{shape[0]} (rows), then from 0 to {shape[1]} (columns)")


def ipf_sweep(mass: np.ndarray, areas: np.ndarray, uniform, edges:
              np.ndarray, cells: np.ndarray, targets: np.ndarray,
              sums: np.ndarray, moved: np.ndarray) -> float:
    """One Algorithm 3 sweep over a pair's atom masses, in place.

    Grid by grid (grid ``g`` has ``cells[g]`` row by column cells, whose
    atom edges and row-major targets come next in ``edges`` and
    ``targets``), one fused update of the grid's disjoint cells: block
    sums by ``reduceat`` (written to ``sums``), every positive-mass cell
    scaled to its target, and each zero-mass cell with a positive target
    refilled, its target spread over its atoms by ``areas`` and its atoms
    marked in ``uniform`` (None: no marks kept). Then ``moved`` gets each
    atom's |change| and the sweep returns ``moved.sum()``.
    """
    e = 0
    for counts in cells:
        for count, extent in zip(counts, mass.shape):
            run = edges[e:e + count + 1]
            if run[0] != 0 or run[-1] != extent or \
                    (run[1:] <= run[:-1]).any():
                raise edges_error(mass.shape)
            e += count + 1
    np.copyto(moved, mass)
    e = t = 0
    for row_cells, col_cells in cells:
        rows = edges[e:e + row_cells + 1]
        cols = edges[e + row_cells + 1:e + row_cells + col_cells + 2]
        e += row_cells + col_cells + 2
        size = row_cells * col_cells
        target = targets[t:t + size].reshape(row_cells, col_cells)
        block = block_sums(mass, rows, cols)
        sums[t:t + size] = block.ravel()
        t += size
        pos = block > 0.0
        if pos.all():
            mass *= _expand(target / block, rows, cols)
            continue
        mass *= _expand(np.divide(target, block, out=np.ones_like(block),
                                  where=pos), rows, cols)
        refill = (~pos) & (target > 0.0)
        if refill.any():
            atoms = np.broadcast_to(_expand(refill, rows, cols), mass.shape)
            per_value = target / block_sums(areas, rows, cols)
            np.copyto(mass, _expand(per_value, rows, cols) * areas,
                      where=atoms)
            if uniform is not None:
                uniform |= atoms
    np.abs(np.subtract(mass, moved, out=moved), out=moved)
    return float(moved.sum())


#: every kernel this backend implements (the full set, by construction)
KERNELS = {
    "grr_apply": grr_apply,
    "olh_perturb": olh_perturb,
    "mix_seeds": mix_seeds,
    "ue_accumulate": ue_accumulate,
    "he_sum_accumulate": he_sum_accumulate,
    "he_threshold_accumulate": he_threshold_accumulate,
    "support_counts": support_counts,
    "hr_apply": hr_apply,
    "hr_supports": hr_supports,
    "sw_transform": sw_transform,
    "fold_arrays": fold_arrays,
    "group_cells": group_cells,
    "permute": permute,
    "ipf_sweep": ipf_sweep,
}
