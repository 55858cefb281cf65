"""Vectorized seeded hash family for OLH-style protocols.

OLH needs, per user, a hash function ``H: D -> {0..g-1}`` chosen at random
and shared with the aggregator. Reference implementations use xxhash keyed
by a per-user seed; we use a splitmix64 finalizer chain, which is equally
uniform statistically and vectorizes cleanly over numpy ``uint64`` arrays
(overflow wraps, which is exactly the mod-2^64 arithmetic splitmix64 wants).

Values may be multi-component (HIO hashes the tuple of per-attribute interval
indices, whose combined index space can exceed 2^64 states): components are
chained into the mixer one at a time, so no component product is ever formed.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import ProtocolError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

Component = Union[int, np.ndarray]


def splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over a ``uint64`` array.

    Overflow is the point — splitmix64 works modulo 2^64 — so the numpy
    overflow warning (raised for 0-d scalars only) is suppressed.
    """
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def chain_hash(seeds: np.ndarray, components: Sequence[Component],
               buckets: int) -> np.ndarray:
    """Hash (seed, value-components) pairs into ``[0, buckets)``.

    Parameters
    ----------
    seeds:
        ``uint64`` array of per-user seeds (or a scalar).
    components:
        The value being hashed, as a sequence of integer components. Each
        component may be a scalar (same value for every seed) or an array
        broadcastable against ``seeds``.
    buckets:
        ``g``, the hash range size, in ``[1, 2**64)``.

    Returns
    -------
    ``uint64`` array of bucket indices, broadcast shape of seeds/components.
    """
    if not 1 <= buckets < 2**64:
        raise ProtocolError(
            f"hash range must be in [1, 2**64), got {buckets}")
    if not components:
        raise ProtocolError("chain_hash needs at least one value component")
    state = splitmix64(np.asarray(seeds, dtype=np.uint64))
    for comp in components:
        comp = np.asarray(comp, dtype=np.uint64)
        state = splitmix64(state ^ comp)
    return state % np.uint64(buckets)


def random_seeds(count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent 64-bit hash seeds."""
    if count < 0:
        raise ProtocolError(f"count must be non-negative, got {count}")
    return rng.integers(0, 2**64, size=count, dtype=np.uint64)


#: Hard cap on the scratch memory :func:`tiled_support_counts` may hold at
#: once. The kernel usually stays far below it (tiles are sized for cache,
#: see ``_TILE_ELEMS``); the cap is the guarantee that a ``d x n`` state
#: matrix is never materialized whole.
DEFAULT_TILE_BYTES = 64 * 1024 * 1024

#: Target elements per work tile. Two uint64 scratch buffers of this size
#: (~0.5 MB each) stay resident in L2/L3 across the splitmix64 chain, which
#: measures ~2x faster than streaming tens-of-MB tiles through DRAM.
_TILE_ELEMS = 64 * 1024

#: Columns (users) per tile: one row of 8192 uint64 is 64 KB, so a whole
#: tile row round-trips through cache, not memory.
_USER_TILE = 8192

_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _splitmix64_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """The splitmix64 finalizer, in place over ``x`` (same bits as
    :func:`splitmix64`), using ``scratch`` for the shifted operand so the
    chain allocates nothing."""
    np.add(x, _GOLDEN, out=x)
    np.right_shift(x, _S30, out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _MIX1, out=x)
    np.right_shift(x, _S27, out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _MIX2, out=x)
    np.right_shift(x, _S31, out=scratch)
    np.bitwise_xor(x, scratch, out=x)


def mix_seeds(seeds: np.ndarray) -> np.ndarray:
    """Pre-mix raw hash seeds into the chain's starting state.

    ``chain_hash(seeds, comps, g)`` begins every evaluation with
    ``splitmix64(seeds)``; that mix depends only on the seeds, so a report
    queried repeatedly (OLH estimation, HIO's memoized per-interval queries)
    should compute it once and hand the result to
    :func:`tiled_support_counts`. This is the numpy tier of
    :func:`repro.fo.kernels.mix_seeds`, which the library calls.
    """
    return splitmix64(np.asarray(seeds, dtype=np.uint64))


def tiled_support_counts(mixed_seeds: np.ndarray, buckets: np.ndarray,
                         hash_range: int, candidates: np.ndarray,
                         tile_bytes: int = DEFAULT_TILE_BYTES) -> np.ndarray:
    """Support counts of many candidate values against one report batch.

    For each candidate value ``v`` (row of ``candidates``), counts the
    reports whose seeded hash of ``v`` equals their reported bucket —
    the aggregation primitive of OLH-style protocols. Bit-identical to
    calling :func:`chain_hash` per candidate and comparing, but vectorized
    in 2-D: ``(candidate-block, user-block)`` tiles of splitmix64 state are
    advanced in place one value-component at a time and reduced against the
    buckets, with tiles sized to stay cache-resident and never exceed
    ``tile_bytes``.

    Parameters
    ----------
    mixed_seeds:
        ``mix_seeds(seeds)`` of the report batch, shape ``(n,)``. Passing
        the pre-mixed state (rather than raw seeds) lets callers amortize
        the mix across repeated queries on the same report.
    buckets:
        Reported buckets, shape ``(n,)``, values in ``[0, hash_range)``.
    hash_range:
        ``g``, the hash range size, in ``[1, 2**64)``.
    candidates:
        Candidate values: shape ``(T,)`` for single-component values or
        ``(T, k)`` for multi-component (tuple) values, hashed by chaining
        components exactly like :func:`chain_hash`.
    tile_bytes:
        Hard cap on scratch memory: the kernel's two uint64 work buffers
        together never exceed ``max(16, tile_bytes)`` bytes, so a
        ``(T, n)`` state matrix is never materialized at once. Tiles are
        additionally clamped to cache-friendly sizes (~1 MB), which is
        where the kernel is fastest; raising the cap past that changes
        nothing.

    Returns
    -------
    ``int64`` array of shape ``(T,)``: the support count of each candidate.
    """
    if not 1 <= hash_range < 2**64:
        raise ProtocolError(
            f"hash range must be in [1, 2**64), got {hash_range}")
    if tile_bytes < 8:
        raise ProtocolError(f"tile_bytes must be >= 8, got {tile_bytes}")
    mixed_seeds = np.asarray(mixed_seeds, dtype=np.uint64)
    if mixed_seeds.ndim != 1:
        raise ProtocolError(
            f"mixed_seeds must be 1-D, got shape {mixed_seeds.shape}")
    buckets = np.asarray(buckets, dtype=np.uint64)
    if buckets.shape != mixed_seeds.shape:
        raise ProtocolError(
            f"{len(mixed_seeds)} seeds vs {len(buckets)} buckets")
    cand = np.asarray(candidates, dtype=np.uint64)
    if cand.ndim == 1:
        cand = cand[:, None]
    if cand.ndim != 2 or cand.shape[1] < 1:
        raise ProtocolError(
            f"candidates must be (T,) or (T, k>=1), got shape "
            f"{np.shape(candidates)}")
    num_candidates, num_components = cand.shape
    n = len(mixed_seeds)
    counts = np.zeros(num_candidates, dtype=np.int64)
    if n == 0 or num_candidates == 0:
        return counts
    g = np.uint64(hash_range)
    # g is a power of two for the paper's canonical budgets (ε=1 gives
    # g=4); masking there skips the uint64 division, the single most
    # expensive op in the chain.
    power_of_two = hash_range & (hash_range - 1) == 0
    bit_mask = np.uint64(hash_range - 1)
    # Two uint64 scratch buffers per tile; honor the cap, prefer cache.
    elems = max(1, min(tile_bytes // 16, _TILE_ELEMS))
    user_block = max(1, min(n, _USER_TILE, elems))
    cand_block = max(1, elems // user_block)
    buf = np.empty((cand_block, user_block), dtype=np.uint64)
    tmp = np.empty_like(buf)
    with np.errstate(over="ignore"):
        for ustart in range(0, n, user_block):
            mixed_row = mixed_seeds[ustart:ustart + user_block][None, :]
            bucket_row = buckets[ustart:ustart + user_block][None, :]
            width = mixed_row.shape[1]
            for cstart in range(0, num_candidates, cand_block):
                chunk = cand[cstart:cstart + cand_block]
                state = buf[:len(chunk), :width]
                scratch = tmp[:len(chunk), :width]
                np.bitwise_xor(mixed_row, chunk[:, 0][:, None], out=state)
                _splitmix64_inplace(state, scratch)
                for t in range(1, num_components):
                    np.bitwise_xor(state, chunk[:, t][:, None], out=state)
                    _splitmix64_inplace(state, scratch)
                if power_of_two:
                    np.bitwise_and(state, bit_mask, out=state)
                else:
                    np.mod(state, g, out=state)
                counts[cstart:cstart + len(chunk)] += (
                    state == bucket_row).sum(axis=1)
    return counts
