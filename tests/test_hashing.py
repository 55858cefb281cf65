"""Tests for repro.fo.hashing (the OLH hash substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.fo.hashing import (
    chain_hash,
    mix_seeds,
    random_seeds,
    splitmix64,
    tiled_support_counts,
)


def _looped_support_counts(seeds, buckets, hash_range, candidates):
    """The pre-kernel reference: one chain_hash pass per candidate."""
    cand = np.asarray(candidates, dtype=np.uint64)
    if cand.ndim == 1:
        cand = cand[:, None]
    buckets = np.asarray(buckets, dtype=np.uint64)
    return np.array(
        [np.count_nonzero(chain_hash(seeds, list(row), hash_range)
                          == buckets) for row in cand],
        dtype=np.int64)


class TestSplitmix:
    def test_deterministic(self):
        x = np.arange(10, dtype=np.uint64)
        np.testing.assert_array_equal(splitmix64(x), splitmix64(x))

    def test_distinct_inputs_rarely_collide(self):
        x = np.arange(100_000, dtype=np.uint64)
        hashed = splitmix64(x)
        assert len(np.unique(hashed)) == len(x)

    def test_output_spreads_over_64_bits(self):
        hashed = splitmix64(np.arange(1000, dtype=np.uint64))
        assert hashed.max() > np.uint64(2) ** np.uint64(60)


class TestChainHash:
    def test_bucket_range(self):
        seeds = random_seeds(1000, np.random.default_rng(1))
        buckets = chain_hash(seeds, [7], 5)
        assert buckets.min() >= 0 and buckets.max() < 5

    def test_same_seed_same_value_is_stable(self):
        buckets1 = chain_hash(np.uint64(42), [3], 8)
        buckets2 = chain_hash(np.uint64(42), [3], 8)
        assert buckets1 == buckets2

    def test_approximately_uniform_over_buckets(self):
        # For a fixed value, different seeds should spread uniformly:
        # this is the property OLH's unbiasedness relies on.
        g = 7
        seeds = random_seeds(70_000, np.random.default_rng(2))
        buckets = chain_hash(seeds, [123], g)
        counts = np.bincount(buckets.astype(np.int64), minlength=g)
        expected = len(seeds) / g
        assert np.abs(counts - expected).max() < 5 * np.sqrt(expected)

    def test_pairwise_near_independence(self):
        # P[H(u) == H(v)] for u != v should be ~1/g across random seeds.
        g = 8
        seeds = random_seeds(80_000, np.random.default_rng(3))
        hu = chain_hash(seeds, [11], g)
        hv = chain_hash(seeds, [57], g)
        collision_rate = float(np.mean(hu == hv))
        assert abs(collision_rate - 1.0 / g) < 0.01

    def test_multi_component_values(self):
        seeds = random_seeds(100, np.random.default_rng(4))
        a = chain_hash(seeds, [1, 2, 3], 16)
        b = chain_hash(seeds, [1, 2, 4], 16)
        assert (a != b).any()

    def test_component_order_matters(self):
        seeds = random_seeds(1000, np.random.default_rng(5))
        a = chain_hash(seeds, [1, 2], 1 << 30)
        b = chain_hash(seeds, [2, 1], 1 << 30)
        assert (a != b).mean() > 0.99

    def test_array_components_broadcast(self):
        seeds = random_seeds(4, np.random.default_rng(6))
        values = np.array([0, 1, 2, 3], dtype=np.uint64)
        per_user = chain_hash(seeds, [values], 8)
        for i in range(4):
            single = chain_hash(seeds[i], [int(values[i])], 8)
            assert per_user[i] == single

    def test_invalid_bucket_count(self):
        with pytest.raises(ProtocolError):
            chain_hash(np.uint64(1), [0], 0)

    @pytest.mark.parametrize("buckets", [2**64, 2**64 + 4])
    def test_hash_range_beyond_uint64_rejected(self, buckets):
        # Regression: np.uint64(buckets) raised a bare OverflowError.
        with pytest.raises(ProtocolError):
            chain_hash(np.uint64(1), [0], buckets)

    def test_largest_hash_range_accepted(self):
        assert chain_hash(np.uint64(1), [0], 2**64 - 1).dtype == np.uint64

    def test_empty_components_rejected(self):
        with pytest.raises(ProtocolError):
            chain_hash(np.uint64(1), [], 4)


class TestTiledSupportCounts:
    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(0, 400),
        domain=st.integers(1, 60),
        components=st.integers(1, 3),
        hash_range=st.integers(2, 17),
        tile_bytes=st.sampled_from([16, 256, 10_000, 64 * 1024 * 1024]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_looped_reference(self, n, domain, components,
                                               hash_range, tile_bytes,
                                               seed):
        # The acceptance property: across random seeds, domain sizes, tile
        # boundaries (tiny caps force many tiles), hash ranges (power-of-two
        # and not) and multi-component values, the kernel's counts are
        # bit-identical to the looped chain_hash reference.
        rng = np.random.default_rng(seed)
        seeds = random_seeds(n, rng)
        buckets = rng.integers(0, hash_range, size=n).astype(np.uint64)
        if components == 1:
            candidates = np.arange(domain, dtype=np.uint64)
        else:
            candidates = rng.integers(
                0, 2**63, size=(domain, components)).astype(np.uint64)
        expected = _looped_support_counts(seeds, buckets, hash_range,
                                          candidates)
        got = tiled_support_counts(mix_seeds(seeds), buckets, hash_range,
                                   candidates, tile_bytes=tile_bytes)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == np.int64

    def test_tile_boundary_exactness(self):
        # Domain sizes straddling the tile boundary: force 1-candidate
        # tiles and oddly split user chunks.
        rng = np.random.default_rng(7)
        n, g = 1000, 5
        seeds = random_seeds(n, rng)
        buckets = rng.integers(0, g, size=n).astype(np.uint64)
        expected = _looped_support_counts(seeds, buckets, g, np.arange(33))
        for tile_bytes in (16, 8 * 999, 8 * 1000, 8 * 1001, 1 << 20):
            got = tiled_support_counts(mix_seeds(seeds), buckets, g,
                                       np.arange(33), tile_bytes=tile_bytes)
            np.testing.assert_array_equal(got, expected)

    def test_zero_reports(self):
        counts = tiled_support_counts(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64),
            4, np.arange(10))
        np.testing.assert_array_equal(counts, np.zeros(10, dtype=np.int64))

    def test_zero_candidates(self):
        seeds = random_seeds(5, np.random.default_rng(0))
        counts = tiled_support_counts(
            mix_seeds(seeds), np.zeros(5, dtype=np.uint64), 4,
            np.empty(0, dtype=np.uint64))
        assert counts.shape == (0,)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ProtocolError):
            tiled_support_counts(np.zeros(3, dtype=np.uint64),
                                 np.zeros(2, dtype=np.uint64), 4,
                                 np.arange(4))

    def test_invalid_hash_range_rejected(self):
        with pytest.raises(ProtocolError):
            tiled_support_counts(np.zeros(2, dtype=np.uint64),
                                 np.zeros(2, dtype=np.uint64), 0,
                                 np.arange(4))

    @pytest.mark.parametrize("hash_range", [2**64, 2**64 + 4])
    def test_hash_range_beyond_uint64_rejected(self, hash_range):
        # Regression: np.uint64(hash_range) raised a bare OverflowError.
        with pytest.raises(ProtocolError):
            tiled_support_counts(np.zeros(2, dtype=np.uint64),
                                 np.zeros(2, dtype=np.uint64), hash_range,
                                 np.arange(4))

    def test_invalid_tile_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            tiled_support_counts(np.zeros(2, dtype=np.uint64),
                                 np.zeros(2, dtype=np.uint64), 4,
                                 np.arange(4), tile_bytes=0)

    def test_mix_seeds_matches_chain_prefix(self):
        # mix_seeds is exactly the seed-only prefix of chain_hash's state.
        seeds = random_seeds(100, np.random.default_rng(3))
        np.testing.assert_array_equal(mix_seeds(seeds), splitmix64(seeds))


class TestRandomSeeds:
    def test_count_and_dtype(self):
        seeds = random_seeds(10, np.random.default_rng(7))
        assert seeds.shape == (10,) and seeds.dtype == np.uint64

    def test_negative_count(self):
        with pytest.raises(ProtocolError):
            random_seeds(-1, np.random.default_rng(7))
