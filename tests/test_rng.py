"""Tests for repro.rng."""

import numpy as np
import pytest

from repro.core.partition import group_sizes, partition_users
from repro.errors import ConfigurationError
from repro.rng import ensure_rng, label_dtype, random_seed, spawn


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(7).integers(0, 1000, size=5)
        b = ensure_rng(7).integers(0, 1000, size=5)
        assert (a == b).all()

    def test_generator_passes_through(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen


class TestSpawn:
    def test_children_are_independent_generators(self):
        children = spawn(ensure_rng(3), 4)
        assert len(children) == 4
        draws = [c.integers(0, 2**31) for c in children]
        assert len(set(draws)) == 4

    def test_zero_children(self):
        assert spawn(ensure_rng(3), 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(3), -1)

    def test_spawn_is_deterministic_from_seed(self):
        a = [c.integers(0, 2**31) for c in spawn(ensure_rng(9), 3)]
        b = [c.integers(0, 2**31) for c in spawn(ensure_rng(9), 3)]
        assert a == b


class TestRandomSeed:
    def test_in_63_bit_range(self):
        seed = random_seed(5)
        assert 0 <= seed < 2**63

    def test_deterministic(self):
        assert random_seed(5) == random_seed(5)


class TestPermutedGroupAssignment:
    """The population's permuted group assignment, made by
    :func:`repro.core.partition.partition_users` (group sizes from
    ``group_sizes``, one shuffle in ``repro.fo.kernels.permute``)."""

    def test_exact_group_sizes(self):
        labels = partition_users(10, 3, rng=1)
        np.testing.assert_array_equal(np.bincount(labels, minlength=3),
                                      group_sizes(10, 3))

    def test_rejects_negative_population(self):
        with pytest.raises(ConfigurationError):
            partition_users(-1, 3, rng=1)

    def test_rejects_no_groups(self):
        with pytest.raises(ConfigurationError):
            partition_users(5, 0, rng=1)

    def test_assignment_is_permuted(self):
        # With a random permutation, the first group's members should not
        # simply be the first rows.
        labels = partition_users(1000, 2, rng=2)
        assert labels[:500].sum() > 0

    def test_empty_population(self):
        labels = partition_users(0, 2, rng=1)
        assert len(labels) == 0

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 65_535, 65_536,
                                   65_537])
    def test_narrow_labels_are_the_int64_permutation(self, m):
        """Labels take the narrowest dtype, and the shuffle does not
        depend on the item size: the same labels as permuting int64."""
        n = 3 * m + 11
        labels = partition_users(n, m, rng=7)
        expected = ensure_rng(7).permutation(
            np.repeat(np.arange(m), group_sizes(n, m)))
        assert labels.dtype == label_dtype(m)
        np.testing.assert_array_equal(labels, expected)

    def test_label_dtype_boundaries(self):
        assert label_dtype(256) == np.uint8
        assert label_dtype(257) == np.uint16
        assert label_dtype(65_536) == np.uint16
        assert label_dtype(65_537) == np.int64
