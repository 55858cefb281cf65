"""Tests for the monoid of folded states (repro.core.merge).

Merging the folded states of disjoint user batches must equal one fold of
all their reports — that is what lets every collection path fold each
shard where it is perturbed and reduce the shard states in any grouping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import merge_reports
from repro.errors import ProtocolError
from repro.fo import make_oracle
from repro.rng import ensure_rng

ALL_PROTOCOLS = ("grr", "olh", "oue", "sue", "she", "the", "sw")
DOMAIN = 12


def perturb_batches(protocol, sizes, epsilon=1.0, seed=7):
    """One oracle, one values-vector per batch, one report per batch."""
    oracle = make_oracle(protocol, epsilon, DOMAIN)
    rng = ensure_rng(seed)
    batches = [rng.integers(0, DOMAIN, size=size) for size in sizes]
    reports = [oracle.perturb(values, rng) for values in batches]
    return oracle, batches, reports


def shard_states(protocol, sizes):
    """Each batch's report folded on its own, as a shard task folds."""
    oracle, batches, reports = perturb_batches(protocol, sizes)
    return oracle, reports, [oracle.fold(None, [r]) for r in reports]


def assert_state_equal(actual, expected):
    """Exact for integer counts, tight for float sums.

    SHE accumulates float Laplace noise, and float addition is only
    associative up to rounding — every integer statistic must match
    exactly.
    """
    assert actual.n == expected.n
    assert actual.vector.dtype == expected.vector.dtype
    if np.issubdtype(expected.vector.dtype, np.floating):
        np.testing.assert_allclose(actual.vector, expected.vector,
                                   rtol=1e-12)
    else:
        np.testing.assert_array_equal(actual.vector, expected.vector)


class TestMergeSemantics:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_merge_equals_one_shot_statistics(self, protocol):
        """Merged shard states are one fold of every report, byte for
        byte: the vectors go through one left fold in the order given."""
        oracle, batches, reports = perturb_batches(protocol, [40, 25, 60])
        merged = merge_reports([oracle.fold(None, [r]) for r in reports])
        one_fold = oracle.fold(None, reports)
        assert merged.vector.tobytes() == one_fold.vector.tobytes()
        freqs = oracle.unbias(merged)
        assert freqs.shape == (DOMAIN,)
        assert np.isfinite(freqs).all()
        # The merged state must represent every user exactly once.
        assert merged.n == one_fold.n == sum(len(b) for b in batches)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_merge_is_associative(self, protocol):
        _, _, states = shard_states(protocol, [10, 20, 30, 5])
        left = merge_reports([merge_reports(states[:2]),
                              merge_reports(states[2:])])
        right = merge_reports(
            [states[0], merge_reports(states[1:])])
        flat = merge_reports(states)
        assert_state_equal(left, flat)
        assert_state_equal(right, flat)

    @settings(max_examples=25, deadline=None)
    @given(split=st.integers(min_value=1, max_value=4),
           protocol=st.sampled_from(ALL_PROTOCOLS))
    def test_any_regrouping_matches_flat_merge(self, split, protocol):
        oracle, reports, states = shard_states(protocol, [8, 12, 6, 9, 11])
        grouped = merge_reports([merge_reports(states[:split]),
                                 merge_reports(states[split:])])
        assert_state_equal(grouped, oracle.fold(None, reports))

    def test_empty_and_none_inputs(self):
        assert merge_reports([]) is None
        assert merge_reports([None, None]) is None

    def test_single_report_returned_unchanged(self):
        _, _, states = shard_states("olh", [15])
        assert merge_reports(states) is states[0]
        # A lone part passes through whatever it is (an interactive
        # backend's fitted model reduces this way).
        sentinel = object()
        assert merge_reports([None, sentinel]) is sentinel

    def test_nones_are_skipped(self):
        _, _, states = shard_states("oue", [10, 10])
        with_gaps = [None, states[0], None, states[1]]
        assert_state_equal(merge_reports(with_gaps),
                           merge_reports(states))


class TestMergeRejections:
    def test_mixed_types_rejected(self):
        """A folded state never merges with a raw report: reports are
        folded first (``oracle.fold``), then their states merge."""
        _, reports, (state,) = shard_states("grr", [10])
        with pytest.raises(ProtocolError, match="unsupported"):
            merge_reports([state, reports[0]])

    def test_different_layouts_rejected(self):
        """A GRR histogram (int64) and SHE sums (float64) of one domain
        differ in dtype."""
        _, _, (grr,) = shard_states("grr", [10])
        _, _, (she,) = shard_states("she", [10])
        assert grr.vector.shape == she.vector.shape
        with pytest.raises(ProtocolError, match="different lengths"):
            merge_reports([grr, she])

    def test_states_carry_no_parameters(self):
        """Only the layout is checked: GRR and OLH states of one domain
        are both int64 per-cell counts and merge without an error, so
        callers merge only states folded by one oracle."""
        _, _, (grr,) = shard_states("grr", [10])
        _, _, (olh,) = shard_states("olh", [10])
        merged = merge_reports([grr, olh])
        assert merged.n == grr.n + olh.n
        np.testing.assert_array_equal(merged.vector,
                                      grr.vector + olh.vector)

    def test_unsupported_type_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported"):
            merge_reports([object(), object()])

    def test_incompatible_domains_rejected(self):
        oracle_a = make_oracle("grr", 1.0, 8)
        oracle_b = make_oracle("grr", 1.0, 16)
        rng = ensure_rng(3)
        states = [
            oracle_a.fold(None, [oracle_a.perturb(rng.integers(0, 8, 20),
                                                  rng)]),
            oracle_b.fold(None, [oracle_b.perturb(rng.integers(0, 16, 20),
                                                  rng)])]
        with pytest.raises(ProtocolError, match="different lengths"):
            merge_reports(states)
