"""Tests for the GRR / OLH / OUE frequency oracles.

Covers the mechanism-level contracts: perturbation probabilities match the
ε-LDP design values, estimates are unbiased, empirical variance tracks the
analytic formulas, and report/domain mismatches are rejected.
"""

import math

import numpy as np
import pytest

from repro.errors import PrivacyError, ProtocolError
from repro.fo import (
    GeneralizedRandomizedResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
)
from repro.fo.olh import optimal_hash_range


def _estimate_bias(oracle, domain, n, trials, rng, target=0):
    """Mean estimate of a point mass at ``target`` over repeated runs."""
    values = np.full(n, target)
    estimates = [oracle.run(values, rng)[target] for _ in range(trials)]
    return float(np.mean(estimates)), float(np.var(estimates, ddof=1))


class TestGRR:
    def test_probabilities(self):
        oracle = GeneralizedRandomizedResponse(1.0, 10)
        e = math.exp(1.0)
        assert oracle.p == pytest.approx(e / (e + 9))
        assert oracle.q == pytest.approx(1 / (e + 9))
        # The LDP ratio is exactly e^epsilon.
        assert oracle.p / oracle.q == pytest.approx(e)

    def test_keep_rate_matches_p(self):
        rng = np.random.default_rng(1)
        oracle = GeneralizedRandomizedResponse(1.0, 8)
        values = np.full(200_000, 3)
        report = oracle.perturb(values, rng)
        keep_rate = float(np.mean(report.values == 3))
        assert keep_rate == pytest.approx(oracle.p, abs=0.005)

    def test_other_values_uniform(self):
        rng = np.random.default_rng(2)
        oracle = GeneralizedRandomizedResponse(1.0, 6)
        report = oracle.perturb(np.full(300_000, 0), rng)
        others = report.values[report.values != 0]
        counts = np.bincount(others, minlength=6)[1:]
        assert np.abs(counts - counts.mean()).max() < \
            5 * np.sqrt(counts.mean())

    def test_unbiased_estimate(self):
        rng = np.random.default_rng(3)
        oracle = GeneralizedRandomizedResponse(1.0, 8)
        mean, _ = _estimate_bias(oracle, 8, 50_000, 30, rng)
        assert mean == pytest.approx(1.0, abs=0.01)

    def test_empirical_variance_matches_analytic(self):
        rng = np.random.default_rng(4)
        n = 50_000
        oracle = GeneralizedRandomizedResponse(1.0, 16)
        # Uniform data: each value has frequency 1/16, small enough that
        # the f_v term in the variance is negligible.
        values = rng.integers(0, 16, size=n)
        estimates = [oracle.run(values, rng)[5] for _ in range(60)]
        empirical = np.var(estimates, ddof=1)
        analytic = oracle.theoretical_variance(n)
        assert empirical == pytest.approx(analytic, rel=0.5)

    def test_estimates_sum_near_one(self):
        rng = np.random.default_rng(5)
        oracle = GeneralizedRandomizedResponse(2.0, 12)
        values = rng.integers(0, 12, size=100_000)
        estimates = oracle.estimate(oracle.perturb(values, rng))
        assert estimates.sum() == pytest.approx(1.0, abs=0.05)

    def test_rejects_out_of_domain_values(self):
        oracle = GeneralizedRandomizedResponse(1.0, 4)
        with pytest.raises(ProtocolError):
            oracle.perturb(np.array([4]), np.random.default_rng(0))

    def test_rejects_domain_mismatch_report(self):
        a = GeneralizedRandomizedResponse(1.0, 4)
        b = GeneralizedRandomizedResponse(1.0, 5)
        report = a.perturb(np.array([0, 1]), np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            b.estimate(report)

    def test_rejects_empty_reports(self):
        oracle = GeneralizedRandomizedResponse(1.0, 4)
        report = oracle.perturb(np.array([], dtype=int),
                                np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            oracle.estimate(report)

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyError):
            GeneralizedRandomizedResponse(0.0, 4)
        with pytest.raises(PrivacyError):
            GeneralizedRandomizedResponse(-1.0, 4)

    def test_domain_too_small(self):
        with pytest.raises(ProtocolError):
            GeneralizedRandomizedResponse(1.0, 1)


class TestOLH:
    def test_optimal_hash_range(self):
        assert optimal_hash_range(1.0) == math.ceil(math.e) + 1
        assert optimal_hash_range(0.1) >= 2

    def test_unbiased_estimate(self):
        rng = np.random.default_rng(6)
        oracle = OptimizedLocalHashing(1.0, 20)
        mean, _ = _estimate_bias(oracle, 20, 50_000, 30, rng)
        assert mean == pytest.approx(1.0, abs=0.02)

    def test_empirical_variance_matches_analytic(self):
        rng = np.random.default_rng(7)
        n = 50_000
        oracle = OptimizedLocalHashing(1.0, 32)
        values = rng.integers(0, 32, size=n)
        estimates = [oracle.run(values, rng)[3] for _ in range(60)]
        empirical = np.var(estimates, ddof=1)
        analytic = oracle.theoretical_variance(n)
        assert empirical == pytest.approx(analytic, rel=0.5)

    def test_variance_insensitive_to_domain_size(self):
        # OLH's defining property: accuracy does not degrade with |D|.
        assert (OptimizedLocalHashing(1.0, 10).theoretical_variance(1000)
                == OptimizedLocalHashing(1.0, 1000)
                .theoretical_variance(1000))

    def test_estimates_recover_skewed_distribution(self):
        rng = np.random.default_rng(8)
        n = 200_000
        values = rng.choice(8, size=n, p=[0.5, 0.2, 0.1, 0.05, 0.05,
                                          0.05, 0.03, 0.02])
        oracle = OptimizedLocalHashing(2.0, 8)
        estimates = oracle.run(values, rng)
        assert estimates[0] == pytest.approx(0.5, abs=0.03)
        assert estimates[7] == pytest.approx(0.02, abs=0.03)

    def test_hash_range_mismatch_rejected(self):
        a = OptimizedLocalHashing(1.0, 8)
        b = OptimizedLocalHashing(1.0, 8, hash_range=a.g + 1)
        report = a.perturb(np.array([0, 1]), np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            b.estimate(report)

    def test_mismatched_seed_bucket_lengths_rejected(self):
        from repro.fo.olh import OLHReport
        with pytest.raises(ProtocolError):
            OLHReport(seeds=np.zeros(2, dtype=np.uint64),
                      buckets=np.zeros(3, dtype=np.int64),
                      hash_range=4, domain_size=8)

    def test_support_counts_shape(self):
        rng = np.random.default_rng(9)
        oracle = OptimizedLocalHashing(1.0, 10)
        report = oracle.perturb(rng.integers(0, 10, size=500), rng)
        counts = oracle.fold(None, [report]).vector
        assert counts.shape == (10,)
        assert (counts >= 0).all() and (counts <= 500).all()

    def test_support_counts_match_looped_reference(self):
        # The tiled kernel must be bit-identical to the pre-kernel loop.
        from repro.fo.hashing import chain_hash
        rng = np.random.default_rng(11)
        oracle = OptimizedLocalHashing(1.0, 37)
        report = oracle.perturb(rng.integers(0, 37, size=2000), rng)
        looped = np.array(
            [np.count_nonzero(chain_hash(report.seeds, [v], oracle.g)
                              == report.buckets) for v in range(37)],
            dtype=np.int64)
        np.testing.assert_array_equal(oracle.fold(None, [report]).vector,
                                      looped)

    def test_perturb_is_the_hash_chain_then_grr(self):
        """The one-pass kernel keeps the protocol's draws and arithmetic:
        seeds, keep uniforms and other buckets drawn in that order, each
        value hashed by ``chain_hash``, then GRR over ``[0, g)``."""
        from repro.fo.hashing import chain_hash
        oracle = OptimizedLocalHashing(4.0, 256)
        values = np.random.default_rng(12).integers(0, 256, size=3000)
        report = oracle.perturb(values, np.random.default_rng(13))
        rng = np.random.default_rng(13)
        seeds = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
        keep = rng.random(3000) < oracle.p
        others = rng.integers(0, oracle.g - 1, size=3000)
        hashed = chain_hash(seeds, [values], oracle.g).astype(np.int64)
        expected = np.where(keep, hashed, others + (others >= hashed))
        np.testing.assert_array_equal(report.seeds, seeds)
        np.testing.assert_array_equal(report.buckets, expected)
        assert report.buckets.dtype == np.uint64

    def test_optimal_hash_range_huge_epsilon_raises_protocol_error(self):
        # math.exp overflows for eps >~ 710; the bare OverflowError is now
        # wrapped in a ProtocolError with an actionable message.
        with pytest.raises(ProtocolError, match="too large"):
            optimal_hash_range(1000.0)

    def test_report_rejects_out_of_range_buckets(self):
        from repro.fo.olh import OLHReport
        seeds = np.zeros(3, dtype=np.uint64)
        with pytest.raises(ProtocolError):
            OLHReport(seeds=seeds,
                      buckets=np.array([0, 1, 4], dtype=np.int64),
                      hash_range=4, domain_size=8)

    def test_report_rejects_negative_buckets(self):
        from repro.fo.olh import OLHReport
        seeds = np.zeros(3, dtype=np.uint64)
        with pytest.raises(ProtocolError):
            OLHReport(seeds=seeds,
                      buckets=np.array([0, -1, 2], dtype=np.int64),
                      hash_range=4, domain_size=8)

    def test_report_normalizes_buckets_to_uint64(self):
        from repro.fo.olh import OLHReport
        report = OLHReport(seeds=np.zeros(3, dtype=np.uint64),
                           buckets=np.array([0, 1, 3], dtype=np.int64),
                           hash_range=4, domain_size=8)
        assert report.buckets.dtype == np.uint64
        assert report.seeds.dtype == np.uint64

    def test_perturbed_reports_always_valid(self):
        rng = np.random.default_rng(13)
        oracle = OptimizedLocalHashing(0.5, 12)
        report = oracle.perturb(rng.integers(0, 12, size=5000), rng)
        assert int(report.buckets.max()) < oracle.g


class TestOUE:
    def test_unbiased_estimate(self):
        rng = np.random.default_rng(10)
        oracle = OptimizedUnaryEncoding(1.0, 16)
        mean, _ = _estimate_bias(oracle, 16, 50_000, 30, rng)
        assert mean == pytest.approx(1.0, abs=0.02)

    def test_flip_probabilities(self):
        rng = np.random.default_rng(11)
        oracle = OptimizedUnaryEncoding(1.0, 4)
        n = 200_000
        report = oracle.perturb(np.full(n, 2), rng)
        # Bit 2 is a true 1-bit: kept with p = 1/2.
        assert report.ones[2] / n == pytest.approx(0.5, abs=0.01)
        # Other bits are 0-bits: flipped on with q = 1/(e+1).
        q = 1.0 / (math.e + 1.0)
        for v in (0, 1, 3):
            assert report.ones[v] / n == pytest.approx(q, abs=0.01)

    def test_matches_olh_variance(self):
        oue = OptimizedUnaryEncoding(1.3, 50)
        olh = OptimizedLocalHashing(1.3, 50)
        assert oue.theoretical_variance(1000) == \
            pytest.approx(olh.theoretical_variance(1000))

    def test_blocked_perturbation_equals_unblocked_distribution(self):
        # Force multiple blocks and check the estimate is still sane.
        rng = np.random.default_rng(12)
        oracle = OptimizedUnaryEncoding(2.0, 6)
        oracle._BLOCK = 1000
        values = rng.integers(0, 6, size=5000)
        estimates = oracle.estimate(oracle.perturb(values, rng))
        truth = np.bincount(values, minlength=6) / 5000
        assert np.abs(estimates - truth).max() < 0.05

    def test_report_counter_mismatch_rejected(self):
        from repro.fo.oue import OUEReport
        oracle = OptimizedUnaryEncoding(1.0, 4)
        with pytest.raises(ProtocolError):
            oracle.estimate(OUEReport(ones=np.zeros(5), n=10))

    def test_zero_reports_rejected(self):
        oracle = OptimizedUnaryEncoding(1.0, 4)
        report = oracle.perturb(np.array([], dtype=int),
                                np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            oracle.estimate(report)


class TestCrossProtocolAgreement:
    def test_olh_and_oue_agree_on_same_data(self):
        # OUE has no hashing step; agreement with OLH within a few standard
        # deviations isolates hash-family bugs.
        rng = np.random.default_rng(13)
        n = 100_000
        values = rng.choice(10, size=n,
                            p=np.linspace(2, 0.2, 10) / np.sum(
                                np.linspace(2, 0.2, 10)))
        olh = OptimizedLocalHashing(1.0, 10).run(values, rng)
        oue = OptimizedUnaryEncoding(1.0, 10).run(values, rng)
        std = math.sqrt(OptimizedLocalHashing(1.0, 10)
                        .theoretical_variance(n))
        assert np.abs(olh - oue).max() < 8 * std
