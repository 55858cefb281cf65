"""Failure-injection tests: corrupted reports, adversarial inputs.

A deployed aggregator receives reports from untrusted clients; these tests
verify the estimators stay well-defined (no NaNs, no crashes, bounded
answers) under garbage input, and that validation catches structurally
invalid reports before estimation.
"""

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core.merge import merge_reports
from repro.data import uniform_dataset
from repro.errors import IngestError, ProtocolError, ReproError
from repro.fo import (
    GeneralizedRandomizedResponse,
    OptimizedLocalHashing,
)
from repro.fo.adaptive import make_oracle
from repro.fo.grr import GRRReport
from repro.fo.olh import OLHReport
from repro.postprocess import normalize_non_negative
from repro.queries import Query, between
from repro.robustness import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    sanitize_report,
)

pytestmark = pytest.mark.faults


class TestCorruptedGRRReports:
    def test_all_same_value_reports(self):
        # A coordinated group all reporting value 0: estimate stays finite
        # and post-processing yields a valid distribution.
        oracle = GeneralizedRandomizedResponse(1.0, 8)
        report = GRRReport(values=np.zeros(1000, dtype=np.int64),
                           domain_size=8)
        estimates = oracle.estimate(report)
        assert np.isfinite(estimates).all()
        cleaned = normalize_non_negative(estimates)
        assert cleaned[0] == pytest.approx(1.0)

    def test_single_report(self):
        oracle = GeneralizedRandomizedResponse(1.0, 8)
        report = GRRReport(values=np.array([3]), domain_size=8)
        estimates = oracle.estimate(report)
        assert np.isfinite(estimates).all()

    def test_out_of_domain_report_values_crash_loudly(self):
        # Out-of-domain values used to flow into bincount and mis-shape
        # the estimate; the report now rejects them at construction,
        # exactly like OLHReport rejects out-of-range buckets.
        with pytest.raises(ProtocolError):
            GRRReport(values=np.array([0, 1, 9]), domain_size=4)
        with pytest.raises(ProtocolError):
            GRRReport(values=np.array([0, -1, 2]), domain_size=4)
        with pytest.raises(ProtocolError):
            GRRReport(values=np.array([0.5, 1.0]), domain_size=4)


class TestCorruptedOLHReports:
    def test_bucket_values_outside_hash_range_rejected(self):
        # Out-of-range buckets used to pass silently and corrupt support
        # counts; the report now rejects them at construction.
        oracle = OptimizedLocalHashing(1.0, 8)
        seeds = np.arange(100, dtype=np.uint64)
        buckets = np.full(100, 10_000, dtype=np.int64)  # absurd bucket
        with pytest.raises(ProtocolError):
            OLHReport(seeds=seeds, buckets=buckets,
                      hash_range=oracle.g, domain_size=8)

    def test_adversarial_seeds_still_finite(self):
        oracle = OptimizedLocalHashing(1.0, 8)
        seeds = np.zeros(100, dtype=np.uint64)  # everyone claims seed 0
        buckets = np.zeros(100, dtype=np.int64)
        report = OLHReport(seeds=seeds, buckets=buckets,
                           hash_range=oracle.g, domain_size=8)
        estimates = oracle.estimate(report)
        assert np.isfinite(estimates).all()


class TestDegenerateCollections:
    def test_tiny_population(self):
        dataset = uniform_dataset(30, num_numerical=2, num_categorical=1,
                                  numerical_domain=8,
                                  categorical_domain=3, rng=1)
        model = Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=2)
        q = Query([between("num_0", 0, 3)])
        answer = model.answer(q)
        assert 0.0 <= answer <= 1.0

    def test_population_smaller_than_group_count(self):
        dataset = uniform_dataset(3, num_numerical=2, num_categorical=1,
                                  numerical_domain=8,
                                  categorical_domain=3, rng=3)
        model = Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=4)
        q = Query([between("num_0", 0, 3), between("num_1", 0, 3)])
        assert 0.0 <= model.answer(q) <= 1.0

    def test_constant_column_dataset(self):
        # Every user has the same record: distributions are point masses.
        records = np.zeros((1000, 3), dtype=np.int64)
        from repro.data import Dataset
        from repro.schema import Schema
        from repro.schema.attribute import categorical, numerical
        schema = Schema([numerical("a", 8), numerical("b", 8),
                         categorical("c", 3)])
        dataset = Dataset(schema, records)
        model = Felip.ohg(schema, epsilon=2.0).fit(dataset, rng=5)
        q = Query([between("a", 0, 0)])
        assert model.answer(q) == pytest.approx(1.0, abs=0.25)

    def test_extreme_epsilon_values(self):
        dataset = uniform_dataset(5000, num_numerical=2,
                                  num_categorical=0, numerical_domain=8,
                                  rng=6)
        for epsilon in (0.01, 10.0):
            model = Felip.ohg(dataset.schema, epsilon=epsilon).fit(
                dataset, rng=7)
            q = Query([between("num_0", 0, 3)])
            answer = model.answer(q)
            assert 0.0 <= answer <= 1.0
        # At huge epsilon the answer is essentially exact.
        assert model.answer(q) == pytest.approx(0.5, abs=0.05)

    def test_domain_of_two(self):
        dataset = uniform_dataset(5000, num_numerical=2,
                                  num_categorical=0, numerical_domain=2,
                                  rng=8)
        model = Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=9)
        q = Query([between("num_0", 0, 0)])
        assert model.answer(q) == pytest.approx(0.5, abs=0.15)


HISTOGRAM_PROTOCOLS = ("oue", "sue", "she", "the", "sw")


def _honest_report(protocol, epsilon=1.0, domain=8, n=2000, seed=11):
    oracle = make_oracle(protocol, epsilon, domain)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, domain, size=n)
    return oracle, oracle.perturb(values, np.random.default_rng(seed + 1))


class TestHistogramProtocolsUnderFailureInjection:
    """OUE/SUE/SHE/THE/SW: duplicated reports, adversarial payloads,
    empty batches — estimates stay finite and correctly shaped, or the
    failure surfaces as a typed ReproError. Never NaN, never a silently
    mis-shaped estimate."""

    @pytest.mark.parametrize("protocol", HISTOGRAM_PROTOCOLS)
    def test_duplicated_reports_estimate_finite(self, protocol):
        # A replayed (duplicated) batch doubles every sufficient
        # statistic consistently; the estimate must stay finite and
        # match the domain's shape.
        oracle, report = _honest_report(protocol)
        state = oracle.fold(None, [report])
        merged = merge_reports([state, state])
        estimates = oracle.unbias(merged)
        assert estimates.shape == (8,)
        assert np.isfinite(estimates).all()
        # Duplication preserves per-user averages, so the estimate is
        # unchanged up to floating-point association.
        np.testing.assert_allclose(estimates, oracle.estimate(report),
                                   atol=1e-9)

    @pytest.mark.parametrize("protocol", HISTOGRAM_PROTOCOLS)
    def test_empty_batch_is_typed_error_or_none(self, protocol):
        """An empty merge is None; a zero-user report either fails
        construction or ingestion with a typed error or estimates
        without NaNs."""
        oracle, report = _honest_report(protocol)
        assert merge_reports([]) is None
        try:
            empty = type(report)(**{**vars(report), "n": 0})
            sanitized = sanitize_report(
                empty, IngestPolicy(mode="strict"), IngestStats(),
                expected=ReportSpec.from_oracle(oracle))
            estimates = oracle.estimate(sanitized)
        except ReproError:
            return  # typed rejection is the expected outcome
        assert not np.isnan(estimates).any()

    @pytest.mark.parametrize("protocol", HISTOGRAM_PROTOCOLS)
    def test_adversarial_payloads_rejected_by_strict_ingest(self,
                                                            protocol):
        """Well-formed payloads that disagree with the plan — a vector
        of the wrong length, a θ or wave width the plan does not use —
        fail sanitization with IngestError. (Structurally invalid ones
        never build a report: ``tests/test_report_structure.py``.)"""
        oracle, report = _honest_report(protocol)
        policy = IngestPolicy(mode="strict")
        spec = ReportSpec.from_oracle(oracle)
        cls = type(report)
        fields = vars(report)
        if protocol in ("oue", "sue"):
            corruptions = [{"ones": report.ones[:3]}]        # mis-shaped
        elif protocol == "she":
            corruptions = [{"sums": report.sums[:2]}]
        elif protocol == "the":
            corruptions = [{"supports": report.supports[:3]},
                           {"threshold": report.threshold + 0.1}]
        else:  # sw
            corruptions = [{"wave_width": report.wave_width * 2}]
        for bad_fields in corruptions:
            forged = cls(**{**fields, **bad_fields})
            with pytest.raises(IngestError):
                sanitize_report(forged, policy, IngestStats(),
                                expected=spec)

    @pytest.mark.parametrize("protocol", HISTOGRAM_PROTOCOLS)
    def test_adversarial_seed_collision_stays_bounded(self, protocol):
        # Every user reporting from the same generator state (a broken
        # client fleet reusing one seed) still yields finite estimates.
        oracle = make_oracle(protocol, 1.0, 8)
        values = np.zeros(500, dtype=np.int64)
        reports = [oracle.perturb(values, np.random.default_rng(7))
                   for _ in range(3)]
        estimates = oracle.unbias(merge_reports(
            [oracle.fold(None, [report]) for report in reports]))
        assert np.isfinite(estimates).all()
        cleaned = normalize_non_negative(estimates)
        assert cleaned.sum() == pytest.approx(1.0)
        assert (cleaned >= 0).all() and (cleaned <= 1).all()


class TestEverythingRaisesReproError:
    """All library failures surface as ReproError subclasses."""

    def test_protocol_errors(self):
        with pytest.raises(ReproError):
            GeneralizedRandomizedResponse(1.0, 1)
        with pytest.raises(ReproError):
            OptimizedLocalHashing(-1.0, 8)

    def test_config_errors(self):
        with pytest.raises(ReproError):
            FelipConfig(epsilon=-1)

    def test_query_errors(self):
        from repro.queries import isin
        with pytest.raises(ReproError):
            Query([])
        with pytest.raises(ReproError):
            isin("x", [])
