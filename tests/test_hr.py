"""Tests for Hadamard Response — the registry's proof-of-extension.

HR is registered from exactly one module (:mod:`repro.fo.hr`); these
tests check the oracle's own statistics and that every pipeline layer
(batch, sharded, streaming, budget-split, sizing, robustness ingestion)
picks it up purely through the registry.
"""

import math

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import StreamingCollector, partition_users, plan_grids
from repro.core.client import collect_reports
from repro.core.merge import merge_reports
from repro.data import normal_dataset
from repro.errors import IngestError, ProtocolError
from repro.fo import HadamardResponse, hr_variance, make_oracle, olh_variance
from repro.fo.adaptive import choose_protocol
from repro.fo.hr import HRReport, hadamard_order
from repro.grids.sizing import SizingParams
from repro.queries import Query, between
from repro.rng import ensure_rng
from repro.robustness.policy import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    sanitize_report,
)

from tests.collect_reference import collect_reports_serial, folded


class TestHadamardOrder:
    def test_strictly_larger_power_of_two(self):
        assert hadamard_order(1) == 2
        assert hadamard_order(2) == 4
        assert hadamard_order(3) == 4
        assert hadamard_order(4) == 8
        assert hadamard_order(7) == 8
        assert hadamard_order(8) == 16

    def test_invalid_domain(self):
        with pytest.raises(ProtocolError):
            hadamard_order(0)


class TestOracle:
    def test_probabilities(self):
        oracle = HadamardResponse(1.0, 8)
        e = math.exp(1.0)
        assert oracle.p == pytest.approx(e / (e + 1))
        assert oracle.g == 16

    def test_unbiased(self):
        rng = np.random.default_rng(1)
        oracle = HadamardResponse(1.0, 10)
        values = np.full(50_000, 4)
        estimates = [oracle.run(values, rng)[4] for _ in range(30)]
        assert np.mean(estimates) == pytest.approx(1.0, abs=0.02)

    def test_estimates_sum_near_one(self):
        rng = np.random.default_rng(2)
        oracle = HadamardResponse(2.0, 12)
        values = rng.integers(0, 12, size=60_000)
        freqs = oracle.run(values, rng)
        assert freqs.sum() == pytest.approx(1.0, abs=0.05)

    def test_empirical_variance_matches_theory(self):
        rng = np.random.default_rng(3)
        n = 40_000
        oracle = HadamardResponse(1.0, 8)
        values = rng.integers(0, 8, size=n)
        estimates = [oracle.run(values, rng)[2] for _ in range(50)]
        assert np.var(estimates, ddof=1) == pytest.approx(
            oracle.theoretical_variance(n), rel=0.5)

    def test_tiling_invisible(self):
        """Estimates must not depend on the support-counting tile size."""
        rng = np.random.default_rng(4)
        oracle = HadamardResponse(1.0, 300)
        report = oracle.perturb(rng.integers(0, 300, size=2_000), rng)
        wide = oracle.estimate(report)
        oracle._TILE = 7
        np.testing.assert_array_equal(oracle.estimate(report), wide)

    def test_variance_never_beats_olh(self):
        # (e^eps + 1)^2 >= 4 e^eps, so registering HR as an adaptive
        # candidate can never change an existing protocol choice.
        for eps in (0.1, 0.5, 1.0, 2.0, 4.0):
            assert hr_variance(eps) >= olh_variance(eps)
        for eps, domain in ((0.5, 4), (1.0, 64), (3.0, 1024)):
            assert choose_protocol(eps, domain) in ("grr", "olh")

    def test_report_validation(self):
        with pytest.raises(ProtocolError, match="power of two"):
            HRReport(rows=np.array([0]), bits=np.array([1]),
                     hadamard_order=6, domain_size=4)
        with pytest.raises(ProtocolError, match="exceed"):
            HRReport(rows=np.array([0]), bits=np.array([1]),
                     hadamard_order=8, domain_size=8)
        with pytest.raises(ProtocolError, match="-1 or \\+1"):
            HRReport(rows=np.array([0]), bits=np.array([2]),
                     hadamard_order=8, domain_size=4)
        with pytest.raises(ProtocolError):
            HRReport(rows=np.array([9]), bits=np.array([1]),
                     hadamard_order=8, domain_size=4)


class TestMergeAndSanitize:
    def test_merge_is_concatenation(self):
        """Merging two batches' states equals folding their
        concatenated rows."""
        oracle = HadamardResponse(1.0, 8)
        rng = np.random.default_rng(5)
        a = oracle.perturb(rng.integers(0, 8, size=100), rng)
        b = oracle.perturb(rng.integers(0, 8, size=50), rng)
        merged = merge_reports([oracle.fold(None, [a]),
                                oracle.fold(None, [b])])
        concatenated = HRReport(
            rows=np.concatenate([a.rows, b.rows]),
            bits=np.concatenate([a.bits, b.bits]),
            hadamard_order=oracle.g, domain_size=8)
        expected = oracle.fold(None, [concatenated])
        assert merged.n == expected.n == 150
        assert merged.vector.tobytes() == expected.vector.tobytes()

    def test_merge_rejects_mixed_configs(self):
        s1 = HadamardResponse(1.0, 8).fold(
            None, [HadamardResponse(1.0, 8).perturb(np.zeros(5, dtype=int),
                                                    1)])
        s2 = HadamardResponse(1.0, 4).fold(
            None, [HadamardResponse(1.0, 4).perturb(np.zeros(5, dtype=int),
                                                    1)])
        with pytest.raises(ProtocolError, match="different lengths"):
            merge_reports([s1, s2])

    def test_sanitizer_rejects_forged_order(self):
        oracle = HadamardResponse(1.0, 8)
        report = HadamardResponse(1.0, 20).perturb(
            np.zeros(10, dtype=int), 3)
        with pytest.raises(IngestError):
            sanitize_report(report, IngestPolicy(mode="strict"),
                            IngestStats(),
                            expected=ReportSpec.from_oracle(oracle))


class TestPipelineIntegration:
    """HR end-to-end with zero HR-specific edits outside repro.fo.hr."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return normal_dataset(6_000, num_numerical=2, num_categorical=1,
                              numerical_domain=16, categorical_domain=4,
                              rng=21)

    def test_make_oracle(self):
        assert isinstance(make_oracle("hr", 1.0, 8), HadamardResponse)

    def test_sizing_uses_registered_variance(self):
        params = SizingParams(epsilon=1.0, n=10_000, m=4)
        assert params.cell_variance("hr", 64) == pytest.approx(
            params.m * hr_variance(params.epsilon, params.n))

    def test_sharded_bit_identical_to_serial(self, dataset):
        config = FelipConfig(epsilon=1.0, protocols=("hr",))
        plans = plan_grids(dataset.schema, config, dataset.n)
        assert all(p.protocol == "hr" for p in plans)
        assignment = partition_users(dataset.n, len(plans),
                                     ensure_rng(11))
        serial = folded(collect_reports_serial(
            dataset.records, assignment, plans, config.epsilon, rng=23),
            config.epsilon)
        for workers in (1, 4):
            sharded = collect_reports(
                dataset.records, assignment, plans, config.epsilon, rng=23,
                workers=workers, chunk_size=None)
            for a, e in zip(sharded, serial):
                if e.report is None:
                    assert a.report is None
                    continue
                assert a.report.n == e.report.n
                assert a.report.vector.tobytes() == \
                    e.report.vector.tobytes()

    def test_batch_fit_tracks_truth(self, dataset):
        config = FelipConfig(epsilon=4.0, protocols=("hr",))
        model = Felip(dataset.schema, config).fit(dataset, rng=9)
        query = Query([between(dataset.schema[0].name, 3, 10)])
        truth = query.true_answer(dataset)
        assert model.answer(query) == pytest.approx(truth, abs=0.25)

    def test_streaming(self, dataset):
        config = FelipConfig(epsilon=1.0, protocols=("hr",))
        collector = StreamingCollector(dataset.schema, config,
                                       dataset.n, rng=5)
        half = dataset.n // 2
        collector.observe(dataset.records[:half])
        collector.observe(dataset.records[half:])
        model = collector.finalize()
        assert 0.0 <= model.answer(
            Query([between(dataset.schema[0].name, 2, 9)])) <= 1.0

    def test_budget_split(self, dataset):
        config = FelipConfig(epsilon=1.0, protocols=("hr",),
                             partition_mode="budget")
        model = Felip(dataset.schema, config).fit(dataset, rng=9)
        assert 0.0 <= model.answer(
            Query([between(dataset.schema[0].name, 2, 9)])) <= 1.0

    def test_ingest_strict_accepts_honest_run(self, dataset):
        config = FelipConfig(epsilon=1.0, protocols=("hr",),
                             ingest_policy="strict")
        model = Felip(dataset.schema, config).fit(dataset, rng=9)
        report = model.aggregator.robustness_report()
        assert report["ingest"]["dropped_reports"] == 0
        assert report["ingest"]["accepted_reports"] > 0
