"""Tests for the extension features (paper's discussion/future work).

Covers: the budget-splitting mode (Theorem 5.1's strawman), OUE as a
pluggable protocol, public-prior response matrices, streaming collection,
and mean estimation.
"""

import warnings

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import StreamingCollector
from repro.core.streaming import merge_reports
from repro.data import normal_dataset, uniform_dataset
from repro.errors import ConfigurationError, ProtocolError, QueryError
from repro.fo import (
    GeneralizedRandomizedResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
)
from repro.queries import Query, WorkloadSpec, between, random_workload
from repro.queries.query import true_answers


@pytest.fixture
def dataset():
    return normal_dataset(20_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=1)


class TestBudgetSplittingMode:
    def test_config_accepts_modes(self):
        assert FelipConfig(partition_mode="users").partition_mode == "users"
        assert FelipConfig(partition_mode="budget").partition_mode == \
            "budget"
        with pytest.raises(ConfigurationError):
            FelipConfig(partition_mode="hybrid")

    def test_budget_mode_runs_and_answers(self, dataset):
        model = Felip(dataset.schema,
                      FelipConfig(epsilon=1.0, partition_mode="budget"))
        model.fit(dataset, rng=2)
        q = Query([between("num_0", 0, 15)])
        assert 0.0 <= model.answer(q) <= 1.5

    def test_theorem_5_1_dividing_users_wins(self, dataset):
        # The paper's Theorem 5.1: splitting users beats splitting budget.
        queries = random_workload(dataset.schema,
                                  WorkloadSpec(num_queries=8, dimension=2),
                                  rng=3)
        truths = true_answers(queries, dataset)

        def run(mode, seed):
            model = Felip(dataset.schema,
                          FelipConfig(epsilon=1.0, partition_mode=mode))
            model.fit(dataset, rng=seed)
            return float(np.abs(model.answer_workload(queries)
                                - truths).mean())

        users = np.mean([run("users", s) for s in (4, 5)])
        budget = np.mean([run("budget", s) for s in (4, 5)])
        assert users < budget


class TestOUEProtocolOption:
    def test_config_accepts_oue(self):
        config = FelipConfig(protocols=("oue",))
        assert config.protocols == ("oue",)

    def test_pipeline_runs_with_oue(self, dataset):
        model = Felip(dataset.schema,
                      FelipConfig(epsilon=1.0, protocols=("oue",)))
        model.fit(dataset, rng=6)
        for plan in model.grid_plans:
            assert plan.protocol == "oue"
        q = Query([between("num_0", 0, 15)])
        assert model.answer(q) == pytest.approx(
            q.true_answer(dataset), abs=0.15)

    def test_oue_never_beats_olh_in_adaptive_set(self, dataset):
        # Same variance as OLH -> with both present, OLH (listed first in
        # the variance comparison) is never strictly worse.
        model = Felip(dataset.schema,
                      FelipConfig(epsilon=1.0,
                                  protocols=("grr", "olh", "oue")))
        model.fit(dataset, rng=7)
        assert all(p.protocol in ("grr", "olh") for p in model.grid_plans)


class TestPriors:
    def test_exact_prior_helps_within_cell_attribution(self):
        dataset = normal_dataset(30_000, num_numerical=2,
                                 num_categorical=0, numerical_domain=32,
                                 rng=8)
        prior = dataset.joint_marginal("num_0", "num_1")
        q = Query([between("num_0", 3, 11), between("num_1", 3, 11)])
        truths = q.true_answer(dataset)
        base_err, prior_err = [], []
        for seed in (9, 10, 11):
            base = Felip.oug(dataset.schema, epsilon=1.0).fit(dataset,
                                                              rng=seed)
            primed = Felip.oug(dataset.schema, epsilon=1.0).set_prior(
                "num_0", "num_1", prior).fit(dataset, rng=seed)
            base_err.append(abs(base.answer(q) - truths))
            prior_err.append(abs(primed.answer(q) - truths))
        assert np.mean(prior_err) <= np.mean(base_err) + 0.01

    def test_prior_validation(self, dataset):
        model = Felip.ohg(dataset.schema)
        with pytest.raises(QueryError):
            model.set_prior("num_0", "num_0", np.ones((32, 32)))
        with pytest.raises(QueryError):
            model.set_prior("num_0", "num_1", np.ones((4, 4)))
        with pytest.raises(QueryError):
            model.set_prior("num_0", "num_1", -np.ones((32, 32)))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, np.finfo(float).max])
    def test_non_finite_prior_rejected(self, dataset, bad):
        """NaN or inf entries, or finite ones whose total overflows."""
        model = Felip.ohg(dataset.schema)
        prior = np.ones((32, 32))
        prior[3:5, 5] = bad
        with pytest.raises(QueryError):
            model.set_prior("num_0", "num_1", prior)

    def test_prior_accepts_transposed_orientation(self, dataset):
        model = Felip.ohg(dataset.schema)
        prior = np.full((32, 32), 1 / (32 * 32))
        model.set_prior("num_1", "num_0", prior)  # reversed order is fine

    def test_prior_can_be_set_after_fit(self, dataset):
        model = Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=12)
        q = Query([between("num_0", 0, 15), between("num_1", 0, 15)])
        before = model.answer(q)
        model.set_prior("num_0", "num_1",
                        dataset.joint_marginal("num_0", "num_1"))
        after = model.answer(q)  # matrix cache invalidated, re-fit
        assert np.isfinite(after)


class TestMeanEstimation:
    def test_mean_tracks_truth(self, dataset):
        model = Felip.ohg(dataset.schema, epsilon=2.0).fit(dataset, rng=13)
        true_mean = float(dataset.column("num_0").mean())
        assert model.estimate_mean("num_0") == pytest.approx(true_mean,
                                                             abs=2.0)

    def test_mean_uses_decoded_units(self):
        from repro.data import ipums_like_dataset
        ds = ipums_like_dataset(20_000, numerical_domain=32, rng=14)
        model = Felip.ohg(ds.schema, epsilon=2.0).fit(ds, rng=15)
        age_mean = model.estimate_mean("age")
        # ages are decoded to [0, 100] years, not codes [0, 32)
        assert 20.0 < age_mean < 70.0

    def test_mean_of_categorical_rejected(self, dataset):
        model = Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=16)
        with pytest.raises(QueryError):
            model.estimate_mean("cat_0")


class TestStreaming:
    def test_streaming_matches_batch_quality(self, dataset):
        q = Query([between("num_0", 5, 20), between("num_1", 5, 20)])
        truth = q.true_answer(dataset)
        collector = StreamingCollector(dataset.schema,
                                       FelipConfig(epsilon=1.0),
                                       expected_users=dataset.n, rng=17)
        for start in range(0, dataset.n, 4_000):
            collector.observe(dataset.records[start:start + 4_000])
        estimate = collector.finalize().answer(q)
        assert estimate == pytest.approx(truth, abs=0.15)

    def test_estimates_sharpen_with_more_batches(self, dataset):
        q = Query([between("num_0", 5, 20)])
        truth = q.true_answer(dataset)
        errors = []
        for fraction in (0.1, 1.0):
            collector = StreamingCollector(dataset.schema,
                                           FelipConfig(epsilon=1.0),
                                           expected_users=dataset.n,
                                           rng=18)
            upto = int(dataset.n * fraction)
            collector.observe(dataset.records[:upto])
            per_seed = abs(collector.finalize().answer(q) - truth)
            errors.append(per_seed)
        # Not guaranteed per-draw, but 10x data should rarely be worse.
        assert errors[1] <= errors[0] + 0.05

    def test_finalize_before_observe_rejected(self, dataset):
        collector = StreamingCollector(dataset.schema, FelipConfig(),
                                       expected_users=100)
        with pytest.raises(ConfigurationError):
            collector.finalize()

    def test_bad_batch_shape_rejected(self, dataset):
        collector = StreamingCollector(dataset.schema, FelipConfig(),
                                       expected_users=100)
        with pytest.raises(ProtocolError):
            collector.observe(np.zeros((5, 99), dtype=np.int64))

    def test_budget_mode_rejected(self, dataset):
        with pytest.raises(ConfigurationError):
            StreamingCollector(dataset.schema,
                               FelipConfig(partition_mode="budget"),
                               expected_users=100)

    def test_non_integer_codes_rejected(self, dataset):
        """Codes are checked as a Dataset checks them, not truncated:
        a batch of fractional codes is refused and counts nothing."""
        collector = StreamingCollector(dataset.schema, FelipConfig(),
                                       expected_users=dataset.n, rng=5)
        with pytest.raises(ProtocolError, match="integer"):
            collector.observe(dataset.records[:2_000] + 0.7)
        assert collector.is_fresh()

    @pytest.mark.parametrize("code", [250.002, np.nan, np.inf, -np.inf])
    def test_near_integer_and_non_finite_codes_rejected(self, code):
        """A batch is checked exactly: one near-integer or non-finite code
        refuses it whole, with no cast warning, and the collector's
        count, states and generator stay as they were."""
        data = uniform_dataset(3_000, num_numerical=2, num_categorical=0,
                               numerical_domain=256, rng=6)
        collector = StreamingCollector(data.schema, FelipConfig(),
                                       expected_users=data.n, rng=5)
        collector.observe(data.records[:2_000])
        observed = collector.observed
        states = {key: (state.n, state.vector.tobytes())
                  for key, state in collector._states.items()}
        generator = collector._rng.bit_generator.state
        batch = data.records[2_000:].astype(np.float64)
        batch[7, 0] = code
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProtocolError, match="finite integer"):
                collector.observe(batch)
        assert collector.observed == observed
        assert {key: (state.n, state.vector.tobytes())
                for key, state in collector._states.items()} == states
        assert collector._rng.bit_generator.state == generator

    def test_integer_valued_float_codes_convert(self, dataset):
        batch = dataset.records[:4_000]
        models = []
        for codes in (batch, batch.astype(np.float64)):
            collector = StreamingCollector(dataset.schema, FelipConfig(),
                                           expected_users=dataset.n, rng=5)
            collector.observe(codes)
            models.append(collector.finalize())
        for plan in models[0].plans:
            assert models[1].estimate_for(plan.key).frequencies.tobytes() \
                == models[0].estimate_for(plan.key).frequencies.tobytes()


class TestMergeReports:
    """Two batches' folded states merge into one state of both."""

    def test_merge_grr(self):
        oracle = GeneralizedRandomizedResponse(1.0, 8)
        rng = np.random.default_rng(19)
        a = oracle.perturb(rng.integers(0, 8, 100), rng)
        b = oracle.perturb(rng.integers(0, 8, 50), rng)
        merged = merge_reports([oracle.fold(None, [a]),
                                oracle.fold(None, [b])])
        assert merged.n == 150
        assert merged.vector.tobytes() == \
            oracle.fold(None, [a, b]).vector.tobytes()

    def test_merge_olh(self):
        oracle = OptimizedLocalHashing(1.0, 8)
        rng = np.random.default_rng(20)
        a = oracle.perturb(rng.integers(0, 8, 4000), rng)
        b = oracle.perturb(rng.integers(0, 8, 2000), rng)
        merged = merge_reports([oracle.fold(None, [a]),
                                oracle.fold(None, [b])])
        assert merged.n == 6000
        assert merged.vector.tobytes() == \
            oracle.fold(None, [a, b]).vector.tobytes()
        estimates = oracle.unbias(merged)
        assert estimates.sum() == pytest.approx(1.0, abs=0.3)

    def test_merge_oue(self):
        oracle = OptimizedUnaryEncoding(1.0, 8)
        rng = np.random.default_rng(21)
        a = oracle.perturb(rng.integers(0, 8, 100), rng)
        b = oracle.perturb(rng.integers(0, 8, 50), rng)
        merged = merge_reports([oracle.fold(None, [a]),
                                oracle.fold(None, [b])])
        assert merged.n == 150
        assert merged.vector.tobytes() == \
            oracle.fold(None, [a, b]).vector.tobytes()

    def test_merge_empty_gives_none(self):
        assert merge_reports([]) is None

    def test_merge_mismatched_domains_rejected(self):
        a = GeneralizedRandomizedResponse(1.0, 8)
        b = GeneralizedRandomizedResponse(1.0, 9)
        rng = np.random.default_rng(22)
        ra = a.perturb(np.zeros(10, dtype=int), rng)
        rb = b.perturb(np.zeros(10, dtype=int), rng)
        with pytest.raises(ProtocolError):
            merge_reports([a.fold(None, [ra]), b.fold(None, [rb])])
