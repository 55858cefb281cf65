"""Tests for the client/aggregator pipeline and the Felip facade."""

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core.client import collect_reports
from repro.core.planner import plan_grids
from repro.core.server import Aggregator
from repro.data import Dataset, uniform_dataset
from repro.errors import NotFittedError, ProtocolError, QueryError
from repro.queries import Query, between, isin
from repro.schema import Schema
from repro.schema.attribute import categorical, numerical


@pytest.fixture
def small_dataset():
    return uniform_dataset(8_000, num_numerical=2, num_categorical=1,
                           numerical_domain=16, categorical_domain=3,
                           rng=5)


class TestCollectReports:
    def test_one_report_batch_per_grid(self, small_dataset):
        config = FelipConfig(epsilon=1.0)
        plans = plan_grids(small_dataset.schema, config, small_dataset.n)
        assignment = np.arange(small_dataset.n) % len(plans)
        reports = collect_reports(small_dataset.records, assignment,
                                  plans, 1.0, rng=1)
        assert len(reports) == len(plans)
        for group in reports:
            assert group.group_size > 0
            assert group.report is not None
            assert group.report.n == group.group_size

    def test_empty_group_yields_none_report(self, small_dataset):
        config = FelipConfig(epsilon=1.0)
        plans = plan_grids(small_dataset.schema, config, small_dataset.n)
        assignment = np.zeros(small_dataset.n, dtype=np.int64)
        reports = collect_reports(small_dataset.records, assignment,
                                  plans, 1.0, rng=1)
        assert reports[0].report is not None
        assert all(r.report is None for r in reports[1:])

    def test_mismatched_assignment_rejected(self, small_dataset):
        config = FelipConfig(epsilon=1.0)
        plans = plan_grids(small_dataset.schema, config, small_dataset.n)
        with pytest.raises(ProtocolError):
            collect_reports(small_dataset.records,
                            np.zeros(10, dtype=np.int64), plans, 1.0)

    def test_out_of_range_group_rejected(self, small_dataset):
        config = FelipConfig(epsilon=1.0)
        plans = plan_grids(small_dataset.schema, config, small_dataset.n)
        bad = np.full(small_dataset.n, len(plans), dtype=np.int64)
        with pytest.raises(ProtocolError):
            collect_reports(small_dataset.records, bad, plans, 1.0)

    @pytest.mark.parametrize("label", [-256, -65536])
    def test_negative_label_does_not_wrap_into_range(self, small_dataset,
                                                     label):
        """Labels narrow to one or two bytes only after their range is
        checked: as uint8 or uint16 these would read as group 0."""
        config = FelipConfig(epsilon=1.0)
        plans = plan_grids(small_dataset.schema, config, small_dataset.n)
        bad = np.arange(small_dataset.n) % len(plans)
        bad[5] = label
        with pytest.raises(ProtocolError, match="outside"):
            collect_reports(small_dataset.records, bad, plans, 1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_assignment_rejected(self, small_dataset, dtype):
        """A float assignment is not truncated and a boolean one is not
        read as groups 0 and 1: both raise, naming the dtype."""
        config = FelipConfig(epsilon=1.0)
        plans = plan_grids(small_dataset.schema, config, small_dataset.n)
        assignment = (np.arange(small_dataset.n) % 2).astype(dtype)
        with pytest.raises(ProtocolError, match=np.dtype(dtype).name):
            collect_reports(small_dataset.records, assignment, plans, 1.0)


class TestAggregator:
    def test_fit_populates_estimates(self, small_dataset):
        agg = Aggregator(small_dataset.schema, FelipConfig())
        agg.fit(small_dataset, rng=2)
        for plan in agg.plans:
            est = agg.estimate_for(plan.key)
            assert (est.frequencies >= 0).all()
            assert est.frequencies.sum() == pytest.approx(1.0)

    def test_answer_before_fit_raises(self, small_dataset):
        agg = Aggregator(small_dataset.schema, FelipConfig())
        with pytest.raises(NotFittedError):
            agg.answer(Query([between("num_0", 0, 5)]))
        with pytest.raises(NotFittedError):
            agg.response_matrix(0, 1)

    def test_schema_mismatch_rejected(self, small_dataset):
        other = Schema([numerical("z", 4), numerical("w", 4)])
        agg = Aggregator(other, FelipConfig())
        with pytest.raises(QueryError):
            agg.fit(small_dataset)

    def test_response_matrix_shape_and_cache(self, small_dataset):
        agg = Aggregator(small_dataset.schema, FelipConfig()).fit(
            small_dataset, rng=3)
        m = agg.response_matrix(0, 1)
        assert m.shape == (16, 16)
        assert agg.response_matrix(0, 1) is m  # cached
        with pytest.raises(QueryError):
            agg.response_matrix(1, 0)

    def test_unknown_grid_key(self, small_dataset):
        agg = Aggregator(small_dataset.schema, FelipConfig()).fit(
            small_dataset, rng=3)
        with pytest.raises(QueryError):
            agg.estimate_for((9, 9))

    def test_marginal_sums_to_one(self, small_dataset):
        agg = Aggregator(small_dataset.schema, FelipConfig()).fit(
            small_dataset, rng=4)
        marginal = agg.marginal("num_0")
        assert len(marginal) == 16
        assert marginal.sum() == pytest.approx(1.0, abs=0.01)

    def test_single_attribute_marginal_and_mean(self):
        # Regression: marginal()/estimate_mean() used to crash with
        # IndexError on single-attribute schemas (no partner attribute to
        # build a response matrix from); they now read the attribute's own
        # 1-D grid estimate.
        schema = Schema([numerical("x", 32, lo=0.0, hi=32.0)])
        rng = np.random.default_rng(6)
        ds = Dataset(schema, rng.integers(0, 32, size=(6_000, 1)))
        agg = Aggregator(schema, FelipConfig(epsilon=2.0)).fit(ds, rng=7)
        marginal = agg.marginal("x")
        assert marginal.shape == (32,)
        assert marginal.sum() == pytest.approx(1.0, abs=0.05)
        mean = agg.estimate_mean("x")
        assert mean == pytest.approx(15.5 + 0.5, abs=3.0)

    def test_single_categorical_attribute_marginal(self):
        schema = Schema([categorical("c", 4)])
        rng = np.random.default_rng(8)
        ds = Dataset(schema, rng.integers(0, 4, size=(5_000, 1)))
        agg = Aggregator(schema, FelipConfig(epsilon=2.0)).fit(ds, rng=9)
        marginal = agg.marginal(0)
        assert marginal.shape == (4,)
        assert marginal.sum() == pytest.approx(1.0, abs=0.05)

    def test_single_predicate_answers(self, small_dataset):
        agg = Aggregator(small_dataset.schema, FelipConfig()).fit(
            small_dataset, rng=5)
        q = Query([between("num_0", 0, 7)])
        answer = agg.answer(q)
        assert answer == pytest.approx(0.5, abs=0.1)
        q_cat = Query([isin("cat_0", [0])])
        assert agg.answer(q_cat) == pytest.approx(1 / 3, abs=0.1)

    def test_answers_are_non_negative(self, small_dataset):
        agg = Aggregator(small_dataset.schema, FelipConfig()).fit(
            small_dataset, rng=6)
        q = Query([between("num_0", 0, 0), between("num_1", 0, 0),
                   isin("cat_0", [2])])
        assert agg.answer(q) >= 0.0


class TestFelipFacade:
    def test_named_constructors(self, small_dataset):
        schema = small_dataset.schema
        assert Felip.oug(schema).config.strategy == "oug"
        assert Felip.ohg(schema).config.strategy == "ohg"
        assert Felip.oug_olh(schema).config.protocols == ("olh",)
        assert Felip.ohg_olh(schema).config.protocols == ("olh",)

    def test_overrides_via_kwargs(self, small_dataset):
        model = Felip.ohg(small_dataset.schema, epsilon=2.0,
                          expected_selectivity=0.3)
        assert model.config.epsilon == 2.0
        assert model.config.expected_selectivity == 0.3

    def test_fit_returns_self(self, small_dataset):
        model = Felip.ohg(small_dataset.schema)
        assert model.fit(small_dataset, rng=7) is model

    def test_answer_workload_matches_answers(self, small_dataset):
        model = Felip.ohg(small_dataset.schema).fit(small_dataset, rng=8)
        queries = [Query([between("num_0", 0, 7)]),
                   Query([between("num_1", 4, 12), isin("cat_0", [1])])]
        batch = model.answer_workload(queries)
        singles = [model.answer(q) for q in queries]
        np.testing.assert_allclose(batch, singles)

    def test_repr_mentions_strategy(self, small_dataset):
        assert "ohg" in repr(Felip.ohg(small_dataset.schema))

    def test_accuracy_on_2d_queries(self, small_dataset):
        model = Felip.ohg(small_dataset.schema, epsilon=2.0).fit(
            small_dataset, rng=9)
        q = Query([between("num_0", 0, 7), between("num_1", 0, 7)])
        true = q.true_answer(small_dataset)
        assert model.answer(q) == pytest.approx(true, abs=0.08)

    def test_lambda_3_query_accuracy(self, small_dataset):
        model = Felip.ohg(small_dataset.schema, epsilon=2.0).fit(
            small_dataset, rng=10)
        q = Query([between("num_0", 0, 7), between("num_1", 0, 7),
                   isin("cat_0", [0, 1])])
        true = q.true_answer(small_dataset)
        assert model.answer(q) == pytest.approx(true, abs=0.1)

    def test_grid_plans_property(self, small_dataset):
        model = Felip.ohg(small_dataset.schema).fit(small_dataset, rng=11)
        assert len(model.grid_plans) == 2 + 3  # two 1-D + three pairs
