"""Plan→execute optimizer: equivalence, purity, pruning, sizing moments.

The load-bearing properties:

* **bit-identity** — ``answer_workload`` (which is
  ``execute_answer_plan(plan_answers(queries))``) returns answers
  *bit-identical* to a per-query oracle kept here,
  ``np.array([agg.answer(q) for q in queries])``, across every
  registered pinnable protocol and λ ∈ {1, 2, 3+}, materialized or not;
* **purity** — ``build_answer_plan`` is a pure function of
  (schema, queries, config): no fitted state, deterministic output;
* **pruning never changes answers** — materializing a workload-pruned
  pair subset yields bit-identical answers to exhaustive
  materialization-free answering (only latency changes);
* **bounded recording** — ``record_workload=True`` keeps running counts
  whose size depends on the workload's shape, not its length.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import Felip, FelipConfig, data
from repro.core.planner import plan_grids
from repro.errors import ConfigurationError, QueryError
from repro.fo.registry import pinnable_protocol_names
from repro.grids.sizing import SizingParams, plan_grid
from repro.estimation import SummedAreaTable
from repro.optimizer import (
    AttributeProfile,
    WorkloadSpec,
    build_answer_plan,
    expected_workload_error,
    plan_materialization,
)
from repro.queries.predicate import between
from repro.queries.query import Query
from repro.queries.workload import WorkloadSpec as RandomWorkload
from repro.queries.workload import random_workload
from repro.rng import ensure_rng


@pytest.fixture(scope="module")
def dataset():
    return data.normal_dataset(4000, rng=3)


@pytest.fixture(scope="module")
def mixed_workload(dataset):
    """Queries at λ = 1, 2, 3 and 4, interleaved across attribute sets."""
    rng = ensure_rng(11)
    queries = []
    for dim in (1, 2, 3, 4):
        queries += random_workload(
            dataset.schema,
            RandomWorkload(num_queries=6, dimension=dim, selectivity=0.4),
            rng)
    order = ensure_rng(5).permutation(len(queries))
    return [queries[i] for i in order]


def _fit(dataset, **overrides):
    with np.errstate(all="ignore"):
        return Felip(dataset.schema,
                     FelipConfig(epsilon=1.0, **overrides)).fit(dataset,
                                                                rng=7)


def assert_all_paths_equal(agg, queries):
    """``answer_workload`` is bit-identical to the per-query oracle (one
    ``answer`` call per query) and to executing the compiled plan."""
    batch = agg.answer_workload(queries)
    oracle = np.array([agg.answer(q) for q in queries])
    np.testing.assert_array_equal(batch, oracle)
    plan = agg.plan_answers(queries)
    np.testing.assert_array_equal(batch, agg.execute_answer_plan(plan))


class TestBitIdentity:
    @pytest.mark.parametrize("protocol", sorted(pinnable_protocol_names()))
    def test_all_paths_bit_identical_per_protocol(self, dataset,
                                                  mixed_workload, protocol):
        model = _fit(dataset, protocols=(protocol,))
        assert_all_paths_equal(model.aggregator, mixed_workload)

    @pytest.mark.parametrize("protocol", sorted(pinnable_protocol_names()))
    def test_all_paths_bit_identical_materialized(self, dataset,
                                                  mixed_workload, protocol):
        model = _fit(dataset, protocols=(protocol,)).materialize()
        assert_all_paths_equal(model.aggregator, mixed_workload)

    @pytest.mark.parametrize("strategy", ["oug", "ohg"])
    def test_bit_identical_after_materialize(self, dataset, mixed_workload,
                                             strategy):
        model = _fit(dataset, strategy=strategy).materialize()
        assert_all_paths_equal(model.aggregator, mixed_workload)

    def test_pruned_materialization_answers_unchanged(self, dataset,
                                                      mixed_workload):
        spec = WorkloadSpec.from_queries(mixed_workload, dataset.schema)
        full = _fit(dataset).materialize()
        pruned = _fit(dataset, workload=spec)
        mat_plan = pruned.aggregator.materialization_plan()
        pruned.materialize()
        done = pruned.aggregator.fit_diagnostics()["materialized_pairs"]
        assert done == sorted(mat_plan.pairs)
        assert np.array_equal(full.answer_workload(mixed_workload),
                              pruned.answer_workload(mixed_workload))


class TestAnswerPlanPurity:
    def test_pure_function_of_inputs(self, dataset, mixed_workload):
        config = FelipConfig(epsilon=1.0)
        first = build_answer_plan(dataset.schema, mixed_workload, config)
        second = build_answer_plan(dataset.schema, mixed_workload, config)
        assert first == second

    def test_no_fit_required(self, dataset, mixed_workload):
        model = Felip(dataset.schema, FelipConfig(epsilon=1.0))
        plan = model.plan_answers(mixed_workload)
        assert plan.num_queries == len(mixed_workload)

    def test_positions_partition_the_workload(self, dataset, mixed_workload):
        plan = build_answer_plan(dataset.schema, mixed_workload,
                                 FelipConfig(epsilon=1.0))
        positions = sorted(pos for node in plan.nodes
                           for pos in node.positions)
        assert positions == list(range(len(mixed_workload)))

    def test_nodes_carry_schema_ordered_predicates(self, dataset,
                                                   mixed_workload):
        plan = build_answer_plan(dataset.schema, mixed_workload,
                                 FelipConfig(epsilon=1.0))
        for node in plan.nodes:
            assert list(node.key) == sorted(node.key)
            assert len(node.predicates) == node.num_queries
            for pos, predicates in zip(node.positions, node.predicates):
                assert set(predicates) == set(mixed_workload[pos])
                assert tuple(dataset.schema.index_of(p.attribute)
                             for p in predicates) == node.key

    def test_invalid_query_rejected_at_plan_time(self, dataset):
        bad = Query([between("num_0", 0, 10 ** 6)])
        with pytest.raises(QueryError):
            build_answer_plan(dataset.schema, [bad],
                              FelipConfig(epsilon=1.0))

    def test_ohg_numerical_singles_use_1d_grid(self, dataset, monkeypatch):
        """OHG answers a numerical single from its 1-D grid; OUG, which
        has none, from the attribute's marginal — chosen at run time."""
        query = Query([q for q in random_workload(
            dataset.schema.subset(["num_0"]),
            RandomWorkload(num_queries=1, dimension=1, selectivity=0.3),
            ensure_rng(1))[0]])
        used = []
        for strategy in ("ohg", "oug"):
            agg = _fit(dataset, strategy=strategy).aggregator
            marginal = agg.marginal
            monkeypatch.setattr(
                agg, "marginal",
                lambda t, s=strategy, f=marginal: used.append(s) or f(t))
            agg.answer(query)
        assert used == ["oug"]

    def test_range_pairs_prefer_sat_when_materialized(self, dataset,
                                                      monkeypatch):
        queries = random_workload(
            dataset.schema.subset(["num_0", "num_1"]),
            RandomWorkload(num_queries=4, dimension=2, selectivity=0.3,
                           range_only=True), ensure_rng(2))
        lookups = []
        rectangle = SummedAreaTable.rectangle
        monkeypatch.setattr(
            SummedAreaTable, "rectangle",
            lambda sat, *bounds: lookups.append(len(bounds[0]))
            or rectangle(sat, *bounds))
        agg = _fit(dataset).aggregator
        agg.answer_workload(queries)
        assert lookups == []  # no table before materialize
        agg.materialize()
        agg.answer_workload(queries)
        assert lookups == [len(queries)]

    def test_plan_artifact_roundtrips_to_json(self, dataset, mixed_workload):
        import json
        plan = build_answer_plan(dataset.schema, mixed_workload,
                                 FelipConfig(epsilon=1.0))
        encoded = json.dumps(plan.as_dict())
        assert json.loads(encoded)["num_queries"] == len(mixed_workload)


class TestMaterializationPlanning:
    def test_legacy_exhaustive_without_workload(self, dataset):
        plan = plan_materialization(dataset.schema)
        assert plan.is_exhaustive
        assert list(plan.pairs) == dataset.schema.pairs()

    def test_zero_weight_pairs_pruned(self, dataset):
        spec = WorkloadSpec.declare({"num_0": 0.2, "num_1": 0.2},
                                    pair_weights={("num_0", "num_1"): 1.0})
        plan = plan_materialization(dataset.schema, workload=spec)
        i = dataset.schema.index_of("num_0")
        j = dataset.schema.index_of("num_1")
        assert plan.pairs == ((i, j),)
        assert len(plan.pruned) == len(dataset.schema.pairs()) - 1

    def test_budget_packs_by_benefit_per_byte(self, dataset):
        spec = WorkloadSpec.declare(
            {"num_0": 0.2, "num_1": 0.2, "cat_0": 0.2},
            pair_weights={("num_0", "num_1"): 0.5, ("cat_0", "num_0"): 0.5})
        unbounded = plan_materialization(dataset.schema, workload=spec)
        assert len(unbounded.pairs) == 2
        # num_0 x cat_0 is far smaller than num_0 x num_1 at equal
        # weight, so it wins the benefit-per-byte ranking under a budget
        # that only fits one of them.
        cheap = min(unbounded.pairs,
                    key=lambda p: dataset.schema.domain_sizes[p[0]]
                    * dataset.schema.domain_sizes[p[1]])
        budgeted = plan_materialization(dataset.schema, workload=spec,
                                        budget_bytes=20_000)
        assert budgeted.pairs == (cheap,)
        assert budgeted.estimated_bytes <= 20_000

    def test_negative_budget_rejected(self, dataset):
        with pytest.raises(ConfigurationError):
            plan_materialization(dataset.schema, budget_bytes=-1)


class TestWorkloadSpec:
    def test_declare_normalizes_and_defaults(self):
        spec = WorkloadSpec.declare({"a": 0.2, "b": {0.1: 1.0, 0.3: 3.0}})
        assert spec.attribute_weight("a") == pytest.approx(0.5)
        assert spec.selectivity_moments("b")[0] == pytest.approx(0.25)
        assert spec.lambda_weight(2) == 1.0
        assert spec.pair_weight("b", "a") == 1.0
        assert spec.selectivity_moments("missing") is None

    def test_harvest_matches_hand_count(self, dataset):
        queries = random_workload(
            dataset.schema,
            RandomWorkload(num_queries=30, dimension=2, selectivity=0.3),
            ensure_rng(4))
        spec = WorkloadSpec.from_queries(queries, dataset.schema)
        assert spec.total_queries == 30
        assert spec.lambda_weight(2) == 1.0
        assert sum(spec.pair_weights.values()) == pytest.approx(1.0)
        assert sum(p.weight for p in spec.attributes.values()) == \
            pytest.approx(1.0)

    def test_harvest_rejects_empty(self, dataset):
        with pytest.raises(QueryError):
            WorkloadSpec.from_queries([], dataset.schema)

    def test_invalid_histogram_rejected(self):
        with pytest.raises(ConfigurationError):
            AttributeProfile(weight=0.5, histogram=((1.5, 1.0),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec.declare({"a": 0.3}, lambda_weights={0: 1.0})

    def test_recorded_workload_roundtrip(self, dataset, mixed_workload):
        model = _fit(dataset, record_workload=True)
        with np.errstate(all="ignore"):
            model.answer_workload(mixed_workload)
        spec = model.recorded_workload()
        direct = WorkloadSpec.from_queries(mixed_workload, dataset.schema)
        assert spec == direct

    def test_recording_is_bounded_by_workload_shape(self, dataset):
        pool = []
        for dim in (1, 2):
            pool += random_workload(
                dataset.schema,
                RandomWorkload(num_queries=25, dimension=dim,
                               selectivity=0.4), ensure_rng(dim))
        model = _fit(dataset, record_workload=True)
        model.answer_workload(pool)
        counts = model.aggregator._recorded
        entries, once = len(counts), model.recorded_workload()
        for _ in range(199):
            model.answer_workload(pool)
        assert len(counts) == entries
        many = model.recorded_workload()
        assert many.total_queries == 200 * len(pool)
        assert replace(many, total_queries=once.total_queries) == once

    def test_recording_off_raises(self, dataset):
        model = _fit(dataset)
        with pytest.raises(QueryError):
            model.recorded_workload()


class TestWorkloadSizing:
    def test_point_mass_moments_reproduce_legacy_sizes(self):
        params = SizingParams(epsilon=1.0, n=100_000, m=16,
                              alpha1=0.7, alpha2=0.03)
        for r in (0.1, 0.5, 0.9):
            legacy = plan_grid(64, True, r, params)
            point = plan_grid(64, True, r, params, moments_x=(r, r * r))
            assert (legacy.lx, legacy.protocol) == (point.lx, point.protocol)
            legacy2 = plan_grid(64, True, r, params, domain_y=64,
                                numerical_y=True, r_y=r)
            point2 = plan_grid(64, True, r, params, domain_y=64,
                               numerical_y=True, r_y=r,
                               moments_x=(r, r * r), moments_y=(r, r * r))
            assert (legacy2.lx, legacy2.ly) == (point2.lx, point2.ly)

    def test_spread_histogram_changes_plan(self, dataset):
        spec = WorkloadSpec.declare({"num_0": {0.02: 0.9, 0.9: 0.1}})
        blind = FelipConfig(epsilon=1.0)
        aware = FelipConfig(epsilon=1.0, workload=spec)
        blind_sizes = {p.key: p.num_cells
                       for p in plan_grids(dataset.schema, blind, 100_000)}
        aware_sizes = {p.key: p.num_cells
                       for p in plan_grids(dataset.schema, aware, 100_000)}
        assert blind_sizes != aware_sizes

    def test_aware_plan_scores_no_worse_under_spec(self, dataset):
        spec = WorkloadSpec.declare(
            {"num_0": {0.05: 0.7, 0.6: 0.3}, "num_1": 0.1},
            lambda_weights={1: 0.3, 2: 0.7},
            pair_weights={("num_0", "num_1"): 1.0})
        n = 50_000
        blind_cfg = FelipConfig(epsilon=1.0)
        aware_cfg = FelipConfig(epsilon=1.0, workload=spec)
        params = None
        scores = {}
        for name, cfg in (("blind", blind_cfg), ("aware", aware_cfg)):
            plans = plan_grids(dataset.schema, cfg, n)
            params = SizingParams(epsilon=1.0, n=n, m=len(plans),
                                  alpha1=cfg.alpha1, alpha2=cfg.alpha2)
            scores[name] = expected_workload_error(
                plans, dataset.schema, params, workload=spec)
        assert scores["aware"] <= scores["blind"]
