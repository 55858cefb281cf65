"""Tests for the FELIP config, planner, and partitioning."""

import numpy as np
import pytest

from repro.core import FelipConfig, partition_users, plan_grids
from repro.core import planner
from repro.core.partition import group_sizes
from repro.errors import ConfigurationError
from repro.grids import Grid1D, Grid2D
from repro.grids.sizing import SizingParams, plan_grid
from repro.optimizer import WorkloadSpec
from repro.schema import Schema
from repro.schema.attribute import categorical, numerical


class TestFelipConfig:
    def test_defaults(self):
        config = FelipConfig()
        assert config.strategy == "ohg"
        assert config.protocols == ("grr", "olh")
        assert config.uses_1d_grids

    def test_oug_has_no_1d_grids(self):
        assert not FelipConfig(strategy="oug").uses_1d_grids

    def test_selectivity_override_lookup(self):
        config = FelipConfig(expected_selectivity=0.5,
                             selectivity_overrides={"age": 0.1})
        assert config.selectivity_for("age") == 0.1
        assert config.selectivity_for("income") == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0},
        {"strategy": "both"},
        {"protocols": ()},
        {"protocols": ("rappor",)},
        {"expected_selectivity": 0.0},
        {"expected_selectivity": 1.5},
        {"selectivity_overrides": {"a": 2.0}},
        {"postprocess_rounds": -1},
        {"response_matrix_max_iters": 0},
        {"lambda_max_iters": 0},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            FelipConfig(**kwargs)


class TestPartition:
    def test_group_sizes_near_equal(self):
        sizes = group_sizes(10, 3)
        np.testing.assert_array_equal(sizes, [4, 3, 3])
        assert sizes.sum() == 10

    def test_group_sizes_exact_division(self):
        np.testing.assert_array_equal(group_sizes(9, 3), [3, 3, 3])

    def test_partition_users_covers_population(self):
        labels = partition_users(100, 7, rng=1)
        assert len(labels) == 100
        counts = np.bincount(labels, minlength=7)
        assert counts.max() - counts.min() <= 1

    def test_more_groups_than_users(self):
        labels = partition_users(3, 10, rng=1)
        counts = np.bincount(labels, minlength=10)
        assert counts.sum() == 3 and counts.max() == 1

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            group_sizes(-1, 3)
        with pytest.raises(ConfigurationError):
            group_sizes(5, 0)


class TestPlanGrids:
    @pytest.fixture
    def schema(self):
        return Schema([
            numerical("x", 64),
            numerical("y", 128),
            categorical("c", 4),
        ])

    def test_ohg_grid_set(self, schema):
        plans = plan_grids(schema, FelipConfig(strategy="ohg"), n=100_000)
        keys = [p.key for p in plans]
        # 1-D grids for the two numerical attributes, then all pairs.
        assert keys == [(0,), (1,), (0, 1), (0, 2), (1, 2)]
        assert isinstance(plans[0].grid, Grid1D)
        assert isinstance(plans[2].grid, Grid2D)

    def test_oug_grid_set(self, schema):
        plans = plan_grids(schema, FelipConfig(strategy="oug"), n=100_000)
        assert [p.key for p in plans] == [(0, 1), (0, 2), (1, 2)]

    def test_categorical_axes_never_binned(self, schema):
        plans = plan_grids(schema, FelipConfig(), n=100_000)
        by_key = {p.key: p for p in plans}
        grid = by_key[(0, 2)].grid
        assert grid.binning_y.is_trivial
        assert grid.binning_y.num_cells == 4

    def test_numerical_axes_are_binned(self, schema):
        plans = plan_grids(schema, FelipConfig(), n=100_000)
        by_key = {p.key: p for p in plans}
        grid = by_key[(0, 1)].grid
        assert grid.binning_x.num_cells < 64
        assert grid.binning_y.num_cells < 128

    def test_per_grid_sizes_differ_with_domains(self):
        # FELIP's per-grid sizing: attributes with very different domains
        # should not be forced to one granularity.
        schema = Schema([numerical("small", 8), numerical("big", 1024),
                         numerical("mid", 64)])
        plans = plan_grids(schema, FelipConfig(strategy="ohg"), n=500_000)
        one_d = {p.key[0]: p.grid.num_cells for p in plans
                 if isinstance(p.grid, Grid1D)}
        assert one_d[0] <= 8
        assert one_d[1] > one_d[0]

    def test_shared_granularity_mode(self, schema):
        config = FelipConfig(strategy="ohg", protocols=("olh",),
                             shared_granularity=True,
                             power_of_two_granularity=True)
        plans = plan_grids(schema, config, n=100_000)
        sizes_1d = {p.grid.num_cells for p in plans
                    if isinstance(p.grid, Grid1D)}
        assert len(sizes_1d) == 1
        g1 = sizes_1d.pop()
        assert g1 & (g1 - 1) == 0  # power of two
        for p in plans:
            assert p.protocol == "olh"

    def test_cell_variance_recorded(self, schema):
        plans = plan_grids(schema, FelipConfig(), n=100_000)
        for p in plans:
            assert p.cell_variance > 0

    def test_single_attribute_schema_plans_own_1d_grid(self):
        # No pairs exist, so the plan degenerates to the attribute's own
        # 1-D grid (this is what single-attribute marginals read from).
        schema = Schema([numerical("x", 8)])
        plans = plan_grids(schema, FelipConfig(), n=1000)
        assert len(plans) == 1
        assert isinstance(plans[0].grid, Grid1D)
        assert plans[0].key == (0,)

    def test_single_categorical_attribute_plans_full_domain(self):
        schema = Schema([categorical("c", 6)])
        plans = plan_grids(schema, FelipConfig(), n=1000)
        assert len(plans) == 1
        assert plans[0].grid.num_cells == 6

    def test_invalid_n(self, schema):
        with pytest.raises(ConfigurationError):
            plan_grids(schema, FelipConfig(), n=0)

    def test_plan_order_is_deterministic(self, schema):
        a = plan_grids(schema, FelipConfig(), n=100_000)
        b = plan_grids(schema, FelipConfig(), n=100_000)
        assert [p.key for p in a] == [p.key for p in b]
        assert [p.num_cells for p in a] == [p.num_cells for p in b]


class TestPlanSolvesEachProblemOnce:
    """``plan_grids`` sizes each distinct (domains, kinds, selectivities,
    moments) problem once per plan; the plans equal what one
    ``plan_grid`` call per grid gives."""

    BENCH = Schema([*(numerical(f"num_{t}", 256) for t in range(4)),
                    categorical("cat_0", 16), categorical("cat_1", 16)])
    DISTINCT = Schema([numerical("a", 32), numerical("b", 50),
                       categorical("c", 3), categorical("d", 5)])

    @staticmethod
    def _problem(config, attrs):
        return tuple((a.domain_size, a.is_numerical,
                      config.selectivity_for(a.name),
                      config.selectivity_moments_for(a.name))
                     for a in attrs)

    @pytest.mark.parametrize("schema, config", [
        (BENCH, FelipConfig(epsilon=4.0)),
        (DISTINCT, FelipConfig(epsilon=1.0)),
        (BENCH, FelipConfig(epsilon=2.0,
                            selectivity_overrides={"num_1": 0.2})),
        (BENCH, FelipConfig(epsilon=1.0, workload=WorkloadSpec.declare(
            {"num_0": {0.05: 0.7, 0.6: 0.3}, "cat_1": 0.25}))),
    ], ids=["bench", "distinct", "overrides", "workload"])
    def test_one_solve_per_distinct_problem(self, schema, config,
                                            monkeypatch):
        n = 4_000_000
        solves = []

        def spy(*args, **kwargs):
            solves.append(args)
            return plan_grid(*args, **kwargs)

        monkeypatch.setattr(planner, "plan_grid", spy)
        plans = plan_grids(schema, config, n)
        problems = {self._problem(config, [schema[t] for t in p.key])
                    for p in plans}
        assert len(solves) == len(problems)
        params = SizingParams(epsilon=config.epsilon, n=n, m=len(plans),
                              alpha1=config.alpha1, alpha2=config.alpha2)
        for plan in plans:
            (dx, nx, rx, mx), *rest = self._problem(
                config, [schema[t] for t in plan.key])
            dy, ny, ry, my = rest[0] if rest else (None, False, 1.0, None)
            alone = plan_grid(dx, nx, rx, params, domain_y=dy,
                              numerical_y=ny, r_y=ry,
                              protocols=config.protocols, moments_x=mx,
                              moments_y=my)
            assert plan.protocol == alone.protocol
            assert plan.predicted_error == alone.predicted_error
            shape = (plan.grid.shape if isinstance(plan.grid, Grid2D)
                     else (plan.grid.binning.num_cells,))
            cells = [max(1, min(alone.lx, dx))] + (
                [max(1, min(alone.ly, dy))] if rest else [])
            assert shape == tuple(cells)
            assert plan.cell_variance == params.cell_variance(
                alone.protocol, plan.num_cells)

    def test_bench_schema_repeats_fifteen_of_nineteen(self, monkeypatch):
        solves = []
        monkeypatch.setattr(planner, "plan_grid",
                            lambda *a, **k: solves.append(a)
                            or plan_grid(*a, **k))
        assert len(plan_grids(self.BENCH, FelipConfig(epsilon=4.0),
                              4_000_000)) == 19
        assert len(solves) == 4
