"""The one-pass λ ≥ 3 sign-table construction against its per-node oracle.

``Aggregator._lambda_tables`` groups every (query, pair position) request
of a batch by the schema pair it reads and makes one summed-area and one
matmul call per group. ``tests/answer_reference.py`` keeps the per-node,
per-pair construction it replaced. The tables, the answers and the λ-IPF
counters must equal the oracle byte for byte for every pinnable protocol
under both strategies, with no, subset and full materialization, on
mixed λ ∈ {3, 4, 5} batches whose nodes share schema pairs and mix
BETWEEN with IN predicates (also IN on numerical attributes, so one
materialized pair serves both paths in one group).
"""

import numpy as np
import pytest

from repro import Felip, FelipConfig, data
from repro.errors import EstimationError
from repro.estimation import SummedAreaTable, pair_answers_tables
from repro.fo.registry import pinnable_protocol_names
from repro.queries.predicate import between, isin
from repro.queries.query import Query
from repro.queries.workload import WorkloadSpec, random_workload

from tests.answer_reference import (
    lambda_answers_reference,
    lambda_tables_reference,
    matrix_tables_reference,
    sign_tables_reference,
)

#: materialized pair subsets: a numerical pair (summed-area lookups),
#: a numerical x categorical pair (materialized, but its requests are
#: never BETWEEN x BETWEEN) and a categorical pair
SUBSET = [(0, 1), (1, 3), (3, 4)]


@pytest.fixture(scope="module")
def dataset():
    return data.normal_dataset(3000, num_numerical=3, num_categorical=2,
                               numerical_domain=32, categorical_domain=6,
                               rng=3)


@pytest.fixture(scope="module")
def workload(dataset):
    """Mixed λ ∈ {1, ..., 5} in random order, plus λ ≥ 3 queries that
    all read pair (num_0, num_1), some of them through IN predicates."""
    schema = dataset.schema
    rng = np.random.default_rng(17)
    queries = []
    for dim in (1, 2, 3, 4, 5, 3, 4):
        queries += random_workload(
            schema, WorkloadSpec(num_queries=4, dimension=dim,
                                 selectivity=0.4), rng)
    queries += [
        Query([between("num_0", 3, 20), between("num_1", 0, 9),
               between("num_2", 10, 31)]),
        Query([isin("num_0", [1, 5, 7, 30]), between("num_1", 2, 20),
               isin("cat_0", [0, 2])]),
        Query([between("num_0", 0, 31), isin("num_1", [4]),
               between("num_2", 5, 5), isin("cat_1", [1, 3, 5])]),
        Query([between("num_0", 7, 7), between("num_1", 8, 30),
               isin("cat_0", [5]), isin("cat_1", [0, 1, 2, 3, 4, 5])]),
        Query([isin("num_0", [0]), isin("num_1", [31]),
               between("num_2", 0, 31), isin("cat_0", [1, 2]),
               isin("cat_1", [2])]),
    ]
    order = np.random.default_rng(5).permutation(len(queries))
    return [queries[i] for i in order]


def _high_nodes(aggregator, queries):
    nodes = [node for node in aggregator.plan_answers(queries).nodes
             if len(node.key) >= 3]
    assert {len(node.key) for node in nodes} == {3, 4, 5}
    return nodes


def _check_against_reference(aggregator, queries):
    nodes = _high_nodes(aggregator, queries)
    got = aggregator._lambda_tables(nodes)
    expected = lambda_tables_reference(aggregator, nodes)
    assert list(got) == list(expected)
    for dimension, (positions, tables) in expected.items():
        assert got[dimension][0] == positions
        assert got[dimension][1].shape == tables.shape
        assert got[dimension][1].tobytes() == tables.tobytes()

    answers, counts = lambda_answers_reference(aggregator, nodes)
    before = aggregator.fit_diagnostics()["lambda_queries"]
    batch = aggregator.answer_workload(queries)
    after = aggregator.fit_diagnostics()["lambda_queries"]
    positions = sorted(answers)
    assert (batch[positions].tobytes()
            == np.array([answers[p] for p in positions]).tobytes())
    for name in ("queries", "non_converged", "total_sweeps"):
        assert after[name] == before[name] + counts[name]
    assert after["max_sweeps"] == max(before["max_sweeps"],
                                      counts["max_sweeps"])
    single = np.array([aggregator.answer(q) for q in queries])
    assert batch.tobytes() == single.tobytes()


@pytest.mark.parametrize("strategy", ["oug", "ohg"])
@pytest.mark.parametrize("protocol", sorted(pinnable_protocol_names()))
def test_one_pass_matches_per_node_reference(dataset, workload, protocol,
                                             strategy):
    with np.errstate(all="ignore"):
        model = Felip(dataset.schema,
                      FelipConfig(epsilon=1.0, protocols=(protocol,),
                                  strategy=strategy)).fit(dataset, rng=7)
    aggregator = model.aggregator
    _check_against_reference(aggregator, workload)  # nothing materialized
    model.materialize(pairs=SUBSET)
    assert aggregator.fit_diagnostics()["materialized_pairs"] == SUBSET
    _check_against_reference(aggregator, workload)
    model.materialize()
    _check_against_reference(aggregator, workload)


def test_requests_grouped_by_schema_pair(dataset, workload, monkeypatch):
    """One ``_pair_tables`` call per schema pair the batch reads, each
    with every request on that pair."""
    model = Felip.ohg(dataset.schema, epsilon=1.0).fit(dataset, rng=7)
    aggregator = model.materialize().aggregator
    nodes = _high_nodes(aggregator, workload)
    expected = {}
    for node in nodes:
        k = len(node.key)
        for a in range(k):
            for b in range(a + 1, k):
                pair = (node.key[a], node.key[b])
                expected[pair] = expected.get(pair, 0) + node.num_queries
    calls = []
    original = type(aggregator)._pair_tables

    def spy(self, ti, tj, preds_i, preds_j):
        calls.append(((ti, tj), len(preds_i)))
        return original(self, ti, tj, preds_i, preds_j)

    monkeypatch.setattr(type(aggregator), "_pair_tables", spy)
    aggregator.answer_workload(workload)
    assert dict(calls) == expected
    assert len(calls) == len(expected)


class TestSignTables:
    """``SummedAreaTable.sign_tables`` checks its bounds once and gathers
    its corners once; both must behave as the three lookups did."""

    ROWS, COLS = 6, 5

    def _sat(self):
        rng = np.random.default_rng(4)
        return SummedAreaTable(rng.dirichlet(np.ones(30)).reshape(6, 5))

    def test_matches_three_lookup_reference(self):
        sat = self._sat()
        rng = np.random.default_rng(8)
        r = np.sort(rng.integers(0, self.ROWS, size=(40, 2)), axis=1)
        c = np.sort(rng.integers(0, self.COLS, size=(40, 2)), axis=1)
        r[0], c[0] = (0, self.ROWS - 1), (0, self.COLS - 1)
        args = (r[:, 0], r[:, 1], c[:, 0], c[:, 1])
        got = sat.sign_tables(*args)
        assert got.tobytes() == sign_tables_reference(sat, *args).tobytes()
        scalar = sat.sign_tables(1, 3, 2, 2)
        assert scalar.shape == (1, 2, 2)
        assert scalar.tobytes() == sign_tables_reference(
            sat, 1, 3, 2, 2).tobytes()

    @pytest.mark.parametrize("violation", [
        "r0 < 0", "r1 >= rows", "r0 > r1",
        "c0 < 0", "c1 >= cols", "c0 > c1"])
    def test_each_bound_violation_raises(self, violation):
        sat = self._sat()
        r0, r1 = np.array([0, 1, 2]), np.array([2, 3, 5])
        c0, c1 = np.array([0, 1, 2]), np.array([1, 4, 4])
        sat.sign_tables(r0, r1, c0, c1)  # in bounds
        bad = {"r0 < 0": (r0, -1), "r1 >= rows": (r1, self.ROWS),
               "r0 > r1": (r0, 4), "c0 < 0": (c0, -1),
               "c1 >= cols": (c1, self.COLS), "c0 > c1": (c0, 5)}
        array, value = bad[violation]
        array[1] = value
        with pytest.raises(EstimationError):
            sat.sign_tables(r0, r1, c0, c1)


def test_clipped_tables_match_reference():
    """Negative matrix entries push cells below 0: clipping and the
    rescale to the matrix total must match the reference bit for bit,
    also for empty indicators and for a matrix of total 0 (no rescale)."""
    rng = np.random.default_rng(6)
    matrix = rng.normal(0.02, 0.05, size=(7, 4))
    ind_i = (rng.random((30, 7)) < 0.5).astype(float)
    ind_j = (rng.random((30, 4)) < 0.5).astype(float)
    ind_i[0], ind_j[0] = 0.0, 0.0
    got = pair_answers_tables(matrix, ind_i, ind_j)
    expected = matrix_tables_reference(matrix, ind_i, ind_j)
    assert got.tobytes() == expected.tobytes()
    assert np.isclose(got.sum(axis=(1, 2))[1:], matrix.sum()).all()
    flat = np.zeros((7, 4))
    assert (pair_answers_tables(flat, ind_i, ind_j).tobytes()
            == matrix_tables_reference(flat, ind_i, ind_j).tobytes())
