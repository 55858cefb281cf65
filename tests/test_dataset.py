"""Tests for repro.data.dataset."""

import warnings

import numpy as np
import pytest

from repro.data import Dataset
from repro.errors import DataError
from repro.schema import Schema
from repro.schema.attribute import categorical, numerical


@pytest.fixture
def tiny_schema():
    return Schema([numerical("x", 4), categorical("c", 3)])


class TestConstruction:
    def test_basic(self, tiny_schema):
        ds = Dataset(tiny_schema, np.array([[0, 0], [3, 2]]))
        assert ds.n == 2 and ds.k == 2
        assert len(ds) == 2

    def test_float_records_that_are_integers_accepted(self, tiny_schema):
        ds = Dataset(tiny_schema, np.array([[1.0, 2.0]]))
        assert ds.records.dtype == np.int64

    def test_fractional_floats_rejected(self, tiny_schema):
        with pytest.raises(DataError):
            Dataset(tiny_schema, np.array([[1.5, 2.0]]))

    @pytest.mark.parametrize("code", [250.002, np.nan, np.inf, -np.inf])
    def test_near_integer_and_non_finite_floats_rejected(self, code):
        """The float test is exact: no tolerance rounds 250.002 to 250,
        and NaN and ±inf are refused before any cast can warn."""
        schema = Schema([numerical("x", 256), categorical("c", 3)])
        records = np.array([[250.0, 1.0], [code, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="finite integer"):
                Dataset(schema, records)

    def test_large_integer_valued_floats_accepted(self):
        schema = Schema([numerical("x", 256), categorical("c", 3)])
        ds = Dataset(schema, np.array([[250.0, 1.0], [255.0, -0.0]]))
        np.testing.assert_array_equal(ds.records, [[250, 1], [255, 0]])
        assert ds.records.dtype == np.int64

    def test_out_of_domain_codes_rejected(self, tiny_schema):
        with pytest.raises(DataError):
            Dataset(tiny_schema, np.array([[4, 0]]))
        with pytest.raises(DataError):
            Dataset(tiny_schema, np.array([[0, -1]]))

    def test_wrong_column_count_rejected(self, tiny_schema):
        with pytest.raises(DataError):
            Dataset(tiny_schema, np.array([[0, 0, 0]]))

    def test_one_dim_records_rejected(self, tiny_schema):
        with pytest.raises(DataError):
            Dataset(tiny_schema, np.array([0, 1]))

    def test_empty_dataset_allowed(self, tiny_schema):
        ds = Dataset(tiny_schema, np.empty((0, 2), dtype=np.int64))
        assert ds.n == 0

    def test_string_dtype_rejected(self, tiny_schema):
        with pytest.raises(DataError):
            Dataset(tiny_schema, np.array([["a", "b"]]))


class TestViews:
    def test_column_by_name_and_index(self, mixed_dataset):
        assert (mixed_dataset.column("age")
                == mixed_dataset.column(0)).all()

    def test_sample_without_replacement(self, mixed_dataset):
        sub = mixed_dataset.sample(100, rng=1)
        assert sub.n == 100
        assert sub.schema == mixed_dataset.schema

    def test_sample_too_large_rejected(self, mixed_dataset):
        with pytest.raises(DataError):
            mixed_dataset.sample(mixed_dataset.n + 1, rng=1)

    def test_sample_with_replacement_can_exceed(self, mixed_dataset):
        sub = mixed_dataset.sample(mixed_dataset.n + 10, rng=1,
                                   replace=True)
        assert sub.n == mixed_dataset.n + 10

    def test_project(self, mixed_dataset):
        proj = mixed_dataset.project(["sex", "age"])
        assert proj.schema.names == ["sex", "age"]
        assert (proj.column("age") == mixed_dataset.column("age")).all()


class TestMarginals:
    def test_marginal_sums_to_one(self, mixed_dataset):
        marg = mixed_dataset.marginal("region")
        assert marg.sum() == pytest.approx(1.0)
        assert len(marg) == 5

    def test_marginal_matches_counts(self, tiny_schema):
        ds = Dataset(tiny_schema, np.array([[0, 0], [0, 1], [3, 1]]))
        marg = ds.marginal("x")
        assert marg[0] == pytest.approx(2 / 3)
        assert marg[3] == pytest.approx(1 / 3)

    def test_joint_marginal_consistent_with_marginals(self, mixed_dataset):
        joint = mixed_dataset.joint_marginal("age", "sex")
        assert joint.shape == (50, 2)
        assert joint.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(joint.sum(axis=1),
                                   mixed_dataset.marginal("age"))
        np.testing.assert_allclose(joint.sum(axis=0),
                                   mixed_dataset.marginal("sex"))

    def test_joint_marginal_by_index(self, mixed_dataset):
        a = mixed_dataset.joint_marginal(0, 2)
        b = mixed_dataset.joint_marginal("age", "sex")
        np.testing.assert_array_equal(a, b)
