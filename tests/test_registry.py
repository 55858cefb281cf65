"""Tests for the unified protocol registry.

Covers the registry API itself (registration validation, lookup, the
single unknown-protocol error), the registry-driven capability matrix —
every registered spec is exercised through batch collection, streaming,
budget splitting, folded-state merge regrouping, and ingestion
sanitization according to its flags — and the regression locking pinned
SUE/SHE/THE configurations into the full pipeline via the registry
variance models.
"""

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import StreamingCollector
from repro.core.merge import merge_reports
from repro.core.planner import plan_grids
from repro.data import normal_dataset
from repro.errors import ConfigurationError, IngestError
from repro.fo import make_oracle
from repro.fo.registry import (
    ADAPTIVE,
    ProtocolSpec,
    all_specs,
    get,
    one_d_protocol_names,
    pinnable_protocol_names,
    register,
    registered_names,
    spec_for_report,
    unregister,
)
from repro.grids.sizing import SizingParams, optimal_size_1d_numerical
from repro.queries import Query, between
from repro.robustness.policy import (
    IngestPolicy,
    IngestStats,
    ReportSpec,
    sanitize_report,
)

SPEC_NAMES = registered_names()


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(4_000, num_numerical=2, num_categorical=1,
                          numerical_domain=16, categorical_domain=4,
                          rng=7)


def config_for(name, **kwargs):
    """A FelipConfig that routes collection through protocol ``name``."""
    if get(name).one_d_only:
        return FelipConfig(epsilon=1.0, strategy="ohg",
                           one_d_protocol=name, **kwargs)
    return FelipConfig(epsilon=1.0, protocols=(name,), **kwargs)


class TestRegistryApi:
    def test_builtins_registered_in_order(self):
        assert SPEC_NAMES[:2] == ("grr", "olh")
        assert set(SPEC_NAMES) == {"grr", "olh", "oue", "sue", "she",
                                   "the", "sw", "ahead", "hr"}

    def test_unknown_protocol_error_lists_registered(self):
        with pytest.raises(ConfigurationError) as exc:
            get("rappor")
        message = str(exc.value)
        assert "rappor" in message
        for name in SPEC_NAMES:
            assert name in message
        assert ADAPTIVE in message

    def test_every_layer_raises_the_same_unknown_error(self, dataset):
        probes = [
            lambda: make_oracle("rappor", 1.0, 8),
            lambda: FelipConfig(protocols=("rappor",)),
            lambda: FelipConfig(one_d_protocol="rappor"),
            lambda: SizingParams(epsilon=1.0, n=100, m=1).cell_variance(
                "rappor", 8),
        ]
        for probe in probes:
            with pytest.raises(ConfigurationError, match="rappor"):
                probe()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register(get("grr"))

    def test_adaptive_name_reserved(self):
        import dataclasses
        spec = dataclasses.replace(get("grr"), name=ADAPTIVE)
        with pytest.raises(ConfigurationError, match="adaptive"):
            register(spec)

    def test_streamable_requires_oracle_factory(self):
        """A stream folds every report with the grid's oracle, so an
        interactive-only backend cannot be flagged streamable."""
        with pytest.raises(ConfigurationError, match="streamable"):
            register(ProtocolSpec(
                name="broken", interactive_fit=lambda *a: None,
                streamable=True))
        assert "broken" not in registered_names()

    def test_needs_some_collection_path(self):
        with pytest.raises(ConfigurationError, match="factory"):
            register(ProtocolSpec(name="broken", streamable=False))

    def test_unregister_roundtrip(self):
        spec = get("hr")
        unregister("hr")
        try:
            assert "hr" not in registered_names()
            assert spec_for_report(spec.report_type) is None
            with pytest.raises(ConfigurationError):
                get("hr")
        finally:
            register(spec)
        assert get("hr") is spec

    def test_report_type_ownership_first_wins(self):
        # SUE perturbs into OUE's container; OUE registered first.
        assert get("sue").report_type is get("oue").report_type
        assert spec_for_report(get("oue").report_type) is get("oue")

    def test_name_partitions(self):
        pinnable = set(pinnable_protocol_names())
        one_d = set(one_d_protocol_names())
        assert pinnable | one_d == set(SPEC_NAMES)
        assert not pinnable & one_d
        assert one_d == {"sw", "ahead"}


class TestCapabilityMatrix:
    """Every registered spec, exercised per its capability flags."""

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_batch_collection(self, dataset, name):
        model = Felip(dataset.schema, config_for(name)).fit(dataset, rng=3)
        answer = model.answer(Query([between(dataset.schema[0].name,
                                             2, 9)]))
        assert 0.0 <= answer <= 1.0

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_streaming(self, dataset, name):
        spec = get(name)
        if not spec.streamable:
            with pytest.raises(ConfigurationError, match="stream"):
                StreamingCollector(dataset.schema, config_for(name),
                                   dataset.n, rng=5)
            return
        collector = StreamingCollector(dataset.schema, config_for(name),
                                       dataset.n, rng=5)
        half = dataset.n // 2
        collector.observe(dataset.records[:half])
        collector.observe(dataset.records[half:])
        model = collector.finalize()
        answer = model.answer(Query([between(dataset.schema[0].name,
                                             2, 9)]))
        assert 0.0 <= answer <= 1.0

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_budget_split(self, dataset, name):
        spec = get(name)
        if not spec.budget_splittable:
            with pytest.raises(ConfigurationError,
                               match="budget.*ahead|ahead.*budget"):
                config_for(name, partition_mode="budget")
            return
        model = Felip(dataset.schema,
                      config_for(name, partition_mode="budget")).fit(
            dataset, rng=3)
        answer = model.answer(Query([between(dataset.schema[0].name,
                                             2, 9)]))
        assert 0.0 <= answer <= 1.0

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_merge_regroup(self, name):
        """merge([a, b, c]) == merge([merge([a, b]), c]) == one fold of
        the three reports, per spec."""
        spec = get(name)
        if spec.factory is None:
            return
        oracle = spec.factory(1.0, 8)
        rng = np.random.default_rng(11)
        reports = [oracle.perturb(rng.integers(0, 8, size=300), rng)
                   for _ in range(3)]
        parts = [oracle.fold(None, [report]) for report in reports]
        flat = merge_reports(list(parts))
        nested = merge_reports([merge_reports(parts[:2]), parts[2]])
        assert flat.vector.tobytes() == \
            oracle.fold(None, reports).vector.tobytes()
        np.testing.assert_allclose(oracle.unbias(flat),
                                   oracle.unbias(nested))

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_ingest_sanitize(self, name):
        spec = get(name)
        if spec.factory is None or spec.sanitizer is None:
            return
        oracle = spec.factory(1.0, 8)
        report = oracle.perturb(
            np.random.default_rng(13).integers(0, 8, size=400), 17)
        expected = ReportSpec.from_oracle(oracle)
        stats = IngestStats()
        accepted = sanitize_report(report, IngestPolicy(mode="strict"),
                                   stats, expected=expected)
        assert accepted is report
        assert stats.accepted_reports == 1
        # A well-formed report planned for another domain disagrees with
        # this plan, and every sanitizer rejects it. (Structural damage
        # is the constructor's: tests/test_report_structure.py.)
        other = spec.factory(1.0, 16).perturb(
            np.random.default_rng(13).integers(0, 16, size=400), 17)
        with pytest.raises(IngestError):
            sanitize_report(other, IngestPolicy(mode="strict"),
                            IngestStats(), expected=expected)
        drop_stats = IngestStats()
        assert sanitize_report(other, IngestPolicy(mode="drop"),
                               drop_stats, expected=expected) is None
        assert drop_stats.dropped_reports == 1


class TestPinnedProtocolRegression:
    """Pinned single-protocol configs must plan and collect end-to-end.

    Locks in the fix for pinned ``protocols=("sue",)`` (and she/the)
    dying inside grid sizing: the registry variance model now answers for
    every registered protocol.
    """

    @pytest.mark.parametrize("name", ["sue", "she", "the", "oue", "hr"])
    def test_pinned_plan_and_fit(self, dataset, name):
        config = FelipConfig(epsilon=1.0, protocols=(name,))
        plans = plan_grids(dataset.schema, config, dataset.n)
        assert plans and all(p.protocol == name for p in plans)
        assert all(np.isfinite(p.cell_variance) and p.cell_variance > 0
                   for p in plans)
        model = Felip(dataset.schema, config).fit(dataset, rng=9)
        answer = model.answer(Query([between(dataset.schema[0].name,
                                             2, 9)]))
        assert 0.0 <= answer <= 1.0

    @pytest.mark.parametrize("name", ["sue", "she", "the", "oue"])
    def test_pinned_sizing_matches_olh_class(self, name):
        """Size-independent protocols share OLH's sizing optimum."""
        params = SizingParams(epsilon=1.0, n=10_000, m=3)
        got = optimal_size_1d_numerical(64, 0.5, params, name)
        ref = optimal_size_1d_numerical(64, 0.5, params, "olh")
        assert got == ref

    def test_grr_sizing_differs_from_olh_class(self):
        params = SizingParams(epsilon=1.0, n=10_000, m=3)
        assert params.cell_variance("grr", 64) != \
            params.cell_variance("olh", 64)
