"""Ingestion-policy tests: sanitizers, admission modes, accounting.

Every rejection path must either raise a typed
:class:`~repro.errors.IngestError` (strict) or increment a counter in
:class:`IngestStats` (drop/quarantine) — no silent discard, ever. The
reports here are well formed (built by their constructors) but disagree
with their plan: a declared domain or hash range that is not the
planned one, a vector of the wrong length, an infeasible total.
Structurally invalid payloads never reach a sanitizer; their tests are in
``tests/test_report_structure.py``.
"""

import json

import numpy as np
import pytest

from repro import Felip, FelipConfig
from repro.core import StreamingCollector
from repro.data import uniform_dataset
from repro.errors import ConfigurationError, IngestError, ProtocolError
from repro.fo.adaptive import make_oracle
from repro.fo.grr import GRRReport
from repro.fo.olh import OLHReport
from repro.fo.oue import OUEReport
from repro.robustness import (
    INGEST_MODES,
    IngestPolicy,
    IngestStats,
    ReportSpec,
    forge_report,
    report_user_count,
    sanitize_report,
)
from repro.robustness.ingest import MAX_SOURCE_KEYS, OTHER_SOURCES

pytestmark = pytest.mark.faults


class TestIngestPolicy:
    def test_modes(self):
        assert INGEST_MODES == ("strict", "drop", "quarantine")
        for mode in INGEST_MODES:
            assert IngestPolicy(mode=mode).mode == mode

    def test_invalid_params_raise_typed_errors(self):
        with pytest.raises(IngestError):
            IngestPolicy(mode="lenient")
        with pytest.raises(IngestError):
            IngestPolicy(quarantine_capacity=-1)

    def test_config_knobs_validated(self):
        assert FelipConfig(ingest_policy="drop").ingest_policy == "drop"
        with pytest.raises(ConfigurationError):
            FelipConfig(ingest_policy="bogus")
        with pytest.raises(ConfigurationError):
            FelipConfig(detectors=("range", "nope"))
        with pytest.raises(ConfigurationError):
            FelipConfig(shard_retries=-1)
        assert FelipConfig(detectors=("range", "l1")).detectors == \
            ("range", "l1")


class TestSourceCap:
    """Rejections are counted per source under a bounded set of keys."""

    @staticmethod
    def _rejected_from(sources):
        stats = IngestStats()
        policy = IngestPolicy(mode="drop")
        for source in sources:
            stats.record_reject("bad-frame", 1, policy, source=source)
        return stats

    def test_many_sources_keep_the_total_under_a_bounded_map(self):
        peers = [f"peer=10.0.{k // 256}.{k % 256}:{5000 + k}"
                 for k in range(200)]
        stats = self._rejected_from(peers + peers[:3])
        by_source = stats.as_dict()["rejected_by_source"]
        assert len(by_source) <= MAX_SOURCE_KEYS + 1
        assert sum(by_source.values()) == 203 == stats.reasons["bad-frame"]
        # The sources seen first keep their own keys and go on counting.
        assert by_source[peers[0]] == 2
        assert by_source[OTHER_SOURCES] == 200 - MAX_SOURCE_KEYS

    def test_capped_map_round_trips(self):
        stats = self._rejected_from(f"peer=h:{k}" for k in range(200))
        # A checkpoint stores the state as JSON with sorted keys.
        state = json.loads(json.dumps(stats.state_dict(), sort_keys=True))
        restored = IngestStats()
        restored.load_state(state)
        assert restored.sources == stats.sources
        restored.record_reject("bad-frame", 1, IngestPolicy(mode="drop"),
                               source="peer=h:9999")
        assert restored.sources[OTHER_SOURCES] == \
            stats.sources[OTHER_SOURCES] + 1

    def test_loading_an_uncapped_map_folds_the_excess(self):
        state = IngestStats().state_dict()
        state["sources"] = {f"peer=h:{k}": 2 for k in range(100)}
        restored = IngestStats()
        restored.load_state(state)
        assert len(restored.sources) == MAX_SOURCE_KEYS + 1
        assert sum(restored.sources.values()) == 200


class TestRowLevelSanitizers:
    """Per-user-row reports (GRR, OLH): the constructor owns the rows, so
    a sanitizer passes an agreeing report on as it is and rejects one
    whose declared parameters differ from the plan."""

    def test_clean_grr_passes_value_identical(self):
        oracle = make_oracle("grr", 1.0, 8)
        report = oracle.perturb(np.arange(8), np.random.default_rng(3))
        out = sanitize_report(report, IngestPolicy(mode="strict"),
                              expected=ReportSpec.from_oracle(oracle))
        assert out is report
        np.testing.assert_array_equal(out.values, report.values)

    def test_grr_out_of_domain_strict_raises(self):
        # Well-formed for the domain it declares (16), out of the
        # planned one (8).
        report = GRRReport(values=np.array([0, 12]), domain_size=16)
        with pytest.raises(IngestError, match="domain-mismatch"):
            sanitize_report(report, IngestPolicy(mode="strict"),
                            IngestStats(),
                            expected=ReportSpec(protocol="grr",
                                                domain_size=8))

    def test_olh_param_forgery_rejected(self):
        oracle = make_oracle("olh", 1.0, 8)
        spec = ReportSpec.from_oracle(oracle)
        stats = IngestStats()
        # Declaring a different hash range than planned is forgery.
        lied = OLHReport(seeds=np.arange(4, dtype=np.uint64),
                         buckets=np.zeros(4, dtype=np.uint64),
                         hash_range=oracle.g * 2, domain_size=8)
        assert sanitize_report(lied, IngestPolicy(mode="drop"),
                               stats, expected=spec) is None
        # So is declaring a different domain.
        other = OLHReport(seeds=np.arange(4, dtype=np.uint64),
                          buckets=np.zeros(4, dtype=np.uint64),
                          hash_range=oracle.g, domain_size=16)
        assert sanitize_report(other, IngestPolicy(mode="drop"),
                               stats, expected=spec) is None
        assert stats.reasons == {"hash-range-mismatch": 1,
                                 "domain-mismatch": 1}
        assert stats.dropped_users == 8
        assert stats.accepted_reports == 0


class TestAggregateSanitizers:
    def test_oue_infeasible_total_quarantined_with_audit_trail(self):
        oracle = make_oracle("oue", 1.0, 16)
        spec = ReportSpec.from_oracle(oracle)
        ones = np.zeros(16, dtype=np.int64)
        ones[0] = 5000  # every fake sets only the target bit
        forged = OUEReport(ones=ones, n=5000)
        stats = IngestStats()
        policy = IngestPolicy(mode="quarantine", quarantine_capacity=2)
        assert sanitize_report(forged, policy, stats,
                               expected=spec) is None
        assert stats.reasons == {"infeasible-total": 1}
        assert len(stats.quarantine) == 1
        assert stats.quarantine[0]["reason"] == "infeasible-total"

    def test_quarantine_capacity_bounds_audit_not_counters(self):
        policy = IngestPolicy(mode="quarantine", quarantine_capacity=1)
        spec = ReportSpec.from_oracle(make_oracle("oue", 1.0, 8))
        stats = IngestStats()
        for _ in range(3):
            # Three counters where the plan has eight.
            short = OUEReport(ones=np.array([5, 20, 1]), n=100)
            sanitize_report(short, policy, stats, expected=spec)
        assert len(stats.quarantine) == 1       # audit trail bounded
        assert stats.reasons["ones-wrong-shape"] == 3  # counts go on
        assert stats.dropped_users == 300

    def test_honest_reports_survive_feasibility(self):
        # The 6-sigma band must not reject honest batches.
        for protocol in ("oue", "sue", "she", "the", "sw"):
            oracle = make_oracle(protocol, 1.0, 16)
            rng = np.random.default_rng(5)
            report = oracle.perturb(rng.integers(0, 16, size=5000), rng)
            out = sanitize_report(report, IngestPolicy(mode="strict"),
                                  expected=ReportSpec.from_oracle(oracle))
            assert out is report

    def test_unknown_report_type_passes_through(self):
        class Mystery:
            n = 7
        stats = IngestStats()
        obj = Mystery()
        assert sanitize_report(obj, IngestPolicy(mode="strict"),
                               stats, expected=ReportSpec()) is obj
        assert stats.accepted_reports == 1
        assert stats.accepted_users == 7

    def test_report_user_count(self):
        assert report_user_count(forge_report(OUEReport,
                                              ones=np.zeros(3),
                                              n=42)) == 42
        assert report_user_count(
            forge_report(GRRReport, values=np.zeros(5, dtype=np.int64),
                         domain_size=2)) == 5
        assert report_user_count(object()) == 0


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def dataset(self):
        return uniform_dataset(5_000, num_numerical=2, num_categorical=1,
                               numerical_domain=16, categorical_domain=4,
                               rng=7)

    def test_fit_identical_with_and_without_hardened_ingest(self, dataset):
        """Sanitizing the (honest) internal pipeline changes nothing."""
        q_answers = []
        for policy in ("strict", "quarantine"):
            model = Felip(dataset.schema,
                          FelipConfig(epsilon=1.0, ingest_policy=policy))
            model.fit(dataset, rng=31)
            q_answers.append(model.marginal("num_0"))
        np.testing.assert_array_equal(q_answers[0], q_answers[1])

    def test_robustness_report_shape_after_fit(self, dataset):
        model = Felip(dataset.schema,
                      FelipConfig(epsilon=1.0,
                                  detectors=("range", "l1", "imbalance")))
        model.fit(dataset, rng=33)
        report = model.aggregator.robustness_report()
        assert report["ingest_policy"] == "strict"
        assert report["ingest"]["accepted_reports"] > 0
        assert report["ingest"]["dropped_reports"] == 0
        assert report["execution"]["failed_shards"] == 0
        assert len(report["detectors"]) > 0
        # Honest collection must not trip the detectors.
        assert report["flagged"] is False

    def test_streaming_ingest_report_admits_and_counts(self, dataset):
        config = FelipConfig(epsilon=1.0, protocols=("olh",),
                             ingest_policy="drop")
        collector = StreamingCollector(dataset.schema, config,
                                       expected_users=5_000, rng=41)
        collector.observe(dataset.records[:1_000])
        observed_before = collector.observed
        key = collector.plans[0].key
        oracle = collector._oracles[key]
        honest = oracle.perturb(
            np.random.default_rng(1).integers(
                0, collector.plans[0].num_cells, size=200),
            np.random.default_rng(2))
        assert collector.ingest_report(key, honest) is True
        assert collector.observed == observed_before + 200

        # Well formed, but declares a hash range the plan does not use.
        forged = OLHReport(seeds=np.arange(50, dtype=np.uint64),
                           buckets=np.zeros(50, dtype=np.uint64),
                           hash_range=oracle.g + 1,
                           domain_size=oracle.domain_size)
        assert collector.ingest_report(key, forged) is False
        assert collector.observed == observed_before + 200
        assert collector.ingest_stats.dropped_users >= 50
        assert np.isfinite(
            collector.finalize().marginal("num_0")).all()

    def test_streaming_ingest_report_strict_raises(self, dataset):
        config = FelipConfig(epsilon=1.0, protocols=("grr",))
        collector = StreamingCollector(dataset.schema, config,
                                       expected_users=5_000, rng=43)
        key = collector.plans[0].key
        # Well formed, but over a wider domain than the plan's.
        forged = GRRReport(values=np.array([10_000]),
                           domain_size=10_001)
        with pytest.raises(IngestError, match="domain-mismatch"):
            collector.ingest_report(key, forged)
        with pytest.raises(ProtocolError):
            collector.ingest_report((999,), forged)
