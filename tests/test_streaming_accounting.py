"""Streaming admission accounting: only admitted users are counted.

Regression suite for two bugs: (1) reports the ingest policy dropped or
quarantined still inflated ``StreamingCollector.observed`` — and so the
finalized ``aggregator.n`` — biasing every frequency estimate low; (2)
the sharded observe path ignored ``config.chunk_size``, capping
parallelism at the group count and silently changing the documented
``(seed, chunk_size)`` determinism contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.client as client_module
from repro.core import FelipConfig, StreamingCollector
from repro.data import normal_dataset
from repro.errors import IngestError
from repro.fo.grr import GRRReport
from repro.queries import Query, between


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(6_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=11)


def make_collector(dataset, mode="drop", seed=42, **kw):
    config = FelipConfig(epsilon=1.0, protocols=("grr",),
                         ingest_policy=mode, **kw)
    return StreamingCollector(dataset.schema, config, dataset.n,
                              rng=seed)


def forged_report(plan, n=50, rng=None):
    """Self-consistent GRR report whose declared domain contradicts the
    plan's — admission must reject it whole (``domain-mismatch``)."""
    rng = np.random.default_rng(rng)
    wrong_domain = plan.num_cells + 7
    return GRRReport(values=rng.integers(0, wrong_domain, size=n),
                     domain_size=wrong_domain)


class TestAdmissionAccounting:
    def test_rejected_ingest_does_not_inflate_n(self, dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:2_000])
        observed = collector.observed
        plan = collector.plans[0]

        assert not collector.ingest_report(plan.key, forged_report(plan))
        assert collector.observed == observed
        assert collector.ingest_stats.dropped_reports == 1

        aggregator = collector.finalize()
        assert aggregator.n == observed
        assert aggregator.n == (collector.ingest_stats.accepted_users
                                + collector.trusted_users)
        assert int(collector._group_sizes.sum()) == observed

    def test_accepted_external_report_counts_exactly_once(self, dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:1_000])
        observed = collector.observed
        plan = collector.plans[0]
        honest = GRRReport(
            values=np.random.default_rng(0).integers(
                0, plan.num_cells, size=80),
            domain_size=plan.num_cells)

        assert collector.ingest_report(plan.key, honest)
        assert collector.observed == observed + 80
        assert collector.finalize().n == observed + 80

    def test_finalize_asserts_on_accounting_desync(self, dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:500])
        collector.observed += 5  # simulate the pre-fix inflation
        with pytest.raises(AssertionError, match="admission accounting"):
            collector.finalize()

    def test_strict_mode_fails_fast(self, dataset):
        collector = make_collector(dataset, mode="strict")
        collector.observe(dataset.records[:500])
        plan = collector.plans[0]
        with pytest.raises(IngestError):
            collector.ingest_report(plan.key, forged_report(plan))

    def test_drop_mode_under_stream_of_forgeries(self, dataset):
        """Estimates finalize on the honest population alone."""
        collector = make_collector(dataset)
        honest = make_collector(dataset)
        for start in range(0, 2_000, 500):
            batch = dataset.records[start:start + 500]
            collector.observe(batch)
            honest.observe(batch)
            plan = collector.plans[start % len(collector.plans)]
            collector.ingest_report(plan.key,
                                    forged_report(plan, rng=start))
        q = Query([between("num_0", 4, 20)])
        assert collector.finalize().answer(q) == \
            honest.finalize().answer(q)


class TestSourceAttribution:
    def test_quarantine_records_wire_peer(self, dataset):
        collector = make_collector(dataset, mode="quarantine")
        plan = collector.plans[0]
        collector.ingest_report(plan.key, forged_report(plan),
                                source="peer=10.1.2.3:5000")
        entry = collector.ingest_stats.quarantine[0]
        assert entry["source"] == "peer=10.1.2.3:5000"
        assert collector.ingest_stats.as_dict()["rejected_by_source"] \
            == {"peer=10.1.2.3:5000": 1}

    def test_default_source_is_the_grid_key(self, dataset):
        collector = make_collector(dataset, mode="quarantine")
        plan = collector.plans[0]
        collector.ingest_report(plan.key, forged_report(plan))
        assert collector.ingest_stats.quarantine[0]["source"] == \
            f"grid={plan.key}"

    def test_local_observation_rejections_attributed(self, dataset):
        """Row filtering inside observe() lands under source='local'."""
        collector = make_collector(dataset, mode="quarantine")
        collector.observe(dataset.records[:200])
        plan = collector.plans[0]
        collector.ingest_report(plan.key, forged_report(plan),
                                source="peer=evil")
        by_source = collector.ingest_stats.as_dict()["rejected_by_source"]
        assert by_source == {"peer=evil": 1}  # honest locals reject nothing


class TestChunkedSharding:
    def _shard_counts(self, dataset, monkeypatch, chunk_size):
        """Tasks in observe()'s one sharded run (through the batch
        collector's executor), and the number of groups."""
        counts = []
        real = client_module.run_sharded

        def spy(tasks, *args, **kwargs):
            counts.append(len(tasks))
            return real(tasks, *args, **kwargs)

        monkeypatch.setattr(client_module, "run_sharded", spy)
        collector = make_collector(dataset, workers=2,
                                   chunk_size=chunk_size)
        collector.observe(dataset.records[:3_000])
        collector.finalize()
        return counts[0], len(collector.plans)

    def test_chunk_size_multiplies_shards(self, dataset, monkeypatch):
        """Regression: chunk_size was ignored (always one shard/group)."""
        shards, groups = self._shard_counts(dataset, monkeypatch, 128)
        assert shards > groups
        unchunked, _ = self._shard_counts(dataset, monkeypatch, None)
        assert unchunked <= groups

    @given(chunk_size=st.one_of(st.none(), st.integers(64, 1024)),
           workers=st.sampled_from((3, 4)))
    @settings(max_examples=6, deadline=None)
    def test_output_invariant_to_workers(self, dataset, chunk_size,
                                         workers):
        """Pure function of (seed, chunk_size): the worker count — inline
        (workers=1) included — never changes the finalized answer."""
        q = Query([between("num_0", 4, 20)])
        answers = []
        for w in (1, 2, workers):
            collector = make_collector(dataset, workers=w,
                                       chunk_size=chunk_size)
            collector.observe(dataset.records[:2_000])
            answers.append(collector.finalize().answer(q))
        assert answers[0] == answers[1] == answers[2]
