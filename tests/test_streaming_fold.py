"""Folding a stream is exact: any split, any compactions, any restore.

The streaming collector keeps one folded state per grid
(:class:`repro.fo.base.FoldedState`) instead of the admitted reports.
These properties pin that the fold never changes an estimate: however a
batch is split into reports, wherever the compactions fall, and with a
checkpoint/restore in the middle, the grid's state equals the merge of
the reports' one-report states (:func:`repro.core.merge.merge_reports`,
the reduction every collection path uses) and unbiases to exactly its
bytes — SHE's float sums included, since both keep their left-fold
order. Local batches (``observe``) fold in their shard tasks; a grid's
state after wire reports, a batch, and more wire reports is still one
fold of all of them in arrival order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FelipConfig, StreamingCollector
from repro.core.merge import merge_reports
from repro.data import normal_dataset
from repro.fo.he import SHEReport
from repro.fo.registry import all_specs
from repro.service import restore_checkpoint, save_checkpoint

STREAMABLE = [spec for spec in all_specs() if spec.streamable]


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(2_000, num_numerical=2, num_categorical=1,
                          numerical_domain=16, categorical_domain=4,
                          rng=23)


def collector_for(dataset, spec):
    kw = ({"strategy": "ohg", "one_d_protocol": spec.name}
          if spec.one_d_only else {"protocols": (spec.name,)})
    config = FelipConfig(epsilon=1.0, ingest_policy="strict", **kw)
    return StreamingCollector(dataset.schema, config, dataset.n, rng=5)


def target_grid(collector, spec):
    plan = next(p for p in collector.plans
                if p.protocol == spec.name and p.num_cells >= 2)
    return plan.key, collector._oracles[plan.key]


@pytest.mark.parametrize("spec", STREAMABLE, ids=lambda s: s.name)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_any_split_compaction_and_restore_equals_one_estimate(
        dataset, spec, data):
    sizes = data.draw(st.lists(st.integers(0, 40), min_size=1,
                               max_size=7), label="report sizes")
    compact_after = data.draw(st.lists(st.booleans(), min_size=len(sizes),
                                       max_size=len(sizes)),
                              label="compact after report i")
    restore_at = data.draw(st.integers(0, len(sizes)), label="restore at")
    seed = data.draw(st.integers(0, 2**16), label="seed")

    collector = collector_for(dataset, spec)
    key, oracle = target_grid(collector, spec)
    rng = np.random.default_rng(seed)
    reports = [oracle.perturb(rng.integers(0, oracle.domain_size,
                                           size=size), rng)
               for size in sizes]
    for index, report in enumerate(reports):
        if index == restore_at:
            collector = restore_checkpoint(collector_for(dataset, spec),
                                           save_checkpoint(collector))
        collector.ingest_report(key, report)
        if compact_after[index]:
            collector.compact()
    collector.compact()

    merged = merge_reports([oracle.fold(None, [report])
                            for report in reports])
    state = collector._states[key]
    if sum(sizes) == 0:
        assert state is None
        return
    assert state.n == sum(sizes) == merged.n == collector.observed
    expected = oracle.unbias(merged)
    got = oracle.unbias(state)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    assert state.vector.tobytes() == merged.vector.tobytes() == \
        oracle.fold(None, reports).vector.tobytes()


@pytest.mark.parametrize("spec", STREAMABLE, ids=lambda s: s.name)
def test_estimate_is_fold_then_unbias(spec):
    oracle = spec.factory(1.0, 12)
    rng = np.random.default_rng(3)
    report = oracle.perturb(rng.integers(0, 12, size=300), rng)
    state = oracle.fold(None, [report])
    assert state.n == 300
    assert state.vector.shape == (oracle.state_length,)
    assert state.vector.dtype == oracle.state_dtype
    oracle.check_state(state)
    assert oracle.estimate(report).tobytes() == \
        oracle.unbias(state).tobytes()


def test_zero_user_report_adds_nothing(dataset):
    """A report that admits no user leaves the statistics alone: a
    zero-user SHE report passes every feasibility test, whatever its
    sums, so keeping it would let it move the estimate at no cost."""
    spec = next(s for s in STREAMABLE if s.name == "she")
    clean, forged = (collector_for(dataset, spec) for _ in range(2))
    for collector in (clean, forged):
        collector.observe(dataset.records)
    key, oracle = target_grid(forged, spec)
    poison = SHEReport(sums=np.eye(oracle.domain_size)[0] * 1e4, n=0)
    assert not forged.ingest_report(key, poison)
    assert forged.retained_bytes() == clean.retained_bytes()
    forged.compact()
    assert forged._states[key].vector.tobytes() == \
        clean._states[key].vector.tobytes()


def test_observe_between_wire_reports_keeps_arrival_order(dataset,
                                                          monkeypatch):
    """SHE's state is a float sum, so its bytes depend on the fold order.
    Wire reports, then a locally observed batch (folded in its shard
    tasks), then more wire reports must leave the grid holding one left
    fold of all of them in arrival order: ``observe`` folds the pending
    wire reports before it merges its shard states."""
    spec = next(s for s in STREAMABLE if s.name == "she")
    config = FelipConfig(epsilon=1.0, ingest_policy="strict",
                         protocols=("she",), chunk_size=150)
    collector = StreamingCollector(dataset.schema, config, dataset.n, rng=5)
    key, oracle = target_grid(collector, spec)
    observed = []
    real_perturb = type(oracle).perturb

    def recording_perturb(self, values, rng=None):
        report = real_perturb(self, values, rng)
        if self is oracle:
            observed.append(report)
        return report

    monkeypatch.setattr(type(oracle), "perturb", recording_perturb)
    rng = np.random.default_rng(17)

    def wire_reports(sizes):
        reports = [oracle.perturb(rng.integers(0, oracle.domain_size,
                                               size=size), rng)
                   for size in sizes]
        del observed[-len(sizes):]
        for report in reports:
            assert collector.ingest_report(key, report)
        return reports

    before = wire_reports([30, 7])
    collector.observe(dataset.records)
    batch = list(observed)
    assert len(batch) > 1  # several shards folded in their tasks
    after = wire_reports([12])
    collector.compact()

    arrival = [*before, *batch, *after]
    state = collector._states[key]
    expected = oracle.fold(None, arrival)
    assert state.n == expected.n
    assert state.vector.tobytes() == expected.vector.tobytes()
