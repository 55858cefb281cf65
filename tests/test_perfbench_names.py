"""The names the repository benchmark's tracer wraps still resolve.

``perfbench/layers.py`` wraps program entry points where their callers
look them up (``Tracer.wrap`` reads each with ``getattr``), so deleting
or renaming a wrapped name breaks every traced benchmark run. This test
installs the whole instrumentation on a fresh tracer, removes it again,
and checks every patched attribute is back to its original. It only
reads ``perfbench/``.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_wrapped_name_resolves_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.instrument(tracer)
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches, "instrument() wrapped nothing"
    wrapped = {f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches}
    for name in ("repro.core.client.merge_reports",
                 "repro.core.client.run_sharded",
                 "repro.core.client.sanitize_report",
                 "repro.core.streaming.merge_reports",
                 "repro.core.streaming.run_sharded",
                 "repro.core.streaming.sanitize_report"):
        assert name in wrapped, name
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_fit_records_the_grouping_kernel(monkeypatch):
    """perfbench wraps every kernel and counts ``len(args[0])`` elements,
    so a kernel called with keywords or an unsized first argument would
    crash every traced run. A small instrumented fit (every grid pinned
    to OLH), materialize and answer batch run through, and the partition
    shuffle, the grouping pass and OLH's perturb and seed-mix kernels
    are counted."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import layers
    from tracer import Tracer

    from repro import Felip
    from repro.data import normal_dataset
    from repro.fo import kernels
    from repro.queries import Query, between

    data = normal_dataset(3_000, num_numerical=3, num_categorical=1,
                          numerical_domain=16, categorical_domain=4, rng=1)
    queries = [Query([between("num_0", 2, 9)]),
               Query([between("num_0", 2, 9), between("num_1", 1, 12)]),
               Query([between("num_0", 2, 9), between("num_1", 1, 12),
                      between("num_2", 4, 15)])]
    # Warmed first, as perfbench pins the tier before it instruments:
    # the counts below are the fit's own calls.
    kernels.warm()
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        model = Felip.ohg(data.schema, epsilon=2.0,
                          protocols=("olh",)).fit(data, rng=2)
        model.materialize()
        model.answer_workload(queries)
    finally:
        tracer.uninstall()
    assert tracer.counters["fo.kernels.group_cells.calls"] >= 1
    assert tracer.counters["fo.kernels.group_cells.elements"] >= data.n
    assert tracer.counters["fo.kernels.permute.calls"] == 1
    assert tracer.counters["fo.kernels.permute.elements"] == data.n
    assert tracer.counters["fo.kernels.olh_perturb.calls"] >= 1
    assert tracer.counters["fo.kernels.mix_seeds.calls"] >= 1
