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
