"""In-memory span tracer that instruments the program from outside.

The tracer replaces a function or method at the place its caller looks
it up (a module global such as ``repro.core.streaming.merge_reports``,
or a class attribute such as ``StreamingCollector.ingest_report``) with
a wrapper that records one span per call: name, start, end, parent span
and request id. Spans stay in memory until :meth:`Tracer.write` dumps
them. :meth:`Tracer.uninstall` restores every original.

Parents come from a per-thread stack, so a span opened on a worker
thread (the checkpoint writer, a pool shard) is a root of its own
thread. Wrapped calls are synchronous, so on the asyncio event loop no
``await`` can interleave another task between a span's start and end.

A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request",
                 "thread")

    def __init__(self, id, name, start, parent, request, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent,
                "request": self.request, "thread": self.thread}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        #: work counters keyed by ``<span name>.<counter>``
        self.counters: Dict[str, float] = defaultdict(float)
        #: largest per-call tracemalloc peak, MB, keyed by span name
        self.peak_mb: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: while set, wrappers take tracemalloc peaks and record no spans
        self.memory_probe = False

    # -- request ids and spans ------------------------------------------

    def set_request(self, request) -> None:
        """Tag every span this thread opens from now on with ``request``."""
        self._local.request = request

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, 0,
                    stack[-1].id if stack else None,
                    getattr(self._local, "request", None),
                    threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- instrumentation -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *,
             work: Optional[Callable[..., Dict[str, float]]] = None,
             memory: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        ``work(args, kwargs, result)`` returns counters to add under
        ``name``. With ``memory``, calls made while :attr:`memory_probe`
        is set record their tracemalloc peak instead of a span: tracing
        allocations slows a call several times over, so peaks are taken
        in an untimed probe after the traced pass, never inside it.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.memory_probe:
                if not memory or tracemalloc.is_tracing():
                    return original(*args, **kwargs)
                tracemalloc.start()
                try:
                    return original(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer.peak_mb[name] = max(tracer.peak_mb[name], peak)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            counts = {"calls": 1}
            if work is not None:
                counts.update(work(args, kwargs, result))
            with tracer._lock:
                for key, value in counts.items():
                    tracer.counters[f"{name}.{key}"] += value
            return result

        self._patch(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: one span per step.

        Calling a generator function does no work; it happens in each
        ``next()``, between which the consumer may await. So every step
        gets its own span and the time outside the generator is not
        charged to it.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                yield item

        self._patch(owner, attr, original, wrapper)

    def wrap_request(self, owner, attr: str, request_of: Callable) -> None:
        """Set the request id from each call's arguments, then call through."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.set_request(request_of(*args, **kwargs))
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            duration = span.end - span.start
            covered = covered_ns(span, children.get(span.id, ()))
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - covered) / 1e9
        return dict(table)

    def write(self, path) -> None:
        """Dump every span (gzip JSON lines)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def covered_ns(span: Span, children) -> int:
    """Nanoseconds of ``span`` covered by the union of its children."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered = 0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered
