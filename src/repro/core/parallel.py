"""Sharded execution of the collection pipeline.

The FELIP collection phase is embarrassingly parallel: every (group, chunk)
shard of the population perturbs and folds independently, and every
attribute pair's response matrix fits independently on the server.
This module provides the shared executor for both sides:

* :func:`run_sharded` — run shard tasks (zero-argument callables) on a
  thread pool and return results **in task order**, so downstream
  reductions are deterministic no matter how the scheduler interleaves
  shards. ``workers <= 1`` runs them inline with no pool. Shards are
  zero-copy slices of the grouped cells that
  :func:`repro.fo.kernels.group_cells` builds in one pass before any
  shard runs, handed to kernels that release the GIL for their heavy
  parts (generator sampling, the splitmix64 hash chain).
* :func:`chunk_bounds` — deterministic chunk geometry for one group.
* :class:`StageTimings` — cumulative wall-clock counters per pipeline
  stage, surfaced on the aggregator.
* :class:`ExecutionStats` — fault-tolerance accounting (retries, pool
  degradations), surfaced in ``Aggregator.robustness_report()``.

Determinism contract
--------------------
Parallelism never touches randomness: every shard perturbs with its own
generator, spawned deterministically from the caller's seed (one child per
group, and one grandchild per chunk when a group is split). Results are
reduced in (group, chunk) order. Therefore the collected states are a pure
function of ``(seed, chunk_size)`` — changing ``workers`` can only change
wall-clock time, never a single bit of output.

Fault tolerance
---------------
Shard tasks may die for reasons that have nothing to do with their inputs
(allocator pressure, interpreter shutdown races, injected chaos faults).
:func:`run_sharded` retries such *transient* failures up to ``retries``
times with exponential backoff before giving up. Deterministic failures —
anything deriving from :class:`~repro.errors.ReproError`, which the
library only raises on invalid inputs — are never retried: replaying them
would produce the same error and waste the backoff.

When a shard does fail terminally, the executor **fails fast**: queued
shards that have not started are cancelled and the pool shuts down
without draining them, so a poisoned config on a thousand-shard run
surfaces in milliseconds instead of after a full (doomed) collection.

Retries preserve the determinism contract because every randomized shard
task snapshots its generator state at construction and restores it on
entry (see ``repro.core.client``), so a retried attempt replays exactly
the RNG stream the failed attempt consumed. If a pool itself cannot be
created (fd/thread exhaustion), execution degrades gracefully to the
inline path and the collection still completes.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.robustness.faults import backoff_delay


def resolve_workers(workers: int) -> int:
    """Effective worker count: ``0`` means one per *available* CPU.

    "Available" respects cgroup/affinity limits where the platform
    exposes them (``os.sched_getaffinity``): a container pinned to 2 of
    the host's 64 cores gets 2 workers, not 64 oversubscribed ones.
    ``os.cpu_count()`` is the fallback on platforms without affinity.
    """
    if workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0 (0 = all CPUs), got {workers}")
    if workers == 0:
        getaffinity = getattr(os, "sched_getaffinity", None)
        if getaffinity is not None:
            try:
                return max(len(getaffinity(0)), 1)
            except OSError:  # pragma: no cover - exotic kernels
                pass
        return os.cpu_count() or 1
    return workers


class ExecutionStats:
    """Thread-safe fault-tolerance accounting for one executor run.

    ``as_dict`` (and ``__repr__``, which renders from it) snapshot every
    counter — including a copy of the ``retried_shards`` map — under the
    lock, so readers never observe a dict mid-mutation.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.retries = 0
        self.retried_shards: Dict[int, int] = {}
        self.pool_fallbacks = 0
        self.failed_shards = 0

    def record_retry(self, shard: int, count: int = 1) -> None:
        if count <= 0:
            return
        with self._lock:
            self.retries += count
            self.retried_shards[shard] = \
                self.retried_shards.get(shard, 0) + count

    def record_pool_fallback(self) -> None:
        with self._lock:
            self.pool_fallbacks += 1

    def record_failure(self) -> None:
        with self._lock:
            self.failed_shards += 1

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "retries": self.retries,
                "retried_shards": dict(self.retried_shards),
                "pool_fallbacks": self.pool_fallbacks,
                "failed_shards": self.failed_shards,
            }

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot for checkpointing (shard keys
        stringified; :meth:`load_state` restores them as ints)."""
        state = self.as_dict()
        state["retried_shards"] = {
            str(k): v for k, v in state["retried_shards"].items()}
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing all counters."""
        with self._lock:
            self.retries = int(state["retries"])
            self.retried_shards = {
                int(k): int(v)
                for k, v in state["retried_shards"].items()}
            self.pool_fallbacks = int(state["pool_fallbacks"])
            self.failed_shards = int(state["failed_shards"])

    def __repr__(self) -> str:
        d = self.as_dict()
        return (f"ExecutionStats(retries={d['retries']}, "
                f"pool_fallbacks={d['pool_fallbacks']}, "
                f"failed_shards={d['failed_shards']})")


#: base of the exponential retry backoff (seconds); attempt k sleeps
#: ``_BACKOFF_BASE * 2**k``. Kept tiny: shard tasks are sub-second, and
#: transient faults (allocator pressure, injected chaos) clear quickly.
_BACKOFF_BASE = 0.002


def _worker_attempt(index: int, task: Callable[[], object], retries: int,
                    backoff: float, fault_injector) -> Tuple[object, int]:
    """One shard's full attempt loop.

    Returns ``(result, retries_burned)`` so the caller can fold the retry
    accounting into the shared :class:`ExecutionStats`.
    """
    for attempt_no in range(retries + 1):
        try:
            if fault_injector is not None:
                fault_injector.maybe_fail(index, attempt_no)
            result = task()
        except ReproError:
            # Deterministic: replaying the same inputs raises the same
            # error. Surface it to the caller immediately.
            raise
        except Exception:
            if attempt_no >= retries:
                raise
            if backoff > 0:
                time.sleep(backoff_delay(attempt_no, backoff))
        else:
            return result, attempt_no
    raise AssertionError("unreachable")  # pragma: no cover


def run_sharded(tasks: Sequence[Callable[[], object]],
                workers: int, *, retries: int = 0,
                backoff: float = _BACKOFF_BASE,
                fault_injector=None,
                stats: Optional[ExecutionStats] = None) -> List[object]:
    """Run shard tasks on a thread pool, returning results in task order.

    ``workers <= 1`` (after :func:`resolve_workers`) runs inline with no
    pool, so the single-worker path has zero pool overhead and is
    trivially identical to a plain loop.

    Parameters
    ----------
    retries:
        Extra attempts per shard after a *transient* failure (any
        exception not deriving from :class:`~repro.errors.ReproError`;
        library errors are deterministic and re-raise immediately).
    backoff:
        Base of the exponential sleep between attempts.
    fault_injector:
        Chaos hook (:class:`repro.robustness.FaultInjector` or anything
        with ``maybe_fail(shard, attempt)``), consulted before every
        attempt. Test-only; ``None`` in production paths.
    stats:
        Optional :class:`ExecutionStats` accumulating retries, pool
        fallbacks, and exhausted shards across calls.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")

    def attempt(index: int, task: Callable[[], object]) -> object:
        try:
            result, burned = _worker_attempt(index, task, retries,
                                             backoff, fault_injector)
        except Exception:
            if stats is not None:
                stats.record_failure()
            raise
        if stats is not None:
            stats.record_retry(index, burned)
        return result

    workers = min(resolve_workers(workers), len(tasks))
    if workers <= 1:
        return [attempt(i, task) for i, task in enumerate(tasks)]
    try:
        pool = ThreadPoolExecutor(max_workers=workers)
    except Exception:
        # Graceful degradation: no pool (fd/thread exhaustion) must not
        # abort the collection — fall back to inline execution.
        if stats is not None:
            stats.record_pool_fallback()
        return [attempt(i, task) for i, task in enumerate(tasks)]
    try:
        futures = [pool.submit(attempt, i, task)
                   for i, task in enumerate(tasks)]
        results = [future.result() for future in futures]
    except BaseException:
        # Fail fast: the first terminal failure cancels every shard that
        # has not started yet and returns without draining the rest — a
        # poisoned 1000-shard run dies in milliseconds, not minutes.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def chunk_bounds(size: int, chunk_size: int = None) -> List[Tuple[int, int]]:
    """``[start, stop)`` bounds splitting ``size`` rows into chunks.

    ``chunk_size=None`` (or a chunk at least as large as the group) yields
    a single chunk — the geometry under which sharded collection consumes
    the exact RNG stream of the serial reference path.
    """
    if size <= 0:
        return []
    if chunk_size is None or chunk_size >= size:
        return [(0, size)]
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}")
    return [(start, min(start + chunk_size, size))
            for start in range(0, size, chunk_size)]


class StageTimings:
    """Cumulative wall-clock seconds per named pipeline stage.

    Accumulation is a read-modify-write on a shared dict that a timer on
    any thread may update — the update is therefore taken under a lock
    so concurrent timers never lose each other's seconds. Reads
    (``as_dict``, and ``__repr__`` through it) snapshot under the same
    lock: iterating the live dict while a timer inserts a new stage would
    die with "dictionary changed size during iteration".
    """

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self._lock = threading.Lock()

    @contextmanager
    def time(self, stage: str):
        """Context manager accumulating the block's wall time on ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.seconds)

    def __repr__(self) -> str:
        rendered = ", ".join(f"{stage}={secs:.4f}s"
                             for stage, secs in self.as_dict().items())
        return f"StageTimings({rendered})"
