"""Helpers shared by the benchmark workloads.

Everything here runs outside the timed program phase: input and query
generation, exact answers, statistics, resident-memory probes, run
provenance and the (untimed) accuracy panel.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import datetime
import gc
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: root of the checkout the benchmark runs in
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for everything a run writes (gitignored)
WORK = ROOT / ".bench_build" / "perfbench"


#: seed of the accuracy panel; fixed, so accuracy is a function of the code
ACCURACY_SEED = 2023


@dataclass
class Measurement:
    """What one pass of a workload measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    layer: Optional[Dict[str, float]] = None
    details: Dict[str, object] = field(default_factory=dict)


class GateError(Exception):
    """A correctness gate failed; the run reports ``correct: false``."""


def gate(condition: bool, message: str) -> None:
    """Fail the run unless ``condition`` holds."""
    if not condition:
        raise GateError(message)


# ---------------------------------------------------------------------------
# statistics


def median(values: Sequence[float]) -> float:
    if not values:
        raise GateError("no samples were measured")
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    if not values:
        raise GateError("no samples were measured")
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, the rule ``LatencyWindow.summary`` uses."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1,
               max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


def mae(estimates: np.ndarray, exact: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(estimates) - exact)))


def check_answers(answers: np.ndarray, what: str) -> None:
    """Every answer is a frequency: finite and inside [0, 1]."""
    answers = np.asarray(answers, dtype=float)
    gate(bool(np.all(np.isfinite(answers))), f"{what}: non-finite answer")
    gate(bool(np.all((answers >= 0.0) & (answers <= 1.0))),
         f"{what}: answer outside [0, 1]")


# ---------------------------------------------------------------------------
# resident memory


def _status_kb(key: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise GateError(f"/proc/self/status has no {key}")


def _trim_heap() -> None:
    """Hand freed heap pages back to the kernel (glibc only).

    Without it, how much of an earlier repetition's freed memory still
    counts as resident depends on glibc's adaptive mmap threshold, and
    the next repetition's peak moves with it.
    """
    name = ctypes.util.find_library("c")
    if name is None:
        return
    libc = ctypes.CDLL(name)
    if hasattr(libc, "malloc_trim"):
        libc.malloc_trim(0)


def reset_peak_rss() -> float:
    """Reset the resident high-water mark to the current RSS; return MB.

    Writing ``5`` to ``clear_refs`` resets ``VmHWM``, so the next
    :func:`peak_rss_mb` reports only what the program reached after
    this point, not what input generation touched before it.
    """
    gc.collect()
    _trim_heap()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    return _status_kb("VmHWM") / 1024.0


def peak_rss_mb() -> float:
    return _status_kb("VmHWM") / 1024.0


# ---------------------------------------------------------------------------
# inputs


def bench_dataset(n: int, numerical_domain: int, categorical_domain: int,
                  seed: int):
    """The 6-attribute bench schema: 4 numerical + 2 categorical."""
    from repro.data import normal_dataset
    return normal_dataset(n, num_numerical=4, num_categorical=2,
                          numerical_domain=numerical_domain,
                          categorical_domain=categorical_domain, rng=seed)


def query_batches(schema, batches: int, size: int,
                  dimensions: Sequence[int], seed: int) -> List[list]:
    """``batches`` batches of ``size`` queries at selectivity 0.5.

    Every batch holds the same number of queries of each λ in
    ``dimensions`` (in a seeded order), so batches cost alike and a run
    that reaches fewer of them times the same mix. Numerical attributes
    get BETWEEN predicates and categorical ones IN predicates
    (``random_workload``'s rule).
    """
    from repro.queries.workload import WorkloadSpec, random_workload
    rng = np.random.default_rng(seed)
    per_dim = size // len(dimensions)
    gate(per_dim * len(dimensions) == size,
         f"batch size {size} does not split evenly over λ {dimensions}")
    out = []
    for _ in range(batches):
        batch = [q for d in dimensions for q in random_workload(
            schema, WorkloadSpec(num_queries=per_dim, dimension=d,
                                 selectivity=0.5), rng=rng)]
        out.append([batch[i] for i in rng.permutation(size)])
    return out


def exact_answers(schema, records: np.ndarray, queries) -> np.ndarray:
    """Exact answers of conjunctive queries over one record matrix.

    λ ≤ 2 queries are answered from a histogram of their attributes (one
    ``bincount`` per attribute set), λ ≥ 3 from per-record masks.
    """
    columns = [records[:, t] for t in range(len(schema))]
    histograms: Dict[tuple, np.ndarray] = {}
    out = []
    for query in queries:
        preds = sorted(query, key=lambda p: schema.index_of(p.attribute))
        idx = tuple(schema.index_of(p.attribute) for p in preds)
        sizes = [schema[t].domain_size for t in idx]
        ind = [p.indicator(d) for p, d in zip(preds, sizes)]
        if len(preds) <= 2:
            if idx not in histograms:
                codes = np.ravel_multi_index([columns[t] for t in idx],
                                             sizes)
                counts = np.bincount(codes, minlength=int(np.prod(sizes)))
                histograms[idx] = counts.reshape(sizes) / len(records)
            hist = histograms[idx]
            out.append(ind[0] @ hist if len(preds) == 1
                       else ind[0] @ hist @ ind[1])
            continue
        mask = np.ones(len(records), dtype=bool)
        for t, vec in zip(idx, ind):
            mask &= vec.astype(bool)[columns[t]]
        out.append(np.count_nonzero(mask) / len(records))
    return np.array(out, dtype=float)


def model_state(aggregator) -> Dict[object, np.ndarray]:
    """Every grid estimate and response matrix of a fitted aggregator."""
    state = {plan.key: aggregator.estimate_for(plan.key).frequencies
             for plan in aggregator.plans}
    k = len(aggregator.schema)
    for i in range(k):
        for j in range(i + 1, k):
            state[("matrix", i, j)] = aggregator.response_matrix(i, j)
    return state


def same_state(a: Dict[object, np.ndarray],
               b: Dict[object, np.ndarray]) -> bool:
    """Bit-identity of two :func:`model_state` snapshots."""
    return a.keys() == b.keys() and all(np.array_equal(a[key], b[key])
                                        for key in a)


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> Dict[str, object]:
    """Where and with what a result was produced."""
    from repro.fo import kernels
    return {
        "git_sha": _git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "cpu_model": _cpu_model(),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernel_backends": kernels.backend_report(),
    }


def pin_kernel_tier() -> str:
    """Build/load every kernel before timing; fail on a mixed tier.

    Returns the one tier every kernel resolved to.
    """
    from repro.fo import kernels
    kernels.warm()
    tiers = set(kernels.active_backends().values())
    gate(len(tiers) == 1,
         f"kernels resolve to more than one tier: {sorted(tiers)}")
    return tiers.pop()


class Deadline:
    """Wall-clock budget for one measuring phase."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.end


def accuracy_panel(numerical_domain: int, categorical_domain: int,
                   epsilon: float, users: int = 1_000_000,
                   lowdim: int = 500, highdim: int = 20) -> Dict[str, float]:
    """MAE of a fixed-seed ``Felip.ohg`` model against exact answers.

    The panel's data, collection randomness and queries come from
    :data:`ACCURACY_SEED`, not from the run's seed: one model's MAE moves
    by a quarter (λ ≤ 2) to a third (λ ≥ 3) of itself between seeds,
    more than any regression bound could absorb, while on fixed inputs it
    is an exact function of the estimation code.
    """
    from repro.core.felip import Felip
    data = bench_dataset(users, numerical_domain, categorical_domain,
                         ACCURACY_SEED)
    low, = query_batches(data.schema, 1, lowdim, (1, 2), ACCURACY_SEED + 1)
    high, = query_batches(data.schema, 1, highdim, (3, 4),
                          ACCURACY_SEED + 2)
    model = Felip.ohg(data.schema, epsilon=epsilon).fit(
        data, rng=ACCURACY_SEED).materialize()
    answers_low = model.answer_workload(low)
    answers_high = model.answer_workload(high)
    check_answers(answers_low, "accuracy panel lowdim")
    check_answers(answers_high, "accuracy panel highdim")
    return {"lowdim_mae": mae(answers_low,
                              exact_answers(data.schema, data.records, low)),
            "highdim_mae": mae(answers_high,
                               exact_answers(data.schema, data.records,
                                             high))}
