"""batch-fit: the paper's own pipeline on in-memory records.

``Felip.ohg(ε=4).fit()`` plus ``materialize()`` on 4 M records, repeated
with one seed. At these domains the planner picks 12 GRR and 7 OLH
grids of up to 256 cells, so this is the only workload that runs
client-side perturbation (``collect_reports``, ``grr_apply``), and the
heaviest on OLH support counting and Algorithm 3 over 256×256
matrices, with no wire and almost no answering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import common
from common import Deadline, gate
from hostspeed import HostSpeed
from layers import instrument, layer_metrics
from tracer import Tracer

NAME = "batch-fit"
EPSILON = 4.0
#: the stages between collected reports and a materialized model
MODEL_STAGES = ("estimate", "postprocess", "materialize")


@dataclass(frozen=True)
class Sizes:
    users: int = 4_000_000
    numerical_domain: int = 256
    categorical_domain: int = 16
    setup_per_round: int = 10
    check_queries: int = 200


@dataclass
class Inputs:
    sizes: Sizes
    seed: int
    data: object
    queries: list


def prepare(seed: int, sizes: Sizes = Sizes()) -> Inputs:
    data = common.bench_dataset(sizes.users, sizes.numerical_domain,
                                sizes.categorical_domain, seed)
    queries, = common.query_batches(data.schema, 1, sizes.check_queries,
                                    (1, 2), seed + 1)
    return Inputs(sizes, seed, data, queries)


def accuracy(users: int):
    sizes = Sizes()
    return common.accuracy_panel(sizes.numerical_domain,
                                 sizes.categorical_domain, EPSILON, users)


def construct(inputs: Inputs):
    """``Felip(...)`` + ``plan_grids`` + kernel ``warm`` (``setup_s``)."""
    from repro.core.felip import Felip
    from repro.core.planner import plan_grids
    from repro.fo import kernels
    from repro.fo.registry import kernels_for
    model = Felip.ohg(inputs.data.schema, epsilon=EPSILON)
    plans = plan_grids(inputs.data.schema, model.config, inputs.data.n)
    kernels.warm(kernels_for(p.protocol for p in plans))
    return model


def measure_setup(inputs: Inputs, repeats: int) -> List[float]:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        construct(inputs)
        samples.append(time.perf_counter() - started)
    return samples


@dataclass
class Fit:
    seconds: float
    model_s: float
    peak_mb: float
    model: object


def fit_once(inputs: Inputs) -> Fit:
    from repro.core.felip import Felip
    model = Felip.ohg(inputs.data.schema, epsilon=EPSILON)
    base_mb = common.reset_peak_rss()
    started = time.perf_counter()
    model.fit(inputs.data, rng=inputs.seed)
    model.materialize()
    elapsed = time.perf_counter() - started
    peak = common.peak_rss_mb() - base_mb
    stages = model.aggregator.timings.as_dict()
    return Fit(seconds=elapsed,
               model_s=sum(stages.get(s, 0.0) for s in MODEL_STAGES),
               peak_mb=peak, model=model)


def fingerprint(model, inputs: Inputs):
    """The fitted model's answers to the check queries, and its state."""
    answers = model.answer_workload(inputs.queries)
    common.check_answers(answers, "batch-fit")
    return answers, common.model_state(model.aggregator)


def run(inputs: Inputs, seconds: float,
        tracer: Optional[Tracer] = None) -> common.Measurement:
    """Rounds of setup constructions and one fit until ``seconds`` pass.

    One untimed construction warms up first. Every timing of a round is
    stated at the reference host speed (:mod:`hostspeed`). Traced, the
    pass runs one round.
    """
    host = HostSpeed()
    if tracer is not None:
        instrument(tracer)
    try:
        construct(inputs)
        setup: List[List[float]] = []  # construction times, per round
        deadline = Deadline(seconds)
        fits: List[Fit] = []
        first = None
        host.start()
        while not fits or (tracer is None and not deadline.expired()):
            setup.append(measure_setup(inputs,
                                       inputs.sizes.setup_per_round))
            host.probe()
            if fits:  # free the previous model before the next fit
                fits[-1].model = None
            if tracer is not None:
                tracer.set_request(("fit", len(fits)))
            fit = fit_once(inputs)
            host.probe()
            answers, state = fingerprint(fit.model, inputs)
            if first is None:
                first = (answers, state)
            gate(np.array_equal(answers, first[0])
                 and common.same_state(state, first[1]),
                 "a repeated fit with the same seed gave different answers")
            fits.append(fit)
            host.end_round()
    finally:
        if tracer is not None:
            tracer.uninstall()

    def timings(factors):
        fit_s = [f.seconds * k for f, k in zip(fits, factors)]
        return {
            "setup_s": common.median([t * k for round_, k
                                      in zip(setup, factors)
                                      for t in round_]),
            "throughput_per_s": inputs.data.n * len(fits) / sum(fit_s),
            "latency_p50_ms": common.median(fit_s) * 1e3,
            "latency_p99_ms": common.percentile(fit_s, 0.99) * 1e3,
            "time_to_model_s": common.mean([f.model_s * k for f, k
                                            in zip(fits, factors)]),
        }

    metrics = timings(host.factors)
    metrics["peak_rss_mb"] = common.median([f.peak_mb for f in fits])
    layer = None
    if tracer is not None:
        aggregator = fits[-1].model.aggregator
        layer = layer_metrics(
            tracer, aggregators=[aggregator],
            ingest_stats=aggregator.ingest_stats,
            exec_stats=aggregator.exec_stats,
            queries_answered=len(inputs.queries),
            rows_admitted=aggregator.ingest_stats.accepted_users)
    return common.Measurement(
        metrics=metrics, attempted=len(fits), failed=0, layer=layer,
        details={"fit_s": [f.seconds for f in fits], "setup_s": setup,
                 "unscaled": timings([1.0] * len(fits)),
                 "reference_ms": host.reference_ms,
                 "factors": host.factors})
