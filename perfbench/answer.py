"""answer: one analyst querying a materialized model in a closed loop.

Setup fits and materializes ``Felip.ohg(ε=1)`` on 1 M records. The
analyst then alternates two batch types, each sent only after the
previous answer returned:

* ``lowdim`` — 500 queries, λ = 1 and 2 (BETWEEN on numerical, IN on
  categorical attributes, selectivity 0.5): plan grouping, query
  validation, grid range weights and summed-area lookups;
* ``highdim`` — 10 queries, λ = 3 and 4 (the paper's |Q| = 10):
  Algorithm 4's batched IPF over pair sign tables.

The classes use disjoint layers, and mixed in one batch highdim would
take ~99% of the time and hide lowdim, so they are timed apart. They
alternate round by round (two highdim batches, then lowdim batches for
as long) so both see the same stretch of host time. Highdim supplies the
throughput and median latency, lowdim the p99 over ~1 200 batches:
unscaled, lowdim's median moved with the host's speed by a third between
runs of the same code, more than its p99 and the highdim figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import common
from common import Deadline, gate
from hostspeed import HostSpeed
from layers import instrument, layer_metrics
from tracer import Tracer

NAME = "answer"
EPSILON = 1.0
MODEL_STAGES = ("estimate", "postprocess", "materialize")
LOWDIM = "lowdim"
HIGHDIM = "highdim"
#: highdim batches in one round
HIGHDIM_PER_ROUND = 2
#: lowdim batches between two host-speed probes
PROBE_EVERY = 10


@dataclass(frozen=True)
class Sizes:
    users: int = 1_000_000
    numerical_domain: int = 64
    categorical_domain: int = 8
    lowdim_batch: int = 500
    highdim_batch: int = 10
    #: distinct lowdim batches; the loop cycles through them
    pool: int = 8
    #: distinct highdim batches: a run answers each about twice, so its
    #: highdim figures average over ten query mixes and every repeat is
    #: checked against the first answer
    highdim_pool: int = 10
    #: queries of each class re-answered one by one as the reference
    sample: int = 20
    #: fixed work of the traced pass
    traced_rounds: int = 2


@dataclass
class Inputs:
    sizes: Sizes
    seed: int
    data: object
    batches: Dict[str, List[list]]


def prepare(seed: int, sizes: Sizes = Sizes()) -> Inputs:
    data = common.bench_dataset(sizes.users, sizes.numerical_domain,
                                sizes.categorical_domain, seed)
    batches = {
        LOWDIM: common.query_batches(data.schema, sizes.pool,
                                     sizes.lowdim_batch, (1, 2), seed + 1),
        HIGHDIM: common.query_batches(data.schema, sizes.highdim_pool,
                                      sizes.highdim_batch, (3, 4),
                                      seed + 2),
    }
    return Inputs(sizes, seed, data, batches)


def accuracy(users: int):
    sizes = Sizes()
    return common.accuracy_panel(sizes.numerical_domain,
                                 sizes.categorical_domain, EPSILON, users)


def construct(inputs: Inputs):
    """Fit + materialize: the model the analyst queries (``setup_s``)."""
    from repro.core.felip import Felip
    return Felip.ohg(inputs.data.schema, epsilon=EPSILON).fit(
        inputs.data, rng=inputs.seed).materialize()


class Analyst:
    """Closed-loop analyst that checks every answer it gets back."""

    def __init__(self, model, inputs: Inputs, tracer: Optional[Tracer]):
        self.model = model
        self.inputs = inputs
        self.tracer = tracer
        self.seconds: Dict[str, List[float]] = {LOWDIM: [], HIGHDIM: []}
        self.first: Dict[str, Dict[int, np.ndarray]] = {LOWDIM: {},
                                                         HIGHDIM: {}}
        self.cursor = {LOWDIM: 0, HIGHDIM: 0}

    def batch(self, kind: str) -> float:
        pool = self.inputs.batches[kind]
        index = self.cursor[kind] % len(pool)
        self.cursor[kind] += 1
        if self.tracer is not None:
            self.tracer.set_request((kind, self.cursor[kind]))
        started = time.perf_counter()
        answers = self.model.answer_workload(pool[index])
        elapsed = time.perf_counter() - started
        common.check_answers(answers, kind)
        if index in self.first[kind]:
            gate(np.array_equal(answers, self.first[kind][index]),
                 f"{kind} batch {index} answered differently the second "
                 f"time")
        else:
            self.first[kind][index] = answers
        self.seconds[kind].append(elapsed)
        return elapsed

    def round(self, probe: Callable[[], float]) -> None:
        """``HIGHDIM_PER_ROUND`` highdim batches, then lowdim batches for
        as long as they took.

        That gives a run some twenty highdim batches for their median and
        over a thousand lowdim batches, enough for ten to lie beyond their
        p99. ``probe`` times the host-speed reference after each highdim
        batch and after every ``PROBE_EVERY`` lowdim batches.
        """
        budget = 0.0
        for _ in range(HIGHDIM_PER_ROUND):
            budget += self.batch(HIGHDIM)
            probe()
        spent = 0.0
        batches = 0
        while spent < budget:
            spent += self.batch(LOWDIM)
            batches += 1
            if batches % PROBE_EVERY == 0:
                probe()

    def check_against_single_queries(self) -> None:
        """A sample of each class equals per-query ``Aggregator.answer``."""
        aggregator = self.model.aggregator
        sample = self.inputs.sizes.sample
        for kind in (LOWDIM, HIGHDIM):
            index, answers = next(iter(self.first[kind].items()))
            queries = self.inputs.batches[kind][index]
            picks = range(0, len(queries),
                          max(1, len(queries) // sample))[:sample]
            single = np.array([aggregator.answer(queries[i])
                               for i in picks])
            gate(np.array_equal(single, answers[list(picks)]),
                 f"{kind} batch answers differ from per-query answers")


def run(inputs: Inputs, seconds: float,
        tracer: Optional[Tracer] = None) -> common.Measurement:
    """Rounds until ``seconds`` pass: one setup construction, then
    highdim and lowdim batches (:meth:`Analyst.round`).

    The analyst queries the model of an untimed warm-up construction;
    each round's construction is timed for ``setup_s`` and discarded.
    Every timing of a round is stated at the reference host speed
    (:mod:`hostspeed`). Traced, the pass runs a fixed number of rounds.
    """
    sizes = inputs.sizes
    host = HostSpeed()
    if tracer is not None:
        instrument(tracer)
    try:
        base_mb = common.reset_peak_rss()
        model = construct(inputs)  # warm-up; the analyst's model
        models = [model.aggregator]
        analyst = Analyst(model, inputs, tracer)
        setup, model_s = [], []
        scaled: Dict[str, List[float]] = {LOWDIM: [], HIGHDIM: []}
        deadline = Deadline(seconds)
        host.start()
        rounds = 0
        while True:
            done = {kind: len(analyst.seconds[kind]) for kind in scaled}
            started = time.perf_counter()
            rebuilt = construct(inputs)
            setup.append(time.perf_counter() - started)
            stages = rebuilt.aggregator.timings.as_dict()
            model_s.append(sum(stages.get(s, 0.0) for s in MODEL_STAGES))
            if tracer is not None:
                models.append(rebuilt.aggregator)
            del rebuilt
            host.probe()
            analyst.round(host.probe)
            factor = host.end_round()
            for kind, samples in scaled.items():
                samples.extend(t * factor
                               for t in analyst.seconds[kind][done[kind]:])
            rounds += 1
            if tracer is not None:
                if rounds >= sizes.traced_rounds:
                    break
            elif deadline.expired():
                break
        peak = common.peak_rss_mb() - base_mb
        analyst.check_against_single_queries()
    finally:
        if tracer is not None:
            tracer.uninstall()

    def timings(low, high, setup, model_s):
        return {
            "setup_s": common.median(setup),
            "throughput_per_s": (sizes.highdim_batch * len(high)
                                 / sum(high)),
            "latency_p50_ms": common.median(high) * 1e3,
            "latency_p99_ms": common.percentile(low, 0.99) * 1e3,
            "time_to_model_s": common.mean(model_s),
        }

    factors = host.factors
    metrics = timings(scaled[LOWDIM], scaled[HIGHDIM],
                      [t * f for t, f in zip(setup, factors)],
                      [t * f for t, f in zip(model_s, factors)])
    metrics["peak_rss_mb"] = peak
    low, high = analyst.seconds[LOWDIM], analyst.seconds[HIGHDIM]
    layer = None
    if tracer is not None:
        answered = (len(low) * sizes.lowdim_batch
                    + len(high) * sizes.highdim_batch)
        layer = layer_metrics(tracer, aggregators=models,
                              exec_stats=model.aggregator.exec_stats,
                              queries_answered=answered)
    return common.Measurement(
        metrics=metrics, attempted=len(low) + len(high), failed=0,
        layer=layer,
        details={"rounds": rounds, "lowdim_batches": len(low),
                 "highdim_s": high, "setup_s": setup,
                 "unscaled": timings(low, high, setup, model_s),
                 "reference_ms": host.reference_ms,
                 "factors": factors})
