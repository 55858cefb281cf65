"""wire-ingest: the deployment path.

Pre-encoded report frames stream from one ``WireClient`` session over
loopback into ``IngestionService.serve`` (closed loop, the client's
default 256-frame window), with quarantine admission and periodic
checkpoints; then ``stop()``, the first ``finalize()`` and
``materialize()``. This is the only workload that drives ``wire``,
``service``, ``robustness``, streaming/merge and checkpointing.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import common
from common import Deadline, gate
from hostspeed import HostSpeed
from layers import instrument, layer_metrics
from tracer import Tracer

NAME = "wire-ingest"
EPSILON = 1.0
CLIENT_ID = "perfbench"
PIN = "pin"
HASH_RANGE = "hash_range"
HONEST = "honest"


@dataclass(frozen=True)
class Sizes:
    users: int = 4_000_000
    users_per_frame: int = 500
    #: one forged frame after every this many honest ones
    forge_every: int = 50
    numerical_domain: int = 128
    categorical_domain: int = 8
    checkpoint_every: int = 1024
    setup_per_round: int = 10
    lowdim_queries: int = 200
    highdim_queries: int = 20


def config():
    from repro.core import FelipConfig
    return FelipConfig(epsilon=EPSILON, strategy="ohg",
                       ingest_policy="quarantine")


@dataclass
class Inputs:
    sizes: Sizes
    seed: int
    schema: object
    frames: List[bytes]
    kinds: List[str]
    lowdim: list
    highdim: list
    reference: Dict[str, object]


def accuracy(users: int):
    sizes = Sizes()
    return common.accuracy_panel(sizes.numerical_domain,
                                 sizes.categorical_domain, EPSILON, users)


def _forge(kind: str, report, plan):
    """A frame the service must reject: a forged pin or hash range."""
    from repro.fo.olh import OLHReport
    from repro.wire import encode_report
    if kind == PIN:  # header claims a budget the collection does not run
        return encode_report(report, protocol=plan.protocol,
                             epsilon=EPSILON * 2, num_cells=plan.num_cells,
                             key=plan.key)
    forged = OLHReport(seeds=report.seeds, buckets=report.buckets,
                       hash_range=report.hash_range + 1,
                       domain_size=report.domain_size)
    return encode_report(forged, protocol=plan.protocol, epsilon=EPSILON,
                         num_cells=plan.num_cells, key=plan.key)


def encode_frames(records: np.ndarray, plans, sizes: Sizes, seed: int):
    """Honest frames round-robin over the grids, plus scheduled forgeries.

    Returns ``(frames, kinds)``; forgeries alternate between a forged
    header pin (the service's pin check rejects it) and a forged declared
    ``hash_range`` (the sanitizer rejects it).
    """
    from repro.fo.adaptive import make_oracle
    from repro.wire import encode_report
    oracles = {p.key: make_oracle(p.protocol, EPSILON, p.num_cells)
               for p in plans}
    olh_plans = [p for p in plans if p.protocol == "olh"]
    gate(bool(olh_plans), "no OLH grid to forge a hash range against")
    rng = np.random.default_rng([seed, 1])
    frames: List[bytes] = []
    kinds: List[str] = []
    per = sizes.users_per_frame
    forged = 0
    for index in range(sizes.users // per):
        plan = plans[index % len(plans)]
        rows = records[index * per:(index + 1) * per]
        report = oracles[plan.key].perturb(plan.grid.encode(rows), rng)
        frames.append(encode_report(report, protocol=plan.protocol,
                                    epsilon=EPSILON,
                                    num_cells=plan.num_cells, key=plan.key))
        kinds.append(HONEST)
        if (index + 1) % sizes.forge_every == 0:
            kind = PIN if forged % 2 == 0 else HASH_RANGE
            target = olh_plans[forged % len(olh_plans)]
            bait = oracles[target.key].perturb(
                rng.integers(0, target.num_cells, size=per), rng)
            frames.append(_forge(kind, bait, target))
            kinds.append(kind)
            forged += 1
    return frames, kinds


def prepare(seed: int, sizes: Sizes = Sizes()) -> Inputs:
    from repro.core import StreamingCollector
    from repro.wire import decode_frame
    data = common.bench_dataset(sizes.users, sizes.numerical_domain,
                                sizes.categorical_domain, seed)
    plans = StreamingCollector(data.schema, config(), sizes.users,
                               rng=seed).plans
    frames, kinds = encode_frames(data.records, plans, sizes, seed)
    lowdim, = common.query_batches(data.schema, 1, sizes.lowdim_queries,
                                   (1, 2), seed + 1)
    highdim, = common.query_batches(data.schema, 1, sizes.highdim_queries,
                                    (3, 4), seed + 2)
    schema = data.schema
    del data

    # Reference: the same frames straight into ingest_report (pin
    # forgeries never reach a collector: the service's pin check drops
    # them), finalized and materialized the same way.
    reference = StreamingCollector(schema, config(), sizes.users, rng=seed)
    for frame, kind in zip(frames, kinds):
        if kind != PIN:
            decoded = decode_frame(frame)
            reference.ingest_report(decoded.key, decoded.report)
    model = reference.finalize().materialize()
    expected = {
        "state": common.model_state(model),
        "lowdim": model.answer_workload(lowdim),
        "highdim": model.answer_workload(highdim),
    }
    return Inputs(sizes, seed, schema, frames, kinds, lowdim, highdim,
                  expected)


async def _open_session(inputs: Inputs, ckpt_dir):
    """Collector + service start/serve + connected client (``setup_s``)."""
    from repro.core import StreamingCollector
    from repro.service import IngestionService, WireClient
    collector = StreamingCollector(inputs.schema, config(),
                                   inputs.sizes.users, rng=inputs.seed)
    service = IngestionService(
        collector, checkpoint_every=inputs.sizes.checkpoint_every,
        checkpoint_dir=ckpt_dir)
    await service.start()
    server = await service.serve(port=0)
    port = server.sockets[0].getsockname()[1]
    client = WireClient("127.0.0.1", port, CLIENT_ID)
    await client.connect()
    return collector, service, client


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_setup(inputs: Inputs, repeats: int, *,
                  warm_up: bool = False) -> List[float]:
    """Construction times (plus one untimed warm-up when asked)."""
    ckpt_dir = _fresh_dir(common.WORK / "checkpoints-setup")

    async def run():
        samples = []
        for attempt in range(repeats + warm_up):
            started = time.perf_counter()
            collector, service, client = await _open_session(inputs,
                                                             ckpt_dir)
            elapsed = time.perf_counter() - started
            await client.close()
            await service.stop()
            if attempt >= warm_up:
                samples.append(elapsed)
        return samples

    return asyncio.run(run())


@dataclass
class Stream:
    users: int
    seconds: float
    ack_p50_ms: float
    ack_p99_ms: float
    time_to_model_s: float
    peak_mb: float
    frames: int
    collector: object
    service: object
    client: object
    model: object

    def release(self) -> None:
        self.collector = self.service = self.client = self.model = None


def stream_once(inputs: Inputs) -> Stream:
    """One stream: send every frame, drain, stop, finalize, materialize."""
    ckpt_dir = _fresh_dir(common.WORK / "checkpoints")
    base_mb = common.reset_peak_rss()

    async def run():
        collector, service, client = await _open_session(inputs, ckpt_dir)
        started = time.perf_counter()
        for frame in inputs.frames:
            await client.send(frame)
        await client.drain()
        last_ack = time.perf_counter()
        await client.close()
        await service.stop()
        model = collector.finalize()
        model.materialize()
        done = time.perf_counter()
        return collector, service, client, model, started, last_ack, done

    collector, service, client, model, started, last_ack, done = \
        asyncio.run(run())
    peak = common.peak_rss_mb() - base_mb
    acks = client.stats.ack_latency.summary()
    return Stream(users=service.stats.users_accepted,
                  seconds=last_ack - started, ack_p50_ms=acks["p50_ms"],
                  ack_p99_ms=acks["p99_ms"],
                  time_to_model_s=done - last_ack, peak_mb=peak,
                  frames=len(inputs.frames), collector=collector,
                  service=service, client=client, model=model)


def check_stream(inputs: Inputs, stream: Stream, *, full: bool) -> None:
    """The stream admitted exactly the honest users; its model matches the
    reference bit for bit."""
    kinds = inputs.kinds
    honest = kinds.count(HONEST)
    stats = stream.service.stats
    reasons = stream.collector.ingest_stats.reasons
    expected_users = honest * inputs.sizes.users_per_frame
    gate(stats.users_accepted == expected_users
         and stream.collector.observed == expected_users,
         f"admitted {stats.users_accepted} users, expected "
         f"{expected_users}")
    gate(stats.frames_accepted == honest,
         f"accepted {stats.frames_accepted} frames, expected {honest}")
    gate(stats.frames_rejected == len(kinds) - honest
         and reasons.get("pin-epsilon-mismatch", 0) == kinds.count(PIN)
         and reasons.get("hash-range-mismatch", 0)
         == kinds.count(HASH_RANGE),
         f"rejections {stats.frames_rejected} {reasons} do not match the "
         f"{kinds.count(PIN)} pin and {kinds.count(HASH_RANGE)} hash-range "
         f"forgeries scheduled")
    gate(stats.malformed_frames == 0 and stats.sequence_gaps == 0
         and stats.frames_deduplicated == 0,
         "malformed, gapped or duplicated frames on a clean link")
    gate(stream.client.stats.frames_resent == 0
         and stream.client.stats.reconnects == 0,
         "the client resent frames or reconnected on a clean link")
    gate(stream.client.stats.ack_latency.summary()["count"] == len(kinds),
         "some frames have no ack latency sample")
    reference = inputs.reference
    gate(common.same_state(common.model_state(stream.model),
                           reference["state"]),
         "finalized model differs from the reference collector's")
    lowdim = stream.model.answer_workload(inputs.lowdim)
    common.check_answers(lowdim, "wire-ingest lowdim")
    gate(np.array_equal(lowdim, reference["lowdim"]),
         "lowdim answers differ from the reference collector's")
    if full:
        highdim = stream.model.answer_workload(inputs.highdim)
        common.check_answers(highdim, "wire-ingest highdim")
        gate(np.array_equal(highdim, reference["highdim"]),
             "highdim answers differ from the reference collector's")


def memory_probe(inputs: Inputs, stream: Stream, tracer: Tracer) -> None:
    """Untimed per-call tracemalloc peaks of frame decode and checkpoint
    encode: a sample of frames, and a checkpoint of the final collector
    (the largest encodes of the stream)."""
    import repro.service.ingest as ingest
    import repro.wire.session as session
    tracer.memory_probe = True
    try:
        for frame in inputs.frames[:64]:
            session.decode_frame(frame)
        ingest.save_checkpoint(stream.collector)
    finally:
        tracer.memory_probe = False


def run(inputs: Inputs, seconds: float,
        tracer: Optional[Tracer] = None) -> common.Measurement:
    """Rounds of setup constructions and one stream until ``seconds`` pass.

    Spreading the constructions over the run keeps a short stretch of
    slow host time from setting ``setup_s``. Every timing of a round is
    stated at the reference host speed (:mod:`hostspeed`). Traced, the
    pass runs one round, so its per-layer totals compare across commits.
    """
    host = HostSpeed()
    if tracer is not None:
        instrument(tracer)
    try:
        measure_setup(inputs, 0, warm_up=True)
        deadline = Deadline(seconds)
        setup: List[List[float]] = []  # construction times, per round
        streams: List[Stream] = []
        host.start()
        while not streams or (tracer is None and not deadline.expired()):
            setup.append(measure_setup(inputs,
                                       inputs.sizes.setup_per_round))
            host.probe()
            if streams:  # free the previous stream before the next one
                streams[-1].release()
            if tracer is not None:
                tracer.set_request(("stream", len(streams)))
            stream = stream_once(inputs)
            host.probe()
            check_stream(inputs, stream, full=not streams)
            streams.append(stream)
            host.end_round()
        if tracer is not None:
            memory_probe(inputs, streams[-1], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    def timings(factors):
        pairs = list(zip(streams, factors))
        return {
            "setup_s": common.median([t * k for round_, k
                                      in zip(setup, factors)
                                      for t in round_]),
            "throughput_per_s": (sum(s.users for s in streams)
                                 / sum(s.seconds * k for s, k in pairs)),
            "latency_p50_ms": common.mean([s.ack_p50_ms * k
                                           for s, k in pairs]),
            "latency_p99_ms": common.mean([s.ack_p99_ms * k
                                           for s, k in pairs]),
            "time_to_model_s": common.mean([s.time_to_model_s * k
                                            for s, k in pairs]),
        }

    metrics = timings(host.factors)
    metrics["peak_rss_mb"] = common.median([s.peak_mb for s in streams])
    last = streams[-1]
    layer = None
    if tracer is not None:
        layer = layer_metrics(
            tracer, aggregators=[last.model], service=last.service,
            client=last.client, ingest_stats=last.collector.ingest_stats,
            exec_stats=last.collector.exec_stats,
            queries_answered=len(inputs.lowdim) + len(inputs.highdim),
            rows_admitted=last.collector.ingest_stats.accepted_users)
    return common.Measurement(
        metrics=metrics, attempted=sum(s.frames for s in streams),
        failed=0, layer=layer,
        details={"users_per_s": [s.users / s.seconds for s in streams],
                 "ack_p99_ms": [s.ack_p99_ms for s in streams],
                 "peak_mb": [s.peak_mb for s in streams],
                 "time_to_model_s": [s.time_to_model_s for s in streams],
                 "setup_s": setup,
                 "unscaled": timings([1.0] * len(streams)),
                 "reference_ms": host.reference_ms,
                 "factors": host.factors,
                 "checkpoints": last.service.stats.checkpoints_written})
