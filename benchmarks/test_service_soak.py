"""Soak: one million wire clients through the asyncio ingestion service.

Unlike the pytest-benchmark micro suites, a soak run measures one long
sustained stream, so this test times it directly and writes
``BENCH_service.json`` itself: end-to-end ingest throughput (users/s and
frames/s through decode → pin check → sanitize → merge, with periodic
compaction), the p50/p99 per-frame admission latency, and the
checkpoint cycle at the million-user mark — snapshot size, the
``save_checkpoint`` wall time, the two halves the service runs (the
loop-side cut and the flush-thread file write) and the restore — plus a
bit-identity check that the restored collector finalizes the same
estimates, so the recorded numbers are for a checkpoint that provably
works.

Each write stamps the file with ``benchmarks/record.py``'s provenance
header (commit, CPU, effective cores, date); ``make bench-service`` runs
both suites, so the header names the run that wrote both sections.

The chaos soak measures the same pipeline under sustained network
faults plus a mid-stream service kill restored from the latest
incremental checkpoint: throughput-under-chaos, the recovery-point lag
paid at the crash, and the same bit-identity bar.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.core import FelipConfig, StreamingCollector
from repro.data import normal_dataset
from repro.fo.adaptive import make_oracle
from repro.queries import Query, between
from repro.robustness import NetworkFaultInjector
from benchmarks.record import host_header
from repro.service import (
    IngestionService,
    WireClient,
    checkpoint_meta,
    cut_checkpoint,
    latest_checkpoint,
    restore_checkpoint,
    save_checkpoint,
    write_checkpoint_file,
)
from repro.wire import encode_report

TARGET_USERS = 1_000_000
CHAOS_USERS = 200_000
USERS_PER_FRAME = 500
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def merge_record(key: str, record: dict) -> None:
    """Fold one suite's record into BENCH_service.json in place."""
    existing: dict = {}
    if OUT_PATH.exists():
        try:
            existing = json.loads(OUT_PATH.read_text())
        except (OSError, ValueError):
            existing = {}
        if "target_users" in existing:  # pre-chaos flat layout
            existing = {"soak": existing}
    existing.update(host_header())
    existing[key] = record
    OUT_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True)
                        + "\n")


def build_collector(expected_users: int) -> StreamingCollector:
    schema = normal_dataset(100, num_numerical=2, num_categorical=1,
                            numerical_domain=32, categorical_domain=4,
                            rng=5).schema
    config = FelipConfig(epsilon=1.0, ingest_policy="drop")
    return StreamingCollector(schema, config, expected_users, rng=7)


def client_frames(collector: StreamingCollector, total_users: int):
    """Pre-encoded honest frames, round-robin over the planned grids."""
    rng = np.random.default_rng(99)
    plans = [p for p in collector.plans if p.num_cells >= 2]
    oracles = {p.key: make_oracle(p.protocol, collector.config.epsilon,
                                  p.num_cells) for p in plans}
    frames = []
    users = 0
    index = 0
    while users < total_users:
        plan = plans[index % len(plans)]
        report = oracles[plan.key].perturb(
            rng.integers(0, plan.num_cells, size=USERS_PER_FRAME), rng)
        frames.append(encode_report(
            report, protocol=plan.protocol,
            epsilon=collector.config.epsilon,
            num_cells=plan.num_cells, key=plan.key))
        users += USERS_PER_FRAME
        index += 1
    return frames


def test_service_soak_million_users(tmp_path):
    collector = build_collector(TARGET_USERS)
    frames = client_frames(collector, TARGET_USERS)
    service = IngestionService(collector, max_pending=256,
                               batch_size=64, compact_every=256)

    async def drive():
        started = time.perf_counter()
        async with service:
            for frame in frames:
                await service.submit(frame, source="peer=soak:1")
        return time.perf_counter() - started

    elapsed = asyncio.run(drive())
    assert collector.observed >= TARGET_USERS
    assert service.stats.frames_accepted == len(frames)

    query = Query([between("num_0", 4, 20)])
    expected = collector.finalize().answer(query)

    # save_s is the whole in-memory snapshot: compaction of the frames
    # admitted since the service's last compaction (compact_s, which
    # recopies every row of those grids), then the serialization. The
    # service splits the same snapshot in two: cut_s is what its
    # consumer loop pays, that compaction plus the reference capture and
    # meta rendering; write_s is the flush thread's streamed
    # serialization, fsyncs and rename.
    save_started = time.perf_counter()
    collector.compact()
    compact_elapsed = time.perf_counter() - save_started
    blob = save_checkpoint(collector)
    save_elapsed = time.perf_counter() - save_started
    cut_started = time.perf_counter()
    cut = cut_checkpoint(collector)
    cut_elapsed = compact_elapsed + (time.perf_counter() - cut_started)
    write_started = time.perf_counter()
    path = write_checkpoint_file(tmp_path / "ckpt-0000000000.flck", cut)
    write_elapsed = time.perf_counter() - write_started
    assert path.read_bytes() == blob
    restore_started = time.perf_counter()
    resumed = restore_checkpoint(build_collector(TARGET_USERS), blob)
    restore_elapsed = time.perf_counter() - restore_started
    assert resumed.finalize().answer(query) == expected

    record = {
        "target_users": TARGET_USERS,
        "users_per_frame": USERS_PER_FRAME,
        "users_ingested": int(collector.observed),
        "frames_ingested": service.stats.frames_accepted,
        "bytes_received": service.stats.bytes_received,
        "compactions": service.stats.compactions,
        "elapsed_s": elapsed,
        "users_per_s": collector.observed / elapsed,
        "frames_per_s": service.stats.frames_accepted / elapsed,
        "admission_latency_ms": service.stats.latency_summary(),
        "checkpoint": {
            "bytes": len(blob),
            "save_s": save_elapsed,
            "compact_s": compact_elapsed,
            "cut_s": cut_elapsed,
            "write_s": write_elapsed,
            "restore_s": restore_elapsed,
            "resume_bit_identical": True,
        },
    }
    merge_record("soak", record)


def test_service_chaos_soak_kill_and_recover(tmp_path):
    """Throughput under chaos: faulted links plus a mid-stream kill."""
    baseline = build_collector(CHAOS_USERS)
    frames = client_frames(baseline, CHAOS_USERS)
    half = len(frames) // 2
    query = Query([between("num_0", 4, 20)])

    async def drive_baseline():
        async with IngestionService(baseline, compact_every=256) as svc:
            for frame in frames:
                await svc.submit(frame, source="peer=chaos:base")

    asyncio.run(drive_baseline())
    expected = baseline.finalize().answer(query)

    ckpt_dir = tmp_path / "ckpts"
    collector = build_collector(CHAOS_USERS)
    faults = NetworkFaultInjector(
        drop=set(range(23, len(frames), 101)),
        garble=set(range(57, len(frames), 139)),
        stall={half + 9: 0.005},
        disconnect=set(range(83, len(frames), 157)))

    async def drive_chaos():
        service = IngestionService(collector, max_pending=256,
                                   batch_size=64, compact_every=256,
                                   checkpoint_every=64,
                                   checkpoint_dir=ckpt_dir,
                                   keep_checkpoints=2)
        await service.start()
        server = await service.serve(port=0)
        port = server.sockets[0].getsockname()[1]
        client = WireClient("127.0.0.1", port, "chaos-soak",
                            max_unacked=32, ack_timeout=1.0,
                            backoff_base=0.01, rng=11,
                            fault_injector=faults)
        started = time.perf_counter()
        for frame in frames[:half]:
            await client.send(frame)
        while not service.stats.checkpoints_written:
            await asyncio.sleep(0.005)
        lag_at_kill = service.stats.recovery_point_lag
        await service.abort()  # the crash

        blob = latest_checkpoint(ckpt_dir).read_bytes()
        restore_started = time.perf_counter()
        restored = restore_checkpoint(build_collector(CHAOS_USERS), blob)
        restore_elapsed = time.perf_counter() - restore_started
        revived = IngestionService(restored, max_pending=256,
                                   batch_size=64, compact_every=256,
                                   checkpoint_every=64,
                                   checkpoint_dir=ckpt_dir,
                                   keep_checkpoints=2,
                                   peer_seqs=checkpoint_meta(blob)
                                   ["extra"]["peer_seqs"])
        await revived.start()
        await revived.serve(port=port)
        for frame in frames[half:]:
            await client.send(frame)
        await client.close()
        await revived.stop()
        elapsed = time.perf_counter() - started
        return restored, revived, client, elapsed, lag_at_kill, \
            restore_elapsed

    restored, revived, client, elapsed, lag_at_kill, restore_elapsed = \
        asyncio.run(drive_chaos())

    bit_identical = restored.finalize().answer(query) == expected
    assert bit_identical
    assert restored.observed == CHAOS_USERS

    record = {
        "target_users": CHAOS_USERS,
        "users_per_frame": USERS_PER_FRAME,
        "users_ingested": int(restored.observed),
        "elapsed_s": elapsed,
        "users_per_s_under_chaos": restored.observed / elapsed,
        "faults_injected": dict(faults.injected),
        "total_faults": faults.total_injected,
        "client": {
            "reconnects": client.stats.reconnects,
            "frames_resent": client.stats.frames_resent,
            "ack_stalls": client.stats.ack_stalls,
        },
        "service": {
            "frames_deduplicated": revived.stats.frames_deduplicated,
            "sequence_gaps": revived.stats.sequence_gaps,
            "malformed_frames": revived.stats.malformed_frames,
            "checkpoints_written": revived.stats.checkpoints_written,
        },
        "recovery": {
            "users_lag_at_kill": lag_at_kill,
            "restore_s": restore_elapsed,
            "resume_bit_identical": bit_identical,
        },
    }
    merge_record("chaos", record)
