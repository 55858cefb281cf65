"""Checkpoints cut on the consumer loop, written from the flush thread.

The service's snapshot is two halves: a cut on the event loop that
compacts and captures references (no row copied, no byte serialized),
and a flush thread that streams the frames to disk, chaining every CRC
over the parts it writes. These tests pin that split:

* the streamed file is byte-for-byte ``save_checkpoint`` of the same
  state, for every streamable protocol;
* the cut stays consistent while its write is in flight — later
  admissions and compactions do not leak into the file;
* no checkpoint serialization runs on the event-loop thread;
* the rename is made durable by a directory fsync;
* ``abort()`` abandons an in-flight write and returns only after the
  writer thread has exited, so a revived service owns the directory;
* restore reads one immutable blob through zero-copy views.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import stat
import threading
import types
import zlib

import numpy as np
import pytest

import repro.fo.kernels as kernels
import repro.service.checkpoint as checkpoint
import repro.service.ingest as ingest
from repro.data import normal_dataset
from repro.fo.registry import all_specs
from repro.service import (
    IngestionService,
    WireClient,
    checkpoint_meta,
    checkpoint_path,
    cut_checkpoint,
    list_checkpoints,
    restore_checkpoint,
    save_checkpoint,
    write_checkpoint_file,
)
from repro.wire import decode_frame
from tests.test_service_client import (
    QUERY,
    make_collector,
    serve_port,
    wire_frames,
)

#: one config per streamable protocol (1-D-only backends as OHG's 1-D
#: refinement), plus the default adaptive choice
STREAMABLE_CONFIGS = [pytest.param({}, id="adaptive")] + [
    pytest.param({"strategy": "ohg", "one_d_protocol": spec.name}
                 if spec.one_d_only else {"protocols": (spec.name,)},
                 id=spec.name)
    for spec in all_specs() if spec.streamable]


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(4_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=17)


def report_arrays(collector):
    return [getattr(report, field.name)
            for batch in collector._batches.values() for report in batch
            for field in dataclasses.fields(report)
            if isinstance(getattr(report, field.name), np.ndarray)]


def honest_frames(dataset, rounds=6, users=25):
    probe = make_collector(dataset)
    frames = []
    for seed in range(rounds):
        frames.extend(wire_frames(probe, users=users, seed=seed))
    return frames


async def wait_for(predicate, timeout=10.0):
    for _ in range(int(timeout / 0.005)):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition not reached in time")


class TestCutAndWrite:
    @pytest.mark.parametrize("config", STREAMABLE_CONFIGS)
    def test_written_file_equals_save_checkpoint(self, dataset, tmp_path,
                                                 config):
        collector = make_collector(dataset, **config)
        collector.observe(dataset.records[:1_000])
        collector.observe(dataset.records[1_000:2_200])
        extra = {"peer_seqs": {"sensor-1": 7}}
        path = write_checkpoint_file(
            checkpoint_path(tmp_path, 0),
            cut_checkpoint(collector, extra=extra))
        assert path.read_bytes() == save_checkpoint(collector, extra=extra)

    def test_cut_ignores_later_admissions_and_compactions(self, dataset,
                                                          tmp_path):
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:1_500])
        cut = cut_checkpoint(collector)
        expected = save_checkpoint(collector)  # the same instant
        collector.observe(dataset.records[1_500:3_000])
        collector.compact()
        path = write_checkpoint_file(checkpoint_path(tmp_path, 0), cut)
        assert path.read_bytes() == expected

    def test_captured_arrays_reject_in_place_writes(self, dataset):
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:1_000])
        cut = cut_checkpoint(collector)
        report, pin = cut.frames[0]
        assert collector._batches[pin["key"]][0] is report  # a reference
        assert report.seeds.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            report.seeds[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            report.buckets += 1

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"),
                        reason="no directory descriptors to fsync")
    def test_rename_is_made_durable_by_a_directory_fsync(self, dataset,
                                                         tmp_path,
                                                         monkeypatch):
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:500])
        path = checkpoint_path(tmp_path / "snaps", 0)
        seen = []
        real_fsync = os.fsync

        def spy(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            seen.append((is_dir, path.exists()))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        write_checkpoint_file(path, cut_checkpoint(collector))
        # the temp file is synced before the rename, the directory after
        assert seen == [(False, False), (True, True)]


class TestZeroCopyRestore:
    def test_restored_arrays_are_read_only_views_of_the_blob(self, dataset):
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:1_000])
        blob = save_checkpoint(collector)
        restored = restore_checkpoint(
            make_collector(dataset, protocols=("olh",)), blob)
        arrays = report_arrays(restored)
        assert arrays
        whole = np.frombuffer(blob, dtype=np.uint8)
        for array in arrays:
            assert not array.flags.owndata
            assert not array.flags.writeable
            assert np.shares_memory(array, whole)
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)

    @pytest.mark.parametrize("config", STREAMABLE_CONFIGS)
    def test_kernels_get_aligned_arrays_from_an_unaligned_restore(
            self, dataset, config, monkeypatch):
        """Frames start at any byte offset of the blob, so a restored
        array can sit off its dtype's alignment; the compiled kernels
        dereference typed pointers and must still get aligned input."""
        collector = make_collector(dataset, **config)
        collector.observe(dataset.records[:1_000])
        for pad in range(8):  # the meta length moves every frame
            blob = save_checkpoint(collector, extra={"pad": "x" * pad})
            restored = restore_checkpoint(make_collector(dataset, **config),
                                          blob)
            if not all(a.flags.aligned for a in report_arrays(restored)):
                break
        else:
            pytest.fail("no meta length left a restored array unaligned")

        seen = []
        real_resolve = kernels._resolve

        def resolve(name):
            backend, kernel = real_resolve(name)

            def recorded(*args):
                for arg in args:
                    seen.extend(arg if isinstance(arg, list) else [arg])
                return kernel(*args)
            return backend, recorded

        monkeypatch.setattr(kernels, "_resolve", resolve)
        # support sweeps over the restored rows, then folds of the
        # restored sufficient statistics into new reports
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)
        for target in (collector, restored):
            target.observe(dataset.records[1_000:2_000])
            target.compact()
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)
        arrays = [a for a in seen if isinstance(a, np.ndarray)]
        assert arrays
        assert all(a.flags.aligned for a in arrays)

    def test_mutable_buffer_is_copied_once(self, dataset):
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:1_000])
        buffer = bytearray(save_checkpoint(collector))
        restored = restore_checkpoint(
            make_collector(dataset, protocols=("olh",)), buffer)
        assert checkpoint_meta(buffer)["observed"] == collector.observed
        buffer[:] = bytes(len(buffer))  # the caller reuses its buffer
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)


class TestServiceFlush:
    def test_no_serialization_on_the_event_loop(self, dataset, tmp_path,
                                                monkeypatch):
        threads = []

        def spy(function):
            def wrapper(*args, **kwargs):
                threads.append(threading.get_ident())
                return function(*args, **kwargs)
            return wrapper

        for name in ("encode_report", "encode_report_parts"):
            if hasattr(checkpoint, name):
                monkeypatch.setattr(checkpoint, name,
                                    spy(getattr(checkpoint, name)))
        monkeypatch.setattr(checkpoint, "zlib",
                            types.SimpleNamespace(crc32=spy(zlib.crc32)))
        frames = honest_frames(dataset, rounds=4)

        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector, checkpoint_every=3,
                                       checkpoint_dir=tmp_path)
            await service.start()
            for frame in frames:
                await service.submit(frame)
                await asyncio.sleep(0)
            await service.stop()  # the final snapshot too
            return threading.get_ident(), service

        loop_thread, service = asyncio.run(run())
        assert service.stats.checkpoints_written >= 2
        assert threads, "the checkpoint serializer never ran"
        assert loop_thread not in threads

    def test_a_failed_cut_fails_the_collection_not_the_consumer(
            self, dataset, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("checkpoint volume gone")

        monkeypatch.setattr(ingest, "cut_checkpoint", broken)
        frames = honest_frames(dataset, rounds=3)

        async def run():
            service = IngestionService(make_collector(dataset),
                                       checkpoint_every=2,
                                       checkpoint_dir=tmp_path,
                                       max_pending=2)
            await service.start()
            with pytest.raises(OSError, match="volume gone"):
                for frame in frames:
                    await asyncio.wait_for(service.submit(frame), 10)
                    await asyncio.sleep(0.005)
            with pytest.raises(OSError, match="volume gone"):
                await asyncio.wait_for(service.stop(), 10)

        asyncio.run(run())
        assert list_checkpoints(tmp_path) == []

    def test_cut_is_consistent_while_its_write_is_in_flight(
            self, dataset, tmp_path, monkeypatch):
        """Gate the first write; admit more frames and compactions while
        it waits; the file still restores to exactly the cut."""
        entered, release = threading.Event(), threading.Event()
        real_write = ingest.write_checkpoint_file

        def gated(path, cut, **kwargs):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return real_write(path, cut, **kwargs)

        monkeypatch.setattr(ingest, "write_checkpoint_file", gated)
        frames = honest_frames(dataset)

        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector, compact_every=3,
                                       checkpoint_every=4,
                                       checkpoint_dir=tmp_path,
                                       keep_checkpoints=10)
            await service.start()
            port = await serve_port(service)
            async with WireClient("127.0.0.1", port, "agg-1",
                                  max_unacked=4) as client:
                for frame in frames[:8]:
                    await client.send(frame)
                await wait_for(entered.is_set)
                for frame in frames[8:]:
                    await client.send(frame)
                await client.drain()  # admitted and acked past the cut
                assert service.stats.checkpoints_written == 0
                release.set()
            await service.stop()
            return service

        service = asyncio.run(run())
        assert service.stats.frames_accepted == len(frames)
        blob = checkpoint_path(tmp_path, 0).read_bytes()
        meta = checkpoint_meta(blob)
        cut_seq = meta["extra"]["peer_seqs"]["agg-1"]
        # frames and at least one compaction arrived after the cut
        assert 4 <= cut_seq <= len(frames) - 3

        reference = make_collector(dataset)
        for frame in frames[:cut_seq]:
            decoded = decode_frame(frame)
            assert reference.ingest_report(decoded.key, decoded.report)
        restored = restore_checkpoint(make_collector(dataset), blob)
        assert restored.observed == meta["observed"] == reference.observed
        got, want = restored.finalize(), reference.finalize()
        for plan in want.plans:
            assert np.array_equal(got.estimate_for(plan.key).frequencies,
                                  want.estimate_for(plan.key).frequencies)
        assert got.answer(QUERY) == want.answer(QUERY)

    @pytest.mark.parametrize("gate_at", ["mid-write", "file-fsync"])
    def test_abort_abandons_the_write_and_waits_for_its_thread(
            self, dataset, tmp_path, monkeypatch, gate_at):
        armed, entered, release = (threading.Event(), threading.Event(),
                                   threading.Event())
        # mid-write: the header and meta are in the file, the frames not;
        # file-fsync: every part is written, the rename is next
        owner, name = ((checkpoint, "encode_report_parts")
                       if gate_at == "mid-write" else (os, "fsync"))
        real = getattr(owner, name)

        def gated(*args, **kwargs):
            if armed.is_set() and not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, gated)
        writers_running = []
        real_write = ingest.write_checkpoint_file

        def tracked(*args, **kwargs):
            writers_running.append(1)
            try:
                return real_write(*args, **kwargs)
            finally:
                writers_running.pop()

        monkeypatch.setattr(ingest, "write_checkpoint_file", tracked)
        frames = honest_frames(dataset)
        half = len(frames) // 2

        async def crash():
            service = IngestionService(make_collector(dataset),
                                       checkpoint_every=4,
                                       checkpoint_dir=tmp_path,
                                       keep_checkpoints=10)
            await service.start()
            for frame in frames[:4]:
                await service.submit(frame)
            await wait_for(lambda: service.stats.checkpoints_written == 1)
            armed.set()
            for frame in frames[4:half]:
                await service.submit(frame)
            await wait_for(entered.is_set)
            aborting = asyncio.create_task(service.abort())
            await asyncio.sleep(0.05)
            assert not aborting.done()  # waits for the blocked writer
            release.set()
            await asyncio.wait_for(aborting, timeout=30)
            assert not writers_running  # the thread has exited

        asyncio.run(crash())
        assert [p.name for p in list_checkpoints(tmp_path)] == \
            [checkpoint_path(tmp_path, 0).name]
        abandoned = checkpoint_path(tmp_path, 1)
        assert abandoned.with_name(abandoned.name + ".tmp").exists()

        survivor = checkpoint_path(tmp_path, 0).read_bytes()
        restored = restore_checkpoint(make_collector(dataset), survivor)

        async def revive():
            service = IngestionService(restored, checkpoint_dir=tmp_path,
                                       keep_checkpoints=10)
            await service.start()
            for frame in frames[half:]:
                await service.submit(frame)
            await service.stop()  # its first checkpoint: index 1 again

        asyncio.run(revive())
        assert [p.name for p in list_checkpoints(tmp_path)] == \
            [checkpoint_path(tmp_path, i).name for i in (0, 1)]
        revived = restore_checkpoint(make_collector(dataset),
                                     abandoned.read_bytes())
        assert revived.observed == restored.observed
        assert revived.finalize().answer(QUERY) == \
            restored.finalize().answer(QUERY)
