"""Checkpoints: folded states rendered on the loop, written off it.

The collector folds admitted reports into one fixed-length state per
grid, so a snapshot is a few kilobytes however long the stream. The
service renders the blob on its consumer loop (the blob is the cut) and
a flush thread writes it. These tests pin:

* save → write → restore round trips every streamable protocol, and the
  written file is byte-for-byte the blob;
* the blob describes its instant: later admissions and folds do not
  leak into it, and folded states are read-only;
* version-1 files and tampered version-2 states raise
  ``CheckpointError`` and leave the restore target fresh;
* the retained state and the checkpoint size stay flat as the stream
  grows;
* file I/O runs off the event-loop thread, the rename is made durable
  by a directory fsync, and ``abort()`` abandons an in-flight write
  before its rename and returns only after the writer thread exited.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import stat
import struct
import threading
import zlib

import numpy as np
import pytest

import repro.fo.kernels as kernels
import repro.service.checkpoint as checkpoint
import repro.service.ingest as ingest
from repro.data import normal_dataset
from repro.errors import CheckpointError
from repro.fo.registry import all_specs
from repro.service import (
    IngestionService,
    WireClient,
    checkpoint_meta,
    checkpoint_path,
    latest_checkpoint,
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


def state_vectors(collector):
    return [state.vector for state in collector._states.values()
            if state is not None]


def assert_same_states(got, want):
    assert got._states.keys() == want._states.keys()
    for key, state in want._states.items():
        other = got._states[key]
        if state is None:
            assert other is None
            continue
        assert other.n == state.n
        assert other.vector.dtype == state.vector.dtype
        assert other.vector.tobytes() == state.vector.tobytes()


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
        blob = save_checkpoint(collector, extra=extra)
        path = write_checkpoint_file(checkpoint_path(tmp_path, 0), blob)
        assert path.read_bytes() == blob
        # saving again changes nothing: the first save left no report
        # unfolded
        assert save_checkpoint(collector, extra=extra) == blob
        assert checkpoint_meta(blob)["format_version"] == 2
        restored = restore_checkpoint(make_collector(dataset, **config),
                                      path.read_bytes())
        assert_same_states(restored, collector)
        got, want = restored.finalize(), collector.finalize()
        for plan in want.plans:
            assert np.array_equal(got.estimate_for(plan.key).frequencies,
                                  want.estimate_for(plan.key).frequencies)

    def test_cut_ignores_later_admissions_and_compactions(self, dataset,
                                                          tmp_path):
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:1_500])
        blob = save_checkpoint(collector)  # the cut
        at_cut = make_collector(dataset, protocols=("olh",))
        at_cut.observe(dataset.records[:1_500])
        collector.observe(dataset.records[1_500:3_000])
        collector.compact()
        path = write_checkpoint_file(checkpoint_path(tmp_path, 0), blob)
        restored = restore_checkpoint(
            make_collector(dataset, protocols=("olh",)), path.read_bytes())
        assert_same_states(restored, at_cut)
        assert restored.finalize().answer(QUERY) == \
            at_cut.finalize().answer(QUERY)

    def test_captured_arrays_reject_in_place_writes(self, dataset):
        """A folded state may be shared (with a finalized aggregator, a
        snapshot), so its vector is read-only and a fold builds a new
        state instead of adding into the old one."""
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:1_000])
        key, state = next((k, s) for k, s in collector._states.items()
                          if s is not None)
        before = state.vector.copy()
        assert state.vector.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            state.vector[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            state.vector += 1
        collector.observe(dataset.records[1_000:2_000])
        assert collector._states[key] is not state
        assert collector._states[key].n > state.n
        assert np.array_equal(state.vector, before)

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
        write_checkpoint_file(path, save_checkpoint(collector))
        # the temp file is synced before the rename, the directory after
        assert seen == [(False, False), (True, True)]


class TestZeroCopyRestore:
    """Restore reads the blob through a view and copies only the state
    vectors out of it (kilobytes), never the whole blob."""

    def test_restored_states_are_read_only_copies(self, dataset):
        collector = make_collector(dataset, protocols=("olh",))
        collector.observe(dataset.records[:1_000])
        blob = save_checkpoint(collector)
        restored = restore_checkpoint(
            make_collector(dataset, protocols=("olh",)), blob)
        vectors = state_vectors(restored)
        assert vectors
        whole = np.frombuffer(blob, dtype=np.uint8)
        for vector in vectors:
            assert not vector.flags.writeable
            assert not np.shares_memory(vector, whole)
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)

    @pytest.mark.parametrize("config", STREAMABLE_CONFIGS)
    def test_kernels_get_aligned_arrays_from_an_unaligned_restore(
            self, dataset, config, monkeypatch):
        """The state vectors can start at any byte offset of the blob
        (the meta length moves them); restored, they are aligned copies,
        and the compiled kernels that fold into them get aligned
        input."""
        collector = make_collector(dataset, **config)
        collector.observe(dataset.records[:1_000])
        for pad in range(8):  # the meta length moves every vector
            blob = save_checkpoint(collector, extra={"pad": "x" * pad})
            meta_len = checkpoint._HEADER.unpack_from(blob, 0)[2]
            if (checkpoint._HEADER.size + meta_len) % 8:
                break
        else:
            pytest.fail("no meta length left the vectors unaligned")
        restored = restore_checkpoint(make_collector(dataset, **config),
                                      blob)
        assert all(v.flags.aligned for v in state_vectors(restored))

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
        # new reports fold into the restored states
        for target in (collector, restored):
            target.observe(dataset.records[1_000:2_000])
        assert_same_states(restored, collector)
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


def tampered(blob, mutate):
    """Re-render a checkpoint after ``mutate(meta, vectors)`` (a valid
    CRC and structure, so restore's semantic checks are what fail)."""
    meta, vectors = checkpoint._parse(blob)
    mutate(meta, vectors)
    for entry, vector in zip(meta["states"], vectors):
        entry["dtype"], entry["length"] = vector.dtype.str, len(vector)
    return checkpoint._render(meta, vectors)


def _wrong_length(meta, vectors):
    vectors[0] = np.append(vectors[0], 0)


def _wrong_dtype(meta, vectors):
    vectors[0] = vectors[0].astype(np.float64)


def _negative_n(meta, vectors):
    meta["states"][0]["n"] = -1


def _count_above_n(meta, vectors):
    vectors[0] = vectors[0].copy()
    vectors[0][0] = meta["states"][0]["n"] + 1


def _count_below_zero(meta, vectors):
    vectors[0] = vectors[0].copy()
    vectors[0][-1] = -1


def _unplanned_key(meta, vectors):
    meta["states"][0]["key"] = [97, 98]


def _n_disagrees_with_group(meta, vectors):
    meta["states"][0]["n"] -= 1


def _observed_disagrees(meta, vectors):
    meta["observed"] += 1


class TestFormatVersion2:
    def test_version_1_blob_is_refused_naming_both_versions(self,
                                                            dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:500])
        blob = bytearray(save_checkpoint(collector))
        blob[4] = 1  # the version byte, CRC re-sealed
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
        target = make_collector(dataset)
        with pytest.raises(CheckpointError, match=r"version 1\b.*2"):
            restore_checkpoint(target, bytes(blob))
        assert target.is_fresh()

    @pytest.mark.parametrize("protocol, mutate, match", [
        pytest.param("olh", _wrong_length, "length", id="wrong-length"),
        pytest.param("olh", _wrong_dtype, "int64", id="wrong-dtype"),
        pytest.param("olh", _negative_n, "n must be", id="negative-n"),
        pytest.param("olh", _count_above_n, "lie in", id="olh-above-n"),
        pytest.param("olh", _count_below_zero, "lie in", id="olh-below-0"),
        pytest.param("grr", _count_above_n, "lie in", id="grr-above-n"),
        pytest.param("grr", _count_below_zero, "lie in", id="grr-below-0"),
        pytest.param("olh", _unplanned_key, "not a planned grid",
                     id="unplanned"),
        pytest.param("grr", _n_disagrees_with_group, "admitted",
                     id="n-vs-group-size"),
        pytest.param("grr", _observed_disagrees, "accounting",
                     id="observed-vs-group-sizes"),
    ])
    def test_tampered_state_is_refused_and_target_stays_fresh(
            self, dataset, protocol, mutate, match):
        collector = make_collector(dataset, protocols=(protocol,))
        collector.observe(dataset.records[:2_000])
        blob = save_checkpoint(collector)
        target = make_collector(dataset, protocols=(protocol,))
        with pytest.raises(CheckpointError, match=match):
            restore_checkpoint(target, tampered(blob, mutate))
        assert target.is_fresh()
        restored = restore_checkpoint(target, blob)  # still retryable
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)

    def test_structural_damage_is_refused(self, dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:500])
        blob = save_checkpoint(collector)
        meta_len = checkpoint._HEADER.unpack_from(blob, 0)[2]
        body = blob[:-4]
        for damaged, match in [
                (body[:-8], "truncated"),
                (body + bytes(8), "trailing"),
        ]:
            sealed = damaged + struct.pack(
                "<I", zlib.crc32(damaged))
            with pytest.raises(CheckpointError, match=match):
                restore_checkpoint(make_collector(dataset), sealed)
        meta = json.loads(blob[checkpoint._HEADER.size:
                               checkpoint._HEADER.size + meta_len])
        assert len(meta["states"]) == \
            checkpoint._HEADER.unpack_from(blob, 0)[3]


class TestBoundedState:
    def test_retained_state_and_checkpoint_size_do_not_grow(self, dataset,
                                                            tmp_path):
        """N, then 4N, honest frames through a checkpointing service:
        after stop() the collector holds the same bytes and its latest
        checkpoint is the same size but for the meta document's integer
        digits."""
        probe = make_collector(dataset)

        def stream(rounds):
            frames = []
            for seed in range(rounds):
                frames.extend(wire_frames(probe, users=25, seed=seed))
            directory = tmp_path / f"rounds-{rounds}"

            async def run():
                collector = make_collector(dataset)
                service = IngestionService(collector, compact_every=8,
                                           checkpoint_every=16,
                                           checkpoint_dir=directory)
                await service.start()
                for frame in frames:
                    await service.submit(frame)
                await service.stop()
                return collector

            collector = asyncio.run(run())
            assert collector.observed == 25 * len(frames)
            return (collector.retained_bytes(),
                    latest_checkpoint(directory).read_bytes())

        (small_bytes, small), (large_bytes, large) = stream(8), stream(32)
        assert small_bytes == large_bytes

        def split(blob):
            meta_len = checkpoint._HEADER.unpack_from(blob, 0)[2]
            meta = blob[checkpoint._HEADER.size:
                        checkpoint._HEADER.size + meta_len]
            return re.sub(rb"\d+", b"0", meta), len(blob) - meta_len

        assert split(small) == split(large)
        assert len(large) < 16 * 1024


class TestServiceFlush:
    def test_no_file_io_on_the_event_loop(self, dataset, tmp_path,
                                          monkeypatch):
        """The loop renders each blob (kilobytes); the write, fsyncs and
        rename all run on the flush thread."""
        renders, io = [], []

        def spy(function, threads):
            def wrapper(*args, **kwargs):
                threads.append(threading.get_ident())
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ingest, "save_checkpoint",
                            spy(ingest.save_checkpoint, renders))
        for name in ("fsync", "replace"):
            monkeypatch.setattr(os, name, spy(getattr(os, name), io))
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
        assert set(renders) == {loop_thread}
        assert io, "the checkpoint writer never ran"
        assert loop_thread not in io

    def test_a_failed_cut_fails_the_collection_not_the_consumer(
            self, dataset, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("checkpoint volume gone")

        monkeypatch.setattr(ingest, "save_checkpoint", broken)
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

        def gated(path, blob, **kwargs):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return real_write(path, blob, **kwargs)

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

    @pytest.mark.parametrize("gate_at", ["file-open", "file-fsync"])
    def test_abort_abandons_the_write_and_waits_for_its_thread(
            self, dataset, tmp_path, monkeypatch, gate_at):
        armed, entered, release = (threading.Event(), threading.Event(),
                                   threading.Event())
        # file-open: the flush thread is about to create the temp file;
        # file-fsync: the blob is written, the rename is next
        owner, name, real = ((checkpoint, "open", open)
                             if gate_at == "file-open"
                             else (os, "fsync", os.fsync))

        def gated(*args, **kwargs):
            if armed.is_set() and not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, gated, raising=False)
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
