"""Resilient wire client, per-peer admission, service-driven checkpoints.

The headline chaos property (faults-marked): a sequenced-session client
streaming through a deterministic :class:`NetworkFaultInjector` — drops,
garbles, stalls, disconnects on both ends, plus a hard service kill
restored from its latest on-disk checkpoint — finalizes **bit-identical**
estimates to an unfaulted run. Zero lost users, zero double-counted
users: at-least-once delivery from client retention + reconnect resend,
at-most-once admission from the server's per-client sequence watermark,
and the durable/acked watermark split bridging the crash.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib

import numpy as np
import pytest

from repro.core import FelipConfig, StreamingCollector
from repro.data import normal_dataset
from repro.errors import (CheckpointError, ClientError, IngestError,
                          PayloadError, WireError)
from repro.fo.adaptive import make_oracle
from repro.fo.olh import OLHReport
from repro.queries import Query, between
from repro.robustness import NetworkFaultInjector, backoff_delay
from repro.robustness.attacks import forge_report
from repro.service import (
    IngestionService,
    PeerAdmission,
    PeerLimits,
    TokenBucket,
    WireClient,
    checkpoint_index,
    checkpoint_meta,
    latest_checkpoint,
    list_checkpoints,
    restore_checkpoint,
    save_checkpoint,
)
from repro.wire import encode_report
from repro.wire.session import (
    SequencedDecoder,
    ack_line,
    encode_envelope,
    hello_line,
    parse_ack,
    parse_hello,
    parse_session_reply,
    refusal_line,
    session_reply,
)

QUERY = Query([between("num_0", 4, 20)])


@pytest.fixture(scope="module")
def dataset():
    return normal_dataset(4_000, num_numerical=2, num_categorical=1,
                          numerical_domain=32, categorical_domain=4,
                          rng=17)


def make_collector(dataset, mode="quarantine", seed=99, **kw):
    config = FelipConfig(epsilon=1.0, ingest_policy=mode, **kw)
    return StreamingCollector(dataset.schema, config, dataset.n,
                              rng=seed)


def wire_frames(collector, users=40, seed=1, epsilon=None):
    """One honest frame per planned (non-trivial) grid."""
    rng = np.random.default_rng(seed)
    epsilon = collector.config.epsilon if epsilon is None else epsilon
    frames = []
    for plan in collector.plans:
        if plan.num_cells < 2:
            continue
        oracle = make_oracle(plan.protocol, epsilon, plan.num_cells)
        report = oracle.perturb(
            rng.integers(0, plan.num_cells, size=users), rng)
        frames.append(encode_report(report, protocol=plan.protocol,
                                    epsilon=epsilon,
                                    num_cells=plan.num_cells,
                                    key=plan.key))
    return frames


def poison_frame(collector):
    """An intact frame (envelope-ready, both CRCs valid) whose payload
    fails report construction: an OLH bucket outside its hash range, as
    a hostile client that skips the report's validation can send."""
    report = forge_report(OLHReport, seeds=np.arange(4, dtype=np.uint64),
                          buckets=np.array([0, 1, 2, 9], dtype=np.uint64),
                          hash_range=3, domain_size=8)
    return encode_report(report, protocol="olh",
                         epsilon=collector.config.epsilon, num_cells=8,
                         key=(0,))


async def serve_port(service, **kw):
    server = await service.serve(port=0, **kw)
    return server.sockets[0].getsockname()[1]


# ----------------------------------------------------------------------
# session codec


class TestSessionCodec:
    def test_hello_reply_ack_round_trip(self):
        assert parse_hello(hello_line("sensor.7:a-b_c")) == "sensor.7:a-b_c"
        assert parse_session_reply(session_reply(12, 8)) == (12, 8)
        assert parse_ack(ack_line(5, 3)) == (5, 3)

    def test_refusal_and_garbage_raise(self):
        with pytest.raises(WireError, match="session refused: banned"):
            parse_session_reply(refusal_line("banned for 2s"))
        with pytest.raises(WireError):
            parse_hello(b"FELIP-SESSION 99 client\n")  # bad version
        with pytest.raises(WireError):
            parse_hello(b"FELIP-SESSION 1 bad id with spaces\n")
        with pytest.raises(WireError):
            parse_ack(b"ACK 3 9\n")  # durable ahead of acked
        with pytest.raises(WireError):
            parse_ack(b"\xff\xfe\n")

    def test_sequenced_decoder_counts_envelope_bytes(self, dataset):
        frame = wire_frames(make_collector(dataset), users=5)[0]
        stream = encode_envelope(3, frame) + encode_envelope(4, frame)
        decoder = SequencedDecoder()
        out = []
        for i in range(0, len(stream), 7):  # ragged chunks
            out.extend(decoder.feed(stream[i:i + 7]))
        assert [(seq, nbytes) for seq, _, nbytes in out] == \
            [(3, len(frame) + 12), (4, len(frame) + 12)]
        assert decoder.pending_bytes == 0

    def test_sequenced_decoder_rejects_bad_magic(self):
        decoder = SequencedDecoder()
        with pytest.raises(WireError, match="envelope magic"):
            list(decoder.feed(b"NOPE" + b"\x00" * 20))
        assert decoder.pending_bytes == 24

    def test_sequenced_decoder_consumes_poison_frame(self, dataset):
        collector = make_collector(dataset)
        honest = wire_frames(collector, users=5)[0]
        poison = poison_frame(collector)
        stream = (encode_envelope(1, honest) + encode_envelope(2, poison)
                  + encode_envelope(3, honest))
        decoder = SequencedDecoder()
        out = []
        for i in range(0, len(stream), 11):  # ragged chunks
            out.extend(decoder.feed(stream[i:i + 11]))
        assert [seq for seq, _, _ in out] == [1, 2, 3]
        assert isinstance(out[1][1], PayloadError)
        assert out[1][2] == len(poison) + 12
        assert not isinstance(out[2][1], PayloadError)
        assert decoder.pending_bytes == 0

    def test_sequenced_decoder_still_raises_on_crc_mismatch(self, dataset):
        corrupt = bytearray(poison_frame(make_collector(dataset)))
        corrupt[-1] ^= 0x01  # payload byte: the payload CRC now fails
        decoder = SequencedDecoder()
        with pytest.raises(WireError, match="CRC") as caught:
            list(decoder.feed(encode_envelope(1, bytes(corrupt))))
        assert not isinstance(caught.value, PayloadError)
        assert decoder.pending_bytes == len(corrupt) + 12

    def test_backoff_schedule_is_shared_and_deterministic(self):
        assert backoff_delay(3, 0.1) == pytest.approx(0.8)
        assert backoff_delay(9, 0.1, cap=2.0) == 2.0
        rng_a, rng_b = (np.random.default_rng(5) for _ in range(2))
        a = backoff_delay(2, 0.1, jitter=0.5, rng=rng_a)
        assert a == backoff_delay(2, 0.1, jitter=0.5, rng=rng_b)
        assert 0.2 <= a <= 0.4


# ----------------------------------------------------------------------
# per-peer admission control


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmission:
    def test_token_bucket_reports_waits_and_serializes_debt(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=5.0, clock=clock)
        assert bucket.request(5.0) == 0.0          # burst covered
        assert bucket.request(1.0) == pytest.approx(0.1)
        assert bucket.request(1.0) == pytest.approx(0.2)  # debt queues
        clock.now += 0.2                            # debt refilled
        assert bucket.request(1.0) == pytest.approx(0.1)

    def test_flooding_peer_throttled_honest_peer_untouched(self):
        clock = FakeClock()
        admission = PeerAdmission(
            PeerLimits(frames_per_second=10.0, burst_frames=2.0),
            clock=clock)
        flood_waits = [admission.throttle("flood", 100) for _ in range(10)]
        assert flood_waits[0] == 0.0
        assert flood_waits[-1] > flood_waits[2] > 0.0
        assert admission.throttle("honest", 100) == 0.0

    def test_bans_escalate_doubling_to_cap(self):
        clock = FakeClock()
        limits = PeerLimits(ban_after=2, ban_base_seconds=1.0,
                            ban_cap_seconds=3.0)
        admission = PeerAdmission(limits, clock=clock)
        assert not admission.record_rejection("evil")
        assert admission.record_rejection("evil")       # level 1: 1s
        assert admission.is_banned("evil")
        assert "banned" in admission.connect("evil")
        clock.now += 1.01
        assert not admission.is_banned("evil")
        for _ in range(2):
            admission.record_rejection("evil")          # level 2: 2s
        assert admission.as_dict()["banned"]["evil"] == \
            pytest.approx(2.0, abs=0.02)
        clock.now += 2.01
        for _ in range(2):
            admission.record_rejection("evil")          # level 3: capped
        assert admission.as_dict()["banned"]["evil"] == \
            pytest.approx(3.0, abs=0.02)
        assert admission.bans_issued == 3
        assert admission.as_dict()["ban_levels"] == {"evil": 3}

    def test_connection_quota(self):
        admission = PeerAdmission(PeerLimits(max_connections=2),
                                  clock=FakeClock())
        assert admission.connect("p") is None
        assert admission.connect("p") is None
        assert "quota" in admission.connect("p")
        admission.disconnect("p")
        assert admission.connect("p") is None

    def test_tracked_peers_bounded_by_lru(self):
        admission = PeerAdmission(PeerLimits(frames_per_second=1.0),
                                  clock=FakeClock(), max_peers=3)
        for peer in "abcd":
            admission.throttle(peer, 1)
        assert admission.as_dict()["tracked_peers"] == 3


class TestAdmissionOverSockets:
    def test_flood_is_throttled_not_shed(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(
                collector,
                limits=PeerLimits(frames_per_second=400.0,
                                  burst_frames=1.0))
            await service.start()
            port = await serve_port(service)
            frames = wire_frames(collector, users=10) * 3
            async with WireClient("127.0.0.1", port, "flood") as client:
                for frame in frames:
                    await client.send(frame)
            await service.stop()
            return service, len(frames)

        service, n = asyncio.run(run())
        assert service.stats.frames_accepted == n  # throttled, not shed
        assert service.stats.frames_throttled > 0
        assert service.stats.throttle_seconds > 0.0

    def test_garbage_peer_gets_banned_then_refused(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(
                collector,
                limits=PeerLimits(ban_after=1, ban_base_seconds=60.0))
            await service.start()
            port = await serve_port(service)
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"\xde\xad\xbe\xef" * 8)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(200):
                if service.stats.peers_banned:
                    break
                await asyncio.sleep(0.01)
            client = WireClient("127.0.0.1", port, "late-honest")
            with pytest.raises(ClientError, match="refused.*banned"):
                await client.connect()
            await service.stop()
            return service

        service = asyncio.run(run())
        assert service.stats.peers_banned == 1
        assert service.stats.connections_denied == 1
        assert service.admission.bans_issued == 1

    def test_connection_quota_refusal_is_terminal_for_client(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(
                collector, limits=PeerLimits(max_connections=1))
            await service.start()
            port = await serve_port(service)
            _, holder = await asyncio.open_connection("127.0.0.1", port)
            await asyncio.sleep(0.05)  # let the handler claim the quota
            client = WireClient("127.0.0.1", port, "second")
            with pytest.raises(ClientError, match="refused.*quota"):
                await client.connect()
            holder.close()
            await holder.wait_closed()
            await service.stop()
            return service

        service = asyncio.run(run())
        assert service.stats.connections_denied == 1


# ----------------------------------------------------------------------
# wire client


class TestWireClient:
    def test_streams_acks_and_frees_durable_frames(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector)
            await service.start()
            port = await serve_port(service)
            frames = []
            for seed in range(3):
                frames.extend(wire_frames(collector, users=20, seed=seed))
            async with WireClient("127.0.0.1", port, "sensor-1",
                                  max_unacked=4) as client:
                for frame in frames:
                    await client.send(frame)
            await service.stop()
            return collector, service, client, len(frames)

        collector, service, client, n = asyncio.run(run())
        assert client.stats.frames_sent == n
        assert client.stats.frames_resent == 0
        assert client.acked_seq == n
        # no checkpointing: acked == durable, so retention is empty
        assert client.durable_seq == n
        assert client.pending_frames == 0
        assert service.stats.frames_accepted == n
        assert service.stats.acks_sent == n
        assert service.stats.frames_deduplicated == 0
        assert collector.observed == n * 20
        assert client.stats.ack_latency.summary()["count"] > 0

    def test_survives_server_side_disconnects(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector)
            await service.start()
            faults = NetworkFaultInjector(server_disconnect={3, 7})
            port = await serve_port(service, fault_injector=faults)
            frames = []
            for seed in range(2):
                frames.extend(wire_frames(collector, users=15, seed=seed))
            async with WireClient("127.0.0.1", port, "sensor-2",
                                  max_unacked=3, ack_timeout=0.5,
                                  backoff_base=0.01, rng=3) as client:
                for frame in frames:
                    await client.send(frame)
            await service.stop()
            return collector, service, client, faults, len(frames)

        collector, service, client, faults, n = asyncio.run(run())
        assert faults.injected.get("server_disconnect") == 2
        assert client.stats.reconnects >= 2
        # exactly-once despite the chaos: every user counted exactly once
        assert collector.observed == n * 15
        assert service.stats.users_accepted == collector.observed

    def test_survives_client_side_drop_garble_stall_disconnect(
            self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector)
            await service.start()
            port = await serve_port(service)
            frames = []
            for seed in range(2):
                frames.extend(wire_frames(collector, users=15, seed=seed))
            faults = NetworkFaultInjector(drop={1}, garble={4},
                                          stall={6: 0.01},
                                          disconnect={8})
            async with WireClient("127.0.0.1", port, "sensor-3",
                                  max_unacked=3, ack_timeout=0.5,
                                  backoff_base=0.01, rng=3,
                                  fault_injector=faults) as client:
                for frame in frames:
                    await client.send(frame)
            await service.stop()
            return collector, service, client, faults, len(frames)

        collector, service, client, faults, n = asyncio.run(run())
        assert faults.total_injected == 4
        assert client.stats.reconnects >= 2
        assert client.stats.frames_resent >= 1
        # a drop surfaces as a sequence gap; a garble as malformed bytes
        # or a gap (if the flipped bit lands in the envelope header)
        assert service.stats.sequence_gaps + \
            service.stats.malformed_frames >= 2
        assert collector.observed == n * 15

    @pytest.mark.parametrize("mode", ["drop", "quarantine"])
    def test_poison_frame_rejected_in_sequence(self, dataset, mode):
        """A frame whose payload fails report construction is charged,
        acked and skipped; the session and every later frame survive."""
        async def run():
            collector = make_collector(dataset, mode=mode)
            service = IngestionService(collector)
            await service.start()
            port = await serve_port(service)
            honest = []
            for seed in range(2):
                honest.extend(wire_frames(collector, users=20, seed=seed))
            frames = honest[:3] + [poison_frame(collector)] + honest[3:]
            async with WireClient("127.0.0.1", port, "sensor-p",
                                  max_unacked=4) as client:
                for frame in frames:
                    await client.send(frame)
            await service.stop()
            return collector, service, client, len(honest), len(frames)

        collector, service, client, honest, n = asyncio.run(run())
        assert client.stats.frames_resent == 0
        assert client.stats.reconnects == 0
        assert client.acked_seq == n
        assert service.stats.malformed_frames == 1
        assert service.stats.acks_sent == n
        assert service.stats.frames_accepted == honest
        assert collector.observed == honest * 20
        assert collector.ingest_stats.reasons == {"malformed-frame": 1}
        quarantined = collector.ingest_stats.quarantine
        if mode == "quarantine":
            assert [e["reason"] for e in quarantined] == ["malformed-frame"]
            assert quarantined[0]["source"].startswith("peer=")
        else:
            assert quarantined == []

    def test_poison_frame_fails_strict_service(self, dataset):
        async def run():
            collector = make_collector(dataset, mode="strict")
            service = IngestionService(collector)
            await service.start()
            port = await serve_port(service)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(hello_line("sensor-s")
                         + encode_envelope(1, poison_frame(collector)))
            await writer.drain()
            assert parse_session_reply(await reader.readline()) == (0, 0)
            for _ in range(300):
                if service.stats.malformed_frames:
                    break
                await asyncio.sleep(0.01)
            writer.close()
            with pytest.raises(IngestError, match="malformed-frame"):
                await service.stop()
            return service

        service = asyncio.run(run())
        assert service.stats.malformed_frames == 1
        assert service.stats.acks_sent == 0

    def test_unreachable_server_exhausts_budget(self):
        async def run():
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            client = WireClient("127.0.0.1", port, "nobody",
                                max_connect_attempts=3,
                                backoff_base=0.001)
            with pytest.raises(ClientError, match="unreachable after 3"):
                await client.connect()
            return client

        client = asyncio.run(run())
        assert client.stats.connect_failures == 3
        assert client.stats.connects == 0

    def test_client_id_validated_eagerly(self):
        with pytest.raises(WireError):
            WireClient("127.0.0.1", 1, "has spaces")


# ----------------------------------------------------------------------
# service lifecycle (consumer-death fix, stop semantics)


class TestServiceLifecycle:
    def test_consumer_survives_unexpected_exception(self, dataset):
        """A surprise exception must not kill the consumer silently:
        submitters would deadlock on a full queue. Instead it surfaces
        from subsequent submit() calls and from stop()."""
        async def run():
            collector = make_collector(dataset)
            frames = wire_frames(collector, users=10)

            def boom(*args, **kwargs):
                raise RuntimeError("sanitizer exploded")

            collector.ingest_report = boom
            service = IngestionService(collector, max_pending=2,
                                       batch_size=1)
            await service.start()

            async def flood():
                with pytest.raises(RuntimeError, match="exploded"):
                    for _ in range(100):
                        await service.submit(frames[0])

            await asyncio.wait_for(flood(), timeout=10)  # no deadlock
            with pytest.raises(RuntimeError, match="exploded"):
                await service.stop()
            return service

        service = asyncio.run(run())
        assert service.stats.frames_accepted == 0

    def test_socket_garbage_charges_actual_bytes(self, dataset):
        """Satellite fix: undecodable socket bytes are charged at their
        real size (PR7 charged zero) and never counted as a submitted
        frame."""
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector)
            await service.start()
            port = await serve_port(service)
            frame = wire_frames(collector, users=10)[0]
            junk = b"\xde\xad\xbe\xef" * 25
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(frame + junk)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(300):
                if service.stats.malformed_frames:
                    break
                await asyncio.sleep(0.01)
            await service.stop()
            return service, len(frame), len(junk)

        service, frame_len, junk_len = asyncio.run(run())
        assert service.stats.frames_submitted == 1   # the real frame only
        assert service.stats.frames_accepted == 1
        assert service.stats.malformed_frames == 1
        assert service.stats.bytes_received == frame_len + junk_len

    def test_stop_closes_servers_and_unblocks_handlers(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector)
            await service.start()
            port = await serve_port(service)
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"FLW1\x01")  # partial frame: handler blocks
            await writer.drain()
            await asyncio.sleep(0.05)
            await asyncio.wait_for(service.stop(), timeout=5)
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(run())

    def test_aexit_prefers_body_exception_over_strict_failure(
            self, dataset):
        async def run():
            collector = make_collector(dataset, mode="strict")
            with pytest.raises(ValueError, match="body error"):
                async with IngestionService(collector) as service:
                    forged = wire_frames(collector, epsilon=3.0)[0]
                    await service.submit(forged)
                    await asyncio.sleep(0.05)  # let the consumer fail
                    raise ValueError("body error")
            return service

        service = asyncio.run(run())
        assert service._failure is not None  # captured, not lost

    def test_stop_is_idempotent_and_service_restartable(self, dataset):
        async def run():
            collector = make_collector(dataset)
            frames = wire_frames(collector, users=10, seed=0)
            service = IngestionService(collector)
            await service.start()
            await service.submit(frames[0])
            await service.stop()
            await service.stop()  # no-op, no error
            await service.start()
            await service.submit(frames[1])
            await service.stop()
            return service

        service = asyncio.run(run())
        assert service.stats.frames_accepted == 2

    def test_frames_racing_the_stop_sentinel_are_admitted(self, dataset):
        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector, batch_size=2)
            await service.start()
            frames = wire_frames(collector, users=10)
            for frame in frames:
                await service.submit(frame)
            await service.stop()  # no yield between submits and stop
            return service, len(frames)

        service, n = asyncio.run(run())
        assert service.stats.frames_accepted == n


# ----------------------------------------------------------------------
# service-driven checkpoints


_HEADER = struct.Struct("<4sBQI")


def tamper_meta(blob, mutate):
    """Rewrite a checkpoint's meta document (CRC kept valid)."""
    magic, version, meta_len, nframes = _HEADER.unpack_from(blob, 0)
    meta = json.loads(blob[_HEADER.size:_HEADER.size + meta_len])
    mutate(meta)
    raw = json.dumps(meta, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    body = (_HEADER.pack(magic, version, len(raw), nframes) + raw
            + blob[_HEADER.size + meta_len:-4])
    return body + struct.pack("<I", zlib.crc32(body))


class TestServiceCheckpoints:
    def test_incremental_checkpoints_written_pruned_resumable(
            self, dataset, tmp_path):
        ckpt_dir = tmp_path / "snaps"

        async def run():
            collector = make_collector(dataset)
            service = IngestionService(collector, checkpoint_every=3,
                                       checkpoint_dir=ckpt_dir,
                                       keep_checkpoints=2)
            await service.start()
            for seed in range(4):
                for frame in wire_frames(collector, users=10, seed=seed):
                    await service.submit(frame)
                await asyncio.sleep(0.02)  # let checkpoint tasks run
            await service.stop()
            return collector, service

        collector, service = asyncio.run(run())
        assert service.stats.checkpoints_written >= 2
        assert service.stats.last_checkpoint_bytes > 0
        assert service.stats.recovery_point_lag == 0   # final snapshot
        assert service.stats.recovery_lag_high_watermark > 0
        paths = list_checkpoints(ckpt_dir)
        assert 1 <= len(paths) <= 2                    # pruned to keep=2
        restored = restore_checkpoint(make_collector(dataset),
                                      paths[-1].read_bytes())
        assert restored.observed == collector.observed
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)

    def test_checkpoint_numbering_resumes_across_services(
            self, dataset, tmp_path):
        ckpt_dir = tmp_path / "snaps"

        async def run_once():
            collector = make_collector(dataset)
            service = IngestionService(collector, checkpoint_dir=ckpt_dir,
                                       keep_checkpoints=4)
            await service.start()
            for frame in wire_frames(collector, users=10):
                await service.submit(frame)
            await service.stop()  # final checkpoint

        asyncio.run(run_once())
        first = checkpoint_index(latest_checkpoint(ckpt_dir))
        asyncio.run(run_once())
        assert checkpoint_index(latest_checkpoint(ckpt_dir)) > first

    def test_extra_document_round_trips(self, dataset):
        collector = make_collector(dataset)
        collector.observe(dataset.records[:200])
        blob = save_checkpoint(collector,
                               extra={"peer_seqs": {"sensor-1": 41}})
        assert checkpoint_meta(blob)["extra"]["peer_seqs"] == \
            {"sensor-1": 41}
        restored = restore_checkpoint(make_collector(dataset), blob)
        assert restored.observed == collector.observed

    def test_failed_restore_leaves_target_fresh_and_retryable(
            self, dataset):
        """Satellite fix: restore validates everything before mutating,
        so a bad blob cannot leave a half-restored hybrid behind."""
        collector = make_collector(dataset)
        collector.observe(dataset.records[:300])
        blob = save_checkpoint(collector)

        target = make_collector(dataset)
        bad_rng = tamper_meta(blob, lambda m: m.update(rng_state={}))
        with pytest.raises(CheckpointError, match="RNG state"):
            restore_checkpoint(target, bad_rng)
        bad_stats = tamper_meta(blob, lambda m: m.update(observed="NaN?"))
        with pytest.raises(CheckpointError, match="malformed"):
            restore_checkpoint(target, bad_stats)
        # the same target object is still fresh: the good blob loads
        restored = restore_checkpoint(target, blob)
        assert restored.observed == collector.observed
        assert restored.finalize().answer(QUERY) == \
            collector.finalize().answer(QUERY)


# ----------------------------------------------------------------------
# the full chaos story


@pytest.mark.faults
class TestChaosKillRestoreReconnect:
    def test_killed_service_restored_clients_reconnect_bit_identical(
            self, dataset, tmp_path):
        """Kill the service mid-stream (queued frames and recent state
        die with it), restore from the latest on-disk checkpoint, point
        the same client at the restored service, and finish the stream —
        through client-side drops/garbles/stalls/disconnects the whole
        way. The finalized estimates must be bit-identical to an
        unfaulted run: zero lost users, zero double-counted users."""
        probe = make_collector(dataset)
        frames = []
        for seed in range(6):
            frames.extend(wire_frames(probe, users=25, seed=seed))
        half = len(frames) // 2

        async def baseline():
            collector = make_collector(dataset)
            service = IngestionService(collector, compact_every=8)
            await service.start()
            port = await serve_port(service)
            async with WireClient("127.0.0.1", port, "agg-1",
                                  max_unacked=4) as client:
                for frame in frames:
                    await client.send(frame)
            await service.stop()
            return collector

        expected_collector = asyncio.run(baseline())
        expected = expected_collector.finalize().answer(QUERY)

        async def chaos():
            ckpt_dir = tmp_path / "ckpts"
            collector = make_collector(dataset)
            service = IngestionService(collector, compact_every=8,
                                       checkpoint_every=4,
                                       checkpoint_dir=ckpt_dir,
                                       keep_checkpoints=2)
            await service.start()
            port = await serve_port(service)
            faults = NetworkFaultInjector(drop={2, 19}, garble={5},
                                          stall={7: 0.01},
                                          disconnect={11})
            client = WireClient("127.0.0.1", port, "agg-1",
                                max_unacked=4, ack_timeout=0.5,
                                backoff_base=0.01, rng=7,
                                fault_injector=faults)
            for frame in frames[:half]:
                await client.send(frame)
            for _ in range(500):
                if service.stats.checkpoints_written:
                    break
                await asyncio.sleep(0.01)
            assert service.stats.checkpoints_written >= 1
            lag_at_kill = service.stats.recovery_point_lag
            await service.abort()  # the crash: no drain, no snapshot

            blob = latest_checkpoint(ckpt_dir).read_bytes()
            meta = checkpoint_meta(blob)
            restored = restore_checkpoint(make_collector(dataset), blob)
            revived = IngestionService(
                restored, compact_every=8, checkpoint_every=4,
                checkpoint_dir=ckpt_dir, keep_checkpoints=2,
                peer_seqs=meta["extra"]["peer_seqs"])
            await revived.start()
            await revived.serve(port=port)  # same address, new process
            for frame in frames[half:]:
                await client.send(frame)
            await client.close()  # drain: every frame acked
            await revived.stop()
            return restored, revived, client, faults, lag_at_kill

        restored, revived, client, faults, lag = asyncio.run(chaos())
        assert restored.finalize().answer(QUERY) == expected
        assert restored.observed == expected_collector.observed
        assert client.stats.reconnects >= 1
        assert client.stats.frames_resent >= 1
        assert faults.total_injected >= 4
        assert lag >= 0
        # the revived service's final snapshot covers the whole stream
        assert revived.stats.recovery_point_lag == 0
