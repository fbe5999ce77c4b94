"""Tests for the message registry and envelope round-trips."""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import Any

import pytest

from repro.config import BatchingOptions
from repro.consensus.single_paxos import PaxosLearn, PaxosP1a, PaxosP1b, PaxosP2a, PaxosP2b
from repro.core.messages import (
    ClockTime,
    CommitRecord,
    Prepare,
    PrepareOk,
    PrepareRecord,
    RetrieveCmds,
    RetrieveReply,
    Suspend,
    SuspendOk,
)
from repro.core.reconfig import EpochHint, ReconfigProposal
from repro.errors import CodecError
from repro.kvstore.commands import encode_put
from repro.net.message import Envelope, EnvelopeBatch, MessageRegistry, global_registry
from repro.net.tcp import (
    EncodedMessages,
    TcpTransport,
    decode_frame_envelopes,
    encode_batch_frame,
    encode_frame,
)
from repro.net.wire import RecordSchema, WireEncoder
from repro.protocols.multipaxos import CommitSlot, Forward, Phase2a, Phase2b
from repro.protocols.mencius import MenciusAck, MenciusCommit, SkipAnnounce, Suggest
from repro.protocols.records import AcceptRecord, CommandBatch, DecideRecord, SkipRecord
from repro.runtime.messages import ClientRequest, ClientResponse
from repro.storage.checkpoint import Checkpoint
from repro.types import Command, CommandId, CommandResult, Timestamp


def _command(seq: int = 1, payload: bytes = b"payload") -> Command:
    return Command(CommandId("client-a", seq), payload, created_at=123)


class TestGlobalRegistryRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            Timestamp(1234, 2),
            _command(),
            Prepare(_command(), Timestamp(55, 1), epoch=3),
            PrepareOk(Timestamp(55, 1), 99, epoch=3),
            ClockTime(1_000_000, epoch=1),
            PrepareRecord(_command(), Timestamp(55, 1)),
            CommitRecord(Timestamp(55, 1)),
            Forward(_command()),
            Phase2a(7, _command()),
            Phase2b(7),
            CommitSlot(7),
            Suggest(12, _command(), 17),
            MenciusAck(12, 17),
            MenciusCommit(12),
            SkipAnnounce(22),
        ],
    )
    def test_protocol_messages_round_trip(self, message):
        data = global_registry.encode(message)
        assert global_registry.decode(data) == message

    def test_nested_containers_of_messages(self):
        value = {"batch": [Prepare(_command(i), Timestamp(i, 0)) for i in range(5)]}
        decoded = global_registry.decode(global_registry.encode(value))
        assert decoded["batch"] == [Prepare(_command(i), Timestamp(i, 0)) for i in range(5)]

    def test_tuple_fields_survive_round_trip(self):
        from repro.core.messages import SuspendOk

        message = SuspendOk(2, (PrepareRecord(_command(), Timestamp(9, 0)),))
        decoded = global_registry.decode(global_registry.encode(message))
        assert decoded == message
        assert isinstance(decoded.records, tuple)


class TestCustomRegistry:
    def test_register_and_round_trip(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Ping:
            nonce: int

        registry.register(Ping)
        assert registry.decode(registry.encode(Ping(9))) == Ping(9)
        assert registry.is_registered(Ping)

    def test_unregistered_type_rejected_on_encode(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Unknown:
            x: int

        with pytest.raises(CodecError):
            registry.encode(Unknown(1))

    def test_unknown_name_rejected_on_decode(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Known:
            x: int

        registry.register(Known)
        data = registry.encode(Known(1))
        assert MessageRegistry().decode.__self__ is not registry  # sanity
        with pytest.raises(CodecError):
            MessageRegistry().decode(data)

    def test_conflicting_registration_rejected(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        registry.register(A, name="same")
        with pytest.raises(CodecError):
            registry.register(B, name="same")

    def test_non_dataclass_rejected(self):
        registry = MessageRegistry()
        with pytest.raises(CodecError):
            registry.register(int)  # type: ignore[arg-type]

    def test_unknown_fields_are_ignored_for_forward_compatibility(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Record:
            x: int = 0

        registry.register(Record, name="Record")
        # Encode by hand with an extra field a future version might add.
        data = registry.encode(Record(5))
        # Decode a manually crafted object with an extra field.
        from repro.net.wire import WireEncoder

        encoder = WireEncoder(object_hook=lambda v: ("Record", {"x": 5, "future": True}))
        crafted = encoder.encode(Record(5))
        assert registry.decode(crafted) == Record(5)
        assert registry.decode(data) == Record(5)


class TestEnvelope:
    def test_with_size(self):
        envelope = Envelope(0, 1, Phase2b(3))
        assert envelope.size_hint == 0
        assert envelope.with_size(128).size_hint == 128
        assert envelope.with_size(128).message == Phase2b(3)


# ---------------------------------------------------------------------------
# Compiled records: golden bytes, record/generic parity, fallbacks
# ---------------------------------------------------------------------------


def _kv_command(seq: int, client: str = "golden") -> Command:
    """A 64 B KV PUT like the TCP benchmark's."""
    payload = encode_put(f"key-{seq * 37 % 1000}", bytes([seq % 256]) * 64)
    return Command(CommandId(client, seq), payload, created_at=1_000 + seq)


def _golden_messages() -> dict[str, object]:
    """One instance of every type in the global registry, by sample name.

    ``Prepare64`` is the batched Clock-RSM PREPARE the TCP benchmark sends;
    ``SuspendOk`` carries tuple records.
    """
    ts = Timestamp(1_700_000_000_123, 2)
    cid = CommandId("client-é", 7)
    cmd = _kv_command(1)
    record = PrepareRecord(cmd, ts)
    return {
        "Timestamp": ts,
        "CommandId": cid,
        "Command": cmd,
        "CommandResult": CommandResult(cid, b"previous", committed_at=456),
        "CommandBatch": CommandBatch(tuple(_kv_command(i) for i in range(3))),
        "Prepare": Prepare(cmd, ts, epoch=3),
        "Prepare64": Prepare(CommandBatch(tuple(_kv_command(i) for i in range(64))), ts),
        "PrepareOk": PrepareOk(ts, 1_700_000_000_200, epoch=3),
        "ClockTime": ClockTime(1_000_000, epoch=1),
        "PrepareRecord": record,
        "CommitRecord": CommitRecord(ts),
        "Suspend": Suspend(2, ts),
        "SuspendOk": SuspendOk(2, (record, PrepareRecord(_kv_command(2), Timestamp(9, 0)))),
        "RetrieveCmds": RetrieveCmds(Timestamp(1, 0), ts),
        "RetrieveReply": RetrieveReply((record,), Timestamp(1, 0), ts),
        "ReconfigProposal": ReconfigProposal((0, 1, 2), ts, (record,)),
        "EpochHint": EpochHint(4),
        "ClientRequest": ClientRequest(cmd),
        "ClientResponse": ClientResponse(
            cid, {"prev": [1, -2.5, None, True, False, 2**70, -(2**64), "ü", b"\x00"]}
        ),
        "Checkpoint": Checkpoint(b"\x01state", ts, 2, 10),
        "Forward": Forward(cmd),
        "Phase2a": Phase2a(7, CommandBatch((cmd, _kv_command(3)))),
        "Phase2b": Phase2b(7),
        "CommitSlot": CommitSlot(7),
        "AcceptRecord": AcceptRecord(7, cmd),
        "DecideRecord": DecideRecord(7),
        "SkipRecord": SkipRecord(8),
        "Suggest": Suggest(12, cmd, 17),
        "MenciusAck": MenciusAck(12, 17),
        "MenciusCommit": MenciusCommit(12),
        "SkipAnnounce": SkipAnnounce(22),
        "PaxosP1a": PaxosP1a(1, 5),
        "PaxosP1b": PaxosP1b(1, 5, 4, "accepted"),
        "PaxosP2a": PaxosP2a(1, 5, [1, "two"]),
        "PaxosP2b": PaxosP2b(1, 5),
        "PaxosLearn": PaxosLearn(1, None),
    }


def _golden_frame_envelopes() -> dict[str, object]:
    """The single-form and batch-form TCP frames' envelopes, by sample name."""
    messages = _golden_messages()
    return {
        "frame.single": Envelope(0, 1, messages["PrepareOk"]),
        "frame.batch": EnvelopeBatch.of(
            [
                Envelope(0, 2, messages[name])
                for name in ("Prepare64", "PrepareOk", "ClockTime", "Prepare")
            ]
        ),
    }


def _frame(envelope, cache=None) -> bytes:
    if isinstance(envelope, EnvelopeBatch):
        return encode_batch_frame(envelope, global_registry, cache)
    return encode_frame(envelope, global_registry, cache)


def _digest(data: bytes) -> str:
    return f"{len(data)}:{hashlib.sha256(data).hexdigest()[:32]}"


#: ``_digest`` of each sample's encoding: the length and a sha256 prefix of
#: the bytes the generic OBJ/MAP encoder produced before records were
#: compiled.  The wire format is frozen: these must never change.
GOLDEN_DIGESTS = {
    "Timestamp": "61:f46de93960349473c0cf83db7febe357",
    "CommandId": "64:25f17d9897c2f754f576afefed1256ae",
    "Command": "228:2bcf3e823985175e3e262c4a7867240e",
    "CommandResult": "153:38c81356a111e5800076505c9112d653",
    "CommandBatch": "724:73c2bd7e344bfbbedc6157df0a96858b",
    "Prepare": "345:072a0c9c02c4c466c7645d9e841751cb",
    "Prepare64": "14806:8ca2f9205678b5933e4a47ce48a0ebb6",
    "PrepareOk": "133:2746c28bfd8a04bb960a713879bd4d60",
    "ClockTime": "65:3b00a6516c0192d955f6719082c2ef19",
    "PrepareRecord": "332:08afb5dd1919f53980a7288fe38f9b48",
    "CommitRecord": "91:f21ad41f83af64a88e78f6a87f11e8de",
    "Suspend": "112:67c9c12a4a5a01a669288f10e3dff3e3",
    "SuspendOk": "720:35eae0aa80d3aca73db77ac17840068f",
    "RetrieveCmds": "167:41fc976bfbb85ec2b57f8e1905b21c3b",
    "RetrieveReply": "517:0ad7a06e1519ddd4e5016d8372cbdc71",
    "ReconfigProposal": "488:856c94ea46e71c733c580d4cd9f28dd4",
    "EpochHint": "39:277f6b24e794db5384d8b93db2ae0f9b",
    "ClientRequest": "264:fe9607eeaea1c6f4fa63921e2be24b0b",
    "ClientResponse": "196:3fd8c8de850f67451cd08396e8b41d48",
    "Checkpoint": "166:1351be6639557b79ae7d9fead2595c7c",
    "Forward": "258:3ca194215893115f1d669d6f0f4b55c5",
    "Phase2a": "546:84f3093d402989431c623d247045a843",
    "Phase2b": "36:3041508d8174534c68d87267187dc38c",
    "CommitSlot": "39:04214ec853468097b467187999139be8",
    "AcceptRecord": "281:641c96545ae8e9acf806c34c783c77f6",
    "DecideRecord": "41:63dd33aebb9e95a98ae22791dd45f969",
    "SkipRecord": "39:9bab81e05bb762e18a307689e4fee67e",
    "Suggest": "300:4f5e83030c32f00d739a0d849401185b",
    "MenciusAck": "63:0d1435f6bdb34f430c5014183b582ea3",
    "MenciusCommit": "42:372d2ee5f7a4d2a2b7f367a07ba95914",
    "SkipAnnounce": "47:cb2eec2760b5f1a1b99484ff4abb95de",
    "PaxosP1a": "61:f507eaab03e6aea1756bfa4746ad11bd",
    "PaxosP1b": "122:fb06b3192077b11b6d920942dd4238cd",
    "PaxosP2a": "93:b08e55f7b0ef2749a860b2175fd63a04",
    "PaxosP2b": "61:395333eb16a4dfa83a5733e1e2de4d5c",
    "PaxosLearn": "54:d99d81a3df7c838d9fbf4c9286214ea3",
    "frame.single": "188:f337086325da765e72c90dedaf3e19a4",
    "frame.batch": "15411:9cb3a5c6f21dca3cfe89e0fdfd4dcb2a",
}


class TestGoldenBytes:
    def test_samples_cover_every_registered_type(self):
        sampled = {type(message).__name__ for message in _golden_messages().values()}
        assert sampled == set(global_registry.names())

    @pytest.mark.parametrize("name", sorted(_golden_messages()))
    def test_encoding_matches_golden_bytes(self, name):
        message = _golden_messages()[name]
        assert _digest(global_registry.encode(message)) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(_golden_frame_envelopes()))
    def test_frames_match_golden_bytes_with_and_without_cache(self, name):
        envelope = _golden_frame_envelopes()[name]
        cache = EncodedMessages(global_registry)
        assert _digest(_frame(envelope)) == GOLDEN_DIGESTS[name]
        assert _digest(_frame(envelope, cache)) == GOLDEN_DIGESTS[name]
        # A second frame from a warm cache splices the same bytes.
        assert _digest(_frame(envelope, cache)) == GOLDEN_DIGESTS[name]

    def test_every_registered_type_is_frozen(self):
        # Broadcast frames share one encoding per message object, which is
        # only sound while messages cannot change after they are sent.
        for name, message in _golden_messages().items():
            assert type(message).__dataclass_params__.frozen, name


class TestRecordPathParity:
    """The record path and the generic OBJ/MAP path decode the same values.

    ``bytes`` input takes the record path; ``bytearray`` and ``memoryview``
    input take the generic path.
    """

    @pytest.mark.parametrize("name", sorted(_golden_messages()))
    def test_record_path_equals_generic_path(self, name, monkeypatch):
        message = _golden_messages()[name]
        data = global_registry.encode(message)
        generic_builds = []
        from_fields = RecordSchema.from_fields

        def counting(schema, fields):
            generic_builds.append(schema.name)
            return from_fields(schema, fields)

        monkeypatch.setattr(RecordSchema, "from_fields", counting)
        decoded = global_registry.decode(data)
        assert generic_builds == []
        for other in (bytearray(data), memoryview(data)):
            generic = global_registry.decode(other)
            assert generic == decoded == message
            assert repr(generic) == repr(decoded)
        assert generic_builds

    @pytest.mark.parametrize("name", sorted(_golden_frame_envelopes()))
    def test_frame_bodies_decode_identically(self, name):
        envelope = _golden_frame_envelopes()[name]
        body = _frame(envelope)[4:]
        decoded = decode_frame_envelopes(body, global_registry)
        generic = decode_frame_envelopes(bytearray(body), global_registry)
        assert [(e.src, e.dst, e.message) for e in decoded] == [
            (e.src, e.dst, e.message) for e in generic
        ]
        if isinstance(envelope, EnvelopeBatch):
            assert tuple(e.message for e in decoded) == envelope.messages
        else:
            assert [e.message for e in decoded] == [envelope.message]

    def test_tuple_fields_are_tuples_on_both_paths(self):
        message = _golden_messages()["SuspendOk"]
        data = global_registry.encode(message)
        for value in (data, bytearray(data)):
            decoded = global_registry.decode(value)
            assert isinstance(decoded.records, tuple)
            assert isinstance(decoded.records[0].command, Command)


@dataclass(frozen=True)
class _Pair:
    a: int = 0
    b: int = 0


@dataclass(frozen=True)
class _Box:
    inner: Any = None


def _crafted(name: str, fields: dict[str, Any]) -> bytes:
    """The generic OBJ/MAP encoding of *fields* under type name *name*."""
    return WireEncoder(object_hook=lambda v: (name, fields)).encode(_Pair())


class TestRecordPathFallback:
    def _registry(self) -> MessageRegistry:
        registry = MessageRegistry()
        registry.register(_Pair, name="Pair")
        registry.register(_Box, name="Box")
        return registry

    def test_renamed_key_with_the_same_field_count(self):
        registry = self._registry()
        # The header matches (same name and count); the second key does not.
        assert registry.decode(_crafted("Pair", {"a": 1, "c": 2})) == _Pair(1, 0)
        # The first key does not match.
        assert registry.decode(_crafted("Pair", {"z": 1, "b": 2})) == _Pair(0, 2)

    def test_reordered_keys(self):
        registry = self._registry()
        assert registry.decode(_crafted("Pair", {"b": 2, "a": 1})) == _Pair(1, 2)

    def test_other_field_counts(self):
        registry = self._registry()
        assert registry.decode(_crafted("Pair", {"a": 1})) == _Pair(1, 0)
        assert registry.decode(_crafted("Pair", {})) == _Pair()
        assert registry.decode(_crafted("Pair", {"a": 1, "b": 2, "future": [3]})) == _Pair(1, 2)

    def test_fallback_inside_a_nested_record(self):
        registry = self._registry()
        inner = _crafted("Pair", {"b": 2, "a": 1})
        data = registry.encode(_Box(_Pair(9, 9)))
        nested = data[: -len(registry.encode(_Pair(9, 9)))] + inner
        assert registry.decode(nested) == _Box(_Pair(1, 2))
        assert registry.decode(bytearray(nested)) == _Box(_Pair(1, 2))

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_inputs(self, kind):
        registry = self._registry()
        value = [_Box(_Pair(1, 2)), {"k": _Pair(3, 4)}]
        assert registry.decode(kind(registry.encode(value))) == value
        assert registry.decode_many(kind(registry.encode_many(value))) == value

    def test_failing_constructor_raises_codec_error_on_both_paths(self):
        # Re-declare the batch as empty: CommandBatch rejects it in __post_init__.
        data = global_registry.encode(CommandBatch((_kv_command(0),)))
        empty = data[: data.index(b"L")] + b"L\x00\x00\x00\x00"
        for value in (empty, bytearray(empty)):
            with pytest.raises(CodecError):
                global_registry.decode(value)

    @pytest.mark.parametrize("innermost", [0, [_Box(0)]], ids=["boxes", "boxes-list-box"])
    def test_depth_limit_is_the_same_on_both_paths(self, innermost):
        registry = self._registry()
        # Generic encoding with a looser limit, so the decoder's limit is the
        # one under test.
        encoder = WireEncoder(object_hook=lambda v: ("Box", {"inner": v.inner}), max_depth=200)
        for levels in range(28, 36):
            value: Any = innermost
            for _ in range(levels):
                value = _Box(value)
            data = encoder.encode(value)
            outcomes = []
            for form in (data, bytearray(data)):
                try:
                    outcomes.append(registry.decode(form) == value)
                except CodecError:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1], levels
            if innermost == 0:
                # Each Box costs two levels of the 64: 32 fit, 33 do not.
                assert outcomes[0] == (True if levels <= 32 else "rejected"), levels


class TestBroadcastEncodesOnce:
    """A message sent to two peers is encoded once; the frames are unchanged."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_broadcast_to_two_peers(self, batched, monkeypatch):
        messages = _golden_messages()
        broadcast = [messages["PrepareOk"]]
        if batched:
            broadcast.insert(0, messages["Prepare64"])
        # The frames each peer received before messages were encoded once.
        if batched:
            expected = {
                dst: _frame(EnvelopeBatch.of([Envelope(0, dst, m) for m in broadcast]))
                for dst in (1, 2)
            }
        else:
            expected = {
                dst: b"".join(_frame(Envelope(0, dst, m)) for m in broadcast) for dst in (1, 2)
            }
        encoded: list[Any] = []
        encode_into = MessageRegistry.encode_into

        def counting(registry, buf, value):
            encoded.append(value)
            return encode_into(registry, buf, value)

        monkeypatch.setattr(MessageRegistry, "encode_into", counting)

        async def scenario() -> dict[int, bytes]:
            received = {dst: bytearray() for dst in expected}
            done = asyncio.Event()

            def receiver(dst):
                async def handle(reader, writer):
                    while len(received[dst]) < len(expected[dst]):
                        chunk = await reader.read(65536)
                        if not chunk:
                            break
                        received[dst] += chunk
                    if all(len(received[d]) >= len(expected[d]) for d in received):
                        done.set()
                    writer.close()

                return handle

            servers = {
                dst: await asyncio.start_server(receiver(dst), "127.0.0.1", 0) for dst in expected
            }
            peers = {
                dst: "127.0.0.1:%d" % server.sockets[0].getsockname()[1]
                for dst, server in servers.items()
            }
            options = BatchingOptions(max_batch=8, window_us=0) if batched else None
            sender = TcpTransport(0, "127.0.0.1:0", peers, batching=options)
            await sender.start()
            try:
                for message in broadcast:
                    for dst in expected:
                        sender.send(Envelope(0, dst, message))
                await asyncio.wait_for(done.wait(), timeout=5)
            finally:
                await sender.stop()
                for server in servers.values():
                    server.close()
                    await server.wait_closed()
            return {dst: bytes(data) for dst, data in received.items()}

        assert asyncio.run(scenario()) == expected
        for message in broadcast:
            assert sum(value is message for value in encoded) == 1
