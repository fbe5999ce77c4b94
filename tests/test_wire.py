"""Tests for the binary wire codec."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.messages import Prepare, PrepareOk
from repro.errors import CodecError
from repro.net.message import global_registry
from repro.net.wire import (
    MAX_DEPTH,
    WireDecoder,
    WireEncoder,
    dataclass_fields,
    decode,
    decode_many,
    encode,
    encode_many,
)
from repro.protocols.records import CommandBatch
from repro.types import Command, CommandId, Timestamp


class TestPrimitiveRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            42,
            2**62,
            -(2**62),
            2**100,        # bigint path
            -(2**100),
            3.14159,
            0.0,
            "",
            "hello",
            "ünïcode ✓",
            b"",
            b"raw bytes \x00\xff",
            [],
            [1, 2, 3],
            ["mixed", 1, None, True, b"x"],
            {},
            {"a": 1, "b": [1, 2], "c": {"nested": True}},
            {1: "int keys", "two": 2},
        ],
    )
    def test_round_trip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_becomes_list(self):
        assert decode(encode((1, 2, 3))) == [1, 2, 3]

    def test_nested_structures(self):
        value = {"rows": [{"id": i, "payload": bytes([i])} for i in range(10)]}
        assert decode(encode(value)) == value


class TestErrors:
    def test_unregistered_object_raises(self):
        class Foo:
            pass

        with pytest.raises(CodecError):
            encode(Foo())

    def test_trailing_garbage_raises(self):
        data = encode(42) + b"extra"
        with pytest.raises(CodecError):
            decode(data)

    def test_truncated_data_raises(self):
        data = encode("hello world")
        with pytest.raises(CodecError):
            decode(data[:-3])

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            decode(b"Zjunk")

    def test_object_without_hook_raises(self):
        encoder = WireEncoder(object_hook=lambda v: ("Thing", {"x": 1}))
        data = encoder.encode(object())
        with pytest.raises(CodecError):
            WireDecoder().decode(data)

    def test_dataclass_fields_requires_dataclass(self):
        with pytest.raises(CodecError):
            dataclass_fields(42)


class TestHardening:
    """Regressions for malformed input that once escaped as non-CodecErrors."""

    def test_unhashable_map_key_raises_codec_error(self):
        # MAP with one entry whose key is a list: a dict insert would raise
        # TypeError; the decoder must surface it as CodecError instead.
        data = b"M" + struct.pack(">I", 1) + b"L" + struct.pack(">I", 0) + b"N"
        with pytest.raises(CodecError, match="unhashable map key"):
            decode(data)

    def test_encode_depth_limit(self):
        value = None
        for _ in range(MAX_DEPTH + 1):
            value = [value]
        with pytest.raises(CodecError, match="max_depth"):
            encode(value)

    def test_decode_depth_limit(self):
        # Nested single-element lists crafted on the wire, deeper than the
        # decoder's limit.  Pre-hardening this was a RecursionError.
        data = b"L" + struct.pack(">I", 1)
        data = data * (MAX_DEPTH + 1) + b"N"
        with pytest.raises(CodecError, match="max_depth"):
            decode(data)

    def test_depth_limit_is_adjustable(self):
        value = None
        for _ in range(10):
            value = [value]
        data = WireEncoder(max_depth=11).encode(value)
        assert WireDecoder(max_depth=11).decode(data) == value
        with pytest.raises(CodecError, match="max_depth"):
            WireDecoder(max_depth=5).decode(data)

    def test_encode_oversize_length_raises_codec_error(self):
        # A bytes payload whose length cannot fit the u32 length field must
        # be a CodecError, not a struct.error escaping from pack.
        class HugeBytes(bytes):
            def __len__(self) -> int:
                return 2**32

        with pytest.raises(CodecError):
            encode(HugeBytes(b"xx"))

    def test_decode_huge_declared_length_fails_fast(self):
        # Declared string length far beyond the buffer: reject by arithmetic
        # on the declared size, never by attempting the allocation.
        data = b"S" + struct.pack(">I", 0xFFFFFFFF) + b"xy"
        with pytest.raises(CodecError, match="declared length"):
            decode(data)

    def test_decode_huge_declared_count_fails_fast(self):
        for tag in (b"L", b"M"):
            data = tag + struct.pack(">I", 0xFFFFFFFF) + b"N"
            with pytest.raises(CodecError):
                decode(data)

    def test_truncated_fixed_width_reads(self):
        for data in (b"I", b"I\x00\x00", b"D\x00", b"S\x00\x00", b""):
            with pytest.raises(CodecError, match="truncated"):
                decode(data)

    def test_invalid_utf8_raises_codec_error(self):
        data = b"S" + struct.pack(">I", 1) + b"\xff"
        with pytest.raises(CodecError):
            decode(data)

    def test_truncated_stream_raises(self):
        data = encode_many([1, "two", [3]])
        with pytest.raises(CodecError):
            decode_many(data[:-2])


# A recursive strategy of encodable values (no objects).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)
# Values as callers actually pass them: tuples allowed as sequences.
_values_with_tuples = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)


def _normalize(value):
    """The codec's canonical form: every sequence decodes as a list.

    Tuples share the LIST wire tag with lists, so ``decode(encode(v))`` is
    the identity only up to this normalization — the one intentional
    round-trip asymmetry.
    """
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        return {key: _normalize(item) for key, item in value.items()}
    return value


def _exact(value):
    """A key equal for two values only when the codec must encode them alike.

    Python's ``==`` is looser than the wire: ``False == 0``, ``0 == 0.0``
    and ``-0.0 == 0.0`` hold and dicts compare regardless of order, yet each
    of these pairs has two different encodings.
    """
    if isinstance(value, list):
        return ("list", [_exact(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(key, _exact(item)) for key, item in value.items()])
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


class TestCodecProperties:
    @given(_values)
    def test_round_trip_property(self, value):
        assert decode(encode(value)) == value

    @given(_values_with_tuples)
    def test_round_trip_up_to_tuple_normalization(self, value):
        assert decode(encode(value)) == _normalize(value)

    @given(st.lists(_values, max_size=5))
    def test_stream_round_trip_property(self, values):
        assert decode_many(encode_many(values)) == values

    @given(_values, _values)
    def test_encoding_is_deterministic_and_injective_enough(self, a, b):
        ea, eb = encode(a), encode(b)
        assert ea == encode(a)
        if _exact(a) == _exact(b):
            assert ea == eb


class TestMalformedInputProperties:
    """Arbitrary or corrupted bytes must raise CodecError — nothing else."""

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_codec_error(self, data):
        try:
            decode(data)
        except CodecError:
            pass

    @given(_values, st.integers(min_value=0))
    def test_truncations_raise_only_codec_error(self, value, cut):
        data = encode(value)
        truncated = data[: cut % (len(data) + 1)]
        try:
            decode(truncated)
        except CodecError:
            pass

    @given(_values, st.integers(min_value=0), st.integers(min_value=1, max_value=255))
    def test_single_byte_corruptions_raise_only_codec_error(self, value, index, delta):
        data = bytearray(encode(value))
        pos = index % len(data)
        data[pos] = (data[pos] + delta) % 256
        try:
            decode(bytes(data))
        except CodecError:
            pass


# Registry-encoded Clock-RSM messages, which take the decoder's record path.
_timestamps = st.builds(
    Timestamp, st.integers(min_value=0, max_value=2**62), st.integers(min_value=0, max_value=8)
)
_commands = st.builds(
    Command,
    st.builds(CommandId, st.text(max_size=12), st.integers(min_value=0, max_value=2**40)),
    st.binary(max_size=80),
    st.integers(min_value=0, max_value=2**62),
)
_messages = st.one_of(
    st.builds(
        Prepare,
        st.lists(_commands, min_size=2, max_size=8).map(lambda cs: CommandBatch(tuple(cs))),
        _timestamps,
        st.integers(min_value=0, max_value=100),
    ),
    st.builds(
        PrepareOk,
        _timestamps,
        st.integers(min_value=0, max_value=2**62),
        st.integers(min_value=0, max_value=100),
    ),
)


def _registry_outcome(data):
    """The decoded value, or ``CodecError``; any other exception fails."""
    try:
        return global_registry.decode(data)
    except CodecError:
        return CodecError


class TestMalformedRecordProperties:
    """Corrupted registry-encoded messages raise CodecError — nothing else.

    ``bytes`` input takes the record path and ``bytearray`` input the
    generic path; both must agree on every input.
    """

    def _check(self, data: bytes) -> None:
        assert _registry_outcome(data) == _registry_outcome(bytearray(data))

    @given(_messages)
    def test_messages_round_trip(self, message):
        assert global_registry.decode(global_registry.encode(message)) == message

    @given(_messages, st.integers(min_value=0))
    def test_truncations_raise_only_codec_error(self, message, cut):
        data = global_registry.encode(message)
        self._check(data[: cut % len(data)])

    @given(_messages, st.integers(min_value=0), st.integers(min_value=1, max_value=255))
    def test_single_byte_corruptions_raise_only_codec_error(self, message, index, delta):
        data = bytearray(global_registry.encode(message))
        pos = index % len(data)
        data[pos] = (data[pos] + delta) % 256
        self._check(bytes(data))

    @given(_messages, st.integers(min_value=0), st.binary(max_size=64))
    def test_arbitrary_tails_raise_only_codec_error(self, message, cut, tail):
        data = global_registry.encode(message)
        self._check(data[: cut % len(data)] + tail)

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_codec_error(self, data):
        self._check(data)
