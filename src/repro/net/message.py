"""Message registry and transport envelopes.

Every protocol message in this library is a frozen dataclass.  To cross a
real transport (TCP) or be appended to a file-backed log, a message type must
be *registered* so the wire codec can round-trip it by name.  Registration is
done with the :func:`register_message` decorator; the protocols register all
their message types at import time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Type, TypeVar

from ..errors import CodecError
from ..types import ReplicaId
from .wire import RecordSchema, WireDecoder, WireEncoder

T = TypeVar("T")


class MessageRegistry:
    """Maps message type names to dataclass types for codec round-trips.

    Each registered type is compiled once into a
    :class:`~repro.net.wire.RecordSchema`, which the codec's record paths
    encode and decode from without per-object field introspection.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, RecordSchema] = {}
        self._by_type: dict[type, RecordSchema] = {}
        # Decoder record path: schemas by their pre-encoded OBJ header.
        self._records: dict[bytes, RecordSchema] = {}
        # One codec pair per registry, sharing the schema tables: they are
        # read at call time, so registration after construction is still
        # picked up, and reusing the encoder keeps its internal bytearray
        # warm across frames.  The encoder's buffer makes
        # ``encode``/``encode_many`` single-threaded (like the event loop that
        # calls them); the ``*_into`` variants and the decoder only touch
        # caller-owned state and are reentrant.  The encoder rejects values
        # of unregistered types; the decoder's hook builds the objects the
        # record path leaves to the generic path.
        self._encoder = WireEncoder(schemas=self._by_type)
        self._decoder = WireDecoder(object_hook=self._decode_hook, records=self._records)

    def register(self, cls: Type[T], name: Optional[str] = None) -> Type[T]:
        """Register *cls* under *name* (defaults to the class name)."""
        if not dataclasses.is_dataclass(cls) or not isinstance(cls, type):
            raise CodecError(f"only dataclasses can be registered, got {cls!r}")
        key = name or cls.__name__
        existing = self._by_name.get(key)
        if existing is not None and existing.cls is not cls:
            raise CodecError(f"message name {key!r} already registered to {existing.cls!r}")
        schema = RecordSchema(cls, key)
        self._by_name[key] = schema
        self._by_type[cls] = schema
        if schema.positional:
            self._records[schema.header] = schema
        return cls

    def names(self) -> Iterator[str]:
        return iter(self._by_name)

    def is_registered(self, cls: type) -> bool:
        return cls in self._by_type

    # -- codec hooks -------------------------------------------------------

    def _decode_hook(self, name: str, fields: dict[str, Any]) -> Any:
        schema = self._by_name.get(name)
        if schema is None:
            raise CodecError(f"unknown message type {name!r}")
        return schema.from_fields(fields)

    # -- public encode/decode ----------------------------------------------

    def encode(self, value: Any) -> bytes:
        """Encode a value that may contain registered message instances."""
        return self._encoder.encode(value)

    def decode(self, data: Any) -> Any:
        """Decode wire bytes produced by :meth:`encode` (any bytes-like)."""
        return self._decoder.decode(data)

    def encode_many(self, values: Any) -> bytes:
        """Encode an iterable of values as one concatenated stream."""
        return self._encoder.encode_many(values)

    def decode_many(self, data: Any) -> list[Any]:
        """Decode a concatenated stream produced by :meth:`encode_many`."""
        return self._decoder.decode_many(data)

    def encode_into(self, buf: bytearray, value: Any) -> int:
        """Append the encoding of *value* to *buf*; returns bytes written.

        Frame-fusion path for transports: lets a caller reserve its length
        prefix in *buf* and encode the body directly after it, with no
        intermediate ``bytes`` object.
        """
        return self._encoder.encode_into(buf, value)

    def encode_many_into(self, buf: bytearray, values: Any) -> int:
        """Append a concatenated value stream to *buf*; returns bytes written."""
        return self._encoder.encode_many_into(buf, values)


#: The library-wide registry used by the default transports and logs.
global_registry = MessageRegistry()


def register_message(cls: Type[T]) -> Type[T]:
    """Class decorator registering a protocol message with the global registry."""
    return global_registry.register(cls)


# Core value types that appear inside protocol messages are registered here
# so any message embedding them round-trips through the codec.
from ..types import Command, CommandId, CommandResult, Timestamp  # noqa: E402

global_registry.register(Timestamp)
global_registry.register(CommandId)
global_registry.register(Command)
global_registry.register(CommandResult)


@dataclass(frozen=True, slots=True)
class Envelope:
    """A protocol message in flight between two replicas.

    Attributes:
        src: Sending replica id.
        dst: Destination replica id.
        message: The protocol message (a registered dataclass).
        size_hint: Approximate serialized size in bytes; the simulator's
            throughput model charges CPU proportional to this.  ``0`` means
            "unknown", in which case transports may compute the real size.
    """

    src: ReplicaId
    dst: ReplicaId
    message: Any
    size_hint: int = 0

    def with_size(self, size: int) -> "Envelope":
        return Envelope(self.src, self.dst, self.message, size)


@dataclass(frozen=True, slots=True)
class EnvelopeBatch:
    """Several protocol messages between the same pair of replicas.

    The unit of *message pipelining*: a transport that has accumulated
    multiple envelopes for one destination ships them as a single framed
    multi-message envelope — one length prefix, one TCP write, one delivery
    — instead of one frame per message.  Order within the batch is the send
    order, so FIFO channel semantics (which Mencius's skip detection relies
    on) are preserved.
    """

    src: ReplicaId
    dst: ReplicaId
    messages: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise CodecError("an envelope batch cannot be empty")

    @classmethod
    def of(cls, envelopes: "list[Envelope]") -> "EnvelopeBatch":
        """Bundle same-channel envelopes, preserving their order."""
        if not envelopes:
            raise CodecError("an envelope batch cannot be empty")
        src, dst = envelopes[0].src, envelopes[0].dst
        for envelope in envelopes:
            if envelope.src != src or envelope.dst != dst:
                raise CodecError(
                    "an envelope batch must share one (src, dst) channel; got "
                    f"({src}->{dst}) and ({envelope.src}->{envelope.dst})"
                )
        return cls(src, dst, tuple(e.message for e in envelopes))

    def envelopes(self) -> list[Envelope]:
        """Unbundle back into per-message envelopes, in batch order."""
        return [Envelope(self.src, self.dst, message) for message in self.messages]

    def __len__(self) -> int:
        return len(self.messages)


__all__ = [
    "MessageRegistry",
    "global_registry",
    "register_message",
    "Envelope",
    "EnvelopeBatch",
]
