"""A compact, self-describing binary codec.

The paper serializes messages with Google Protocol Buffers.  The evaluated
quantities (message counts and wide-area latencies) do not depend on the wire
format, so this reproduction ships a small dependency-free codec instead.  It
supports the primitive types the protocols need plus *registered* dataclass
types (see :mod:`repro.net.message`), and is used by the asyncio TCP
transport and the file-backed command log.

Wire grammar (all integers big-endian)::

    value   := NONE | TRUE | FALSE | INT | BIGINT | FLOAT | STR | BYTES
             | LIST | MAP | OBJ
    NONE    := 'N'
    TRUE    := 'T'
    FALSE   := 'F'
    INT     := 'I' int64
    BIGINT  := 'J' u32 length, two's-complement bytes
    FLOAT   := 'D' float64
    STR     := 'S' u32 length, utf-8 bytes
    BYTES   := 'B' u32 length, raw bytes
    LIST    := 'L' u32 count, value*
    MAP     := 'M' u32 count, (value value)*
    OBJ     := 'O' STR(type-name) MAP(field-name -> value)

Implementation notes (the wire hot path):

* Both directions are **iterative** (an explicit work stack), so nesting
  depth is a checked limit (:data:`MAX_DEPTH`) raising
  :class:`~repro.errors.CodecError` — never a Python ``RecursionError`` a
  malicious peer could trigger remotely.
* The encoder appends into one reusable ``bytearray`` using preallocated
  :class:`struct.Struct` ``pack_into`` calls for the fixed-width tags — no
  per-value ``bytes`` temporaries joined at the end.  ``encode_into`` /
  ``encode_many_into`` expose the same path to callers (the TCP transport)
  that want to fuse their own framing header into the same buffer.
* The decoder walks a ``memoryview`` of the input and only materializes the
  STR/BYTES leaves; fixed-width fields are ``unpack_from`` reads and BIGINT
  uses a zero-copy subview.  Declared lengths are validated against the
  remaining buffer *before* any allocation, so a corrupted length field
  fails fast instead of attempting a giant allocation.
* Every malformed-input failure mode — truncation, unknown tags, lengths
  beyond the buffer or beyond u32, unhashable MAP keys, invalid UTF-8, and
  object hooks choking on bad fields — surfaces as ``CodecError``, the
  documented contract that lets transport readers treat any decode failure
  as a protocol error instead of dying on a stray ``TypeError``.

Compiled records (the message hot path):

* A registered dataclass type is compiled once into a :class:`RecordSchema`:
  its field names, which fields are declared as tuples, its pre-encoded
  ``'O' STR(type-name) 'M' u32(count)`` header, and each field's
  pre-encoded ``STR(field-name)`` key.  The encoder appends those cached
  bytes and pushes the field values (``getattr``) onto its work stack; it
  builds no field dict and encodes no names.  The bytes are exactly what the
  generic OBJ/MAP encoding of the same value produces.
* The decoder has a matching *record path*, taken when the input is
  ``bytes``: when the bytes after an ``'O'`` tag equal a registered header,
  and each field key equals its cached key bytes, the values are collected
  positionally and the object is built as ``cls(*values)`` (tuple fields
  coerced).  Any mismatch — another field count, a renamed or reordered
  key — drops back to the generic OBJ/MAP path with the values read so far,
  so the forward-compatible handling of unknown fields is unchanged.
  ``bytearray`` and ``memoryview`` inputs always take the generic path.
  The record path keeps the generic path's stack depth (a record frame sits
  on a placeholder for the OBJ frame it replaces), so ``max_depth`` accepts
  and rejects the same inputs on both paths.
* Above the codec, :class:`~repro.net.tcp.TcpTransport` encodes each message
  once however many peers it goes to: frames splice its bytes from a small
  bounded cache keyed by message identity, which is sound because protocol
  messages are frozen dataclasses.
"""

from __future__ import annotations

import dataclasses
import inspect
import struct
from typing import Any, Callable, Mapping, Optional

from ..errors import CodecError

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_U32_MAX = 2**32 - 1

#: Maximum container nesting the codec will encode or decode.  Deeper
#: payloads raise :class:`~repro.errors.CodecError`; protocol messages are a
#: handful of levels deep, so the limit only ever triggers on hostile or
#: corrupted input (each OBJ costs two levels: the OBJ and its field MAP).
MAX_DEPTH = 64

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

# Fused tag+payload packers for the fixed-width wire forms: one pack_into
# writes both the tag byte and the big-endian payload, no temporaries.
_TAG_I64 = struct.Struct(">Bq")   # 'I' int64
_TAG_F64 = struct.Struct(">Bd")   # 'D' float64
_TAG_U32 = struct.Struct(">BI")   # any tag followed by a u32 length/count

_PAD9 = bytes(_TAG_I64.size)
_PAD5 = bytes(_TAG_U32.size)

_TAG_N = 0x4E  # 'N'
_TAG_T = 0x54  # 'T'
_TAG_F = 0x46  # 'F'
_TAG_I = 0x49  # 'I'
_TAG_J = 0x4A  # 'J'
_TAG_D = 0x44  # 'D'
_TAG_S = 0x53  # 'S'
_TAG_B = 0x42  # 'B'
_TAG_L = 0x4C  # 'L'
_TAG_M = 0x4D  # 'M'
_TAG_O = 0x4F  # 'O'

# Stack depth marking a cached, already-encoded chunk (a record's field
# key) that the encoder appends verbatim.
_RAW = -1


def _str_bytes(text: str) -> bytes:
    """The STR encoding of *text*."""
    raw = text.encode("utf-8")
    return _TAG_U32.pack(_TAG_S, len(raw)) + raw


def _declares_tuple(field: dataclasses.Field) -> bool:
    type_repr = str(field.type)
    return "tuple" in type_repr or "Tuple" in type_repr


class RecordSchema:
    """A dataclass type compiled once for the codec's record paths.

    Attributes:
        cls: The dataclass type.
        name: The type name written on the wire.
        fields: Field names, in declaration order.
        header: The pre-encoded ``'O' STR(name) 'M' u32(len(fields))``.
        keys: The pre-encoded ``STR(field-name)`` of each field, in order.
        encode_order: ``(field-name, key)`` pairs in reverse order, the order
            the encoder pushes them onto its work stack.
        positional: Whether ``cls(*values)`` takes exactly :attr:`fields` in
            order, which the decoder's record path relies on.
    """

    __slots__ = (
        "cls", "name", "fields", "header", "keys", "positional", "encode_order", "_tuples"
    )

    def __init__(self, cls: type, name: str) -> None:
        declared = dataclasses.fields(cls)
        self.cls = cls
        self.name = name
        self.fields = tuple(field.name for field in declared)
        self.header = (
            bytes((_TAG_O,)) + _str_bytes(name) + _TAG_U32.pack(_TAG_M, len(declared))
        )
        self.keys = tuple(_str_bytes(field) for field in self.fields)
        try:
            params = list(inspect.signature(cls).parameters.values())
        except (TypeError, ValueError):
            params = []
        self.positional = [p.name for p in params] == list(self.fields) and all(
            p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params
        )
        # The wire does not tell tuples from lists: fields declared as tuples
        # are coerced back so equality round-trips.
        self._tuples = tuple(i for i, field in enumerate(declared) if _declares_tuple(field))
        self.encode_order = tuple(zip(reversed(self.fields), reversed(self.keys)))

    def from_values(self, values: list[Any]) -> Any:
        """Build an instance from every field value, in declaration order."""
        for i in self._tuples:
            if isinstance(values[i], list):
                values[i] = tuple(values[i])
        return self.cls(*values)

    def from_fields(self, fields: dict[Any, Any]) -> Any:
        """Build an instance from a decoded field map.

        Forward compatibility: fields this version does not declare are
        ignored.
        """
        kwargs: dict[str, Any] = {}
        for key, value in fields.items():
            if key not in self.fields:
                continue
            if isinstance(value, list) and self.fields.index(key) in self._tuples:
                value = tuple(value)
            kwargs[key] = value
        return self.cls(**kwargs)


class WireEncoder:
    """Encodes Python values into the wire format.

    Args:
        object_hook: Callback invoked for values that are neither primitives
            nor of a type in *schemas*; it must return a ``(type_name,
            field_dict)`` pair or raise :class:`~repro.errors.CodecError`.
        max_depth: Container nesting limit (:data:`MAX_DEPTH` by default);
            deeper values raise :class:`~repro.errors.CodecError`.
        schemas: Compiled records by exact type; the message registry
            supplies its own, so later registrations are picked up.
    """

    def __init__(
        self,
        object_hook: Optional[Callable[[Any], tuple[str, dict[str, Any]]]] = None,
        max_depth: int = MAX_DEPTH,
        schemas: Optional[Mapping[type, RecordSchema]] = None,
    ) -> None:
        self._object_hook = object_hook
        self._max_depth = max_depth
        self._schemas = schemas if schemas is not None else {}
        self._buf = bytearray()

    def encode(self, value: Any) -> bytes:
        """Encode *value* and return the wire bytes."""
        buf = self._buf
        del buf[:]  # reuse the allocation across frames
        self._write(buf, value)
        return bytes(buf)

    def encode_many(self, values: Any) -> bytes:
        """Encode an iterable of values as a concatenated stream.

        The stream has no outer container: each value is self-delimiting, so
        decoding with :meth:`WireDecoder.decode_many` recovers the sequence.
        Multi-message envelopes (one TCP frame carrying a whole batch) are
        framed this way — one length prefix for the frame, zero per-message
        framing overhead beyond the values themselves.
        """
        buf = self._buf
        del buf[:]
        write = self._write
        for value in values:
            write(buf, value)
        return bytes(buf)

    def encode_into(self, buf: bytearray, value: Any) -> int:
        """Append the encoding of *value* to *buf*; returns bytes written.

        This is the frame-fusion entry point: a transport can reserve its
        length-prefix bytes in *buf*, encode the body straight after them,
        and patch the prefix — header and body leave as one buffer, with no
        intermediate ``bytes`` copy.
        """
        start = len(buf)
        self._write(buf, value)
        return len(buf) - start

    def encode_many_into(self, buf: bytearray, values: Any) -> int:
        """Append a concatenated value stream to *buf*; returns bytes written."""
        start = len(buf)
        write = self._write
        for value in values:
            write(buf, value)
        return len(buf) - start

    # -- writer ------------------------------------------------------------

    def _write(self, buf: bytearray, value: Any) -> None:
        # Iterative depth-first encode: the stack holds (value, depth)
        # pairs still to be emitted; container children are pushed in
        # reverse so they pop in document order.  A record's field keys are
        # pushed as cached bytes with depth _RAW and appended verbatim.
        max_depth = self._max_depth
        schemas = self._schemas
        stack: list[tuple[Any, int]] = [(value, 0)]
        pop = stack.pop
        push = stack.append
        while stack:
            value, depth = pop()
            if depth == _RAW:
                buf += value
            elif value is None:
                buf.append(_TAG_N)
            elif value is True:
                buf.append(_TAG_T)
            elif value is False:
                buf.append(_TAG_F)
            elif isinstance(value, int):
                if _INT64_MIN <= value <= _INT64_MAX:
                    pos = len(buf)
                    buf += _PAD9
                    _TAG_I64.pack_into(buf, pos, _TAG_I, value)
                else:
                    raw = value.to_bytes(
                        (value.bit_length() + 8) // 8, "big", signed=True
                    )
                    if len(raw) > _U32_MAX:
                        raise CodecError(
                            f"BIGINT of {len(raw)} bytes exceeds the u32 length field"
                        )
                    pos = len(buf)
                    buf += _PAD5
                    _TAG_U32.pack_into(buf, pos, _TAG_J, len(raw))
                    buf += raw
            elif isinstance(value, float):
                pos = len(buf)
                buf += _PAD9
                _TAG_F64.pack_into(buf, pos, _TAG_D, value)
            elif isinstance(value, str):
                raw = value.encode("utf-8")
                if len(raw) > _U32_MAX:
                    raise CodecError(
                        f"string of {len(raw)} utf-8 bytes exceeds the u32 length field"
                    )
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_S, len(raw))
                buf += raw
            elif isinstance(value, (bytes, bytearray, memoryview)):
                if len(value) > _U32_MAX:
                    raise CodecError(
                        f"bytes of length {len(value)} exceed the u32 length field"
                    )
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_B, len(value))
                buf += value
            elif isinstance(value, (list, tuple)):
                if len(value) > _U32_MAX:
                    raise CodecError(
                        f"list of {len(value)} items exceeds the u32 count field"
                    )
                if depth >= max_depth:
                    raise CodecError(f"value nests deeper than max_depth={max_depth}")
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_L, len(value))
                child_depth = depth + 1
                for item in reversed(value):
                    push((item, child_depth))
            elif isinstance(value, dict):
                if len(value) > _U32_MAX:
                    raise CodecError(
                        f"map of {len(value)} entries exceeds the u32 count field"
                    )
                if depth >= max_depth:
                    raise CodecError(f"value nests deeper than max_depth={max_depth}")
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_M, len(value))
                child_depth = depth + 1
                for key, item in reversed(list(value.items())):
                    push((item, child_depth))
                    push((key, child_depth))
            else:
                schema = schemas.get(type(value))
                if schema is not None:
                    # The same bytes as the OBJ/MAP form below, which costs
                    # two levels: the OBJ and its field MAP.
                    if depth + 1 >= max_depth:
                        raise CodecError(f"value nests deeper than max_depth={max_depth}")
                    buf += schema.header
                    child_depth = depth + 2
                    for name, key in schema.encode_order:
                        push((getattr(value, name), child_depth))
                        push((key, _RAW))
                    continue
                if self._object_hook is None:
                    raise CodecError(
                        f"cannot encode value of type {type(value).__name__}"
                    )
                type_name, fields = self._object_hook(value)
                if depth >= max_depth:
                    raise CodecError(f"value nests deeper than max_depth={max_depth}")
                buf.append(_TAG_O)
                child_depth = depth + 1
                push((fields, child_depth))
                push((type_name, child_depth))


# Decoder frame kinds (the explicit stack replacing recursion).
_F_LIST = 0
_F_MAP = 1
_F_OBJ = 2
_F_REC = 3

# Sits under a record frame in place of the OBJ frame of the generic path,
# so both paths have the same stack depth; never read.
_PLACEHOLDER: list[Any] = []


def _record_to_generic(stack: list[list[Any]], schema: RecordSchema, values: list[Any]) -> None:
    """Turn the record frame on top of *stack* into the generic OBJ/MAP pair.

    Called when the next key differs from the schema's: the values read so
    far become the field map's first entries and the rest of the record is
    read as a plain MAP.
    """
    stack[-2] = [_F_OBJ, [schema.name]]
    stack[-1] = [
        _F_MAP,
        dict(zip(schema.fields, values)),
        len(schema.fields) - len(values),
        None,
        False,
    ]


def _build_record(schema: RecordSchema, values: list[Any]) -> Any:
    try:
        return schema.from_values(values)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"object hook failed for type {schema.name!r}: {exc}") from exc


class WireDecoder:
    """Decodes wire-format bytes back into Python values.

    Args:
        object_hook: Callback invoked for OBJ values that do not take the
            record path; it receives the type name and field dict and must
            return the reconstructed object.
        max_depth: Container nesting limit (:data:`MAX_DEPTH` by default);
            deeper input raises :class:`~repro.errors.CodecError`.
        records: Compiled records by their :attr:`RecordSchema.header`, for
            the record path; only schemas that are ``positional`` belong
            here.  The message registry supplies its own.
    """

    def __init__(
        self,
        object_hook: Optional[Callable[[str, dict[str, Any]], Any]] = None,
        max_depth: int = MAX_DEPTH,
        records: Optional[Mapping[bytes, RecordSchema]] = None,
    ) -> None:
        self._object_hook = object_hook
        self._max_depth = max_depth
        self._records = records if records is not None else {}

    def decode(self, data: Any) -> Any:
        """Decode a single value from *data*; trailing bytes are an error.

        Accepts any bytes-like object (``bytes``, ``bytearray``,
        ``memoryview``) and never copies the buffer wholesale: only STR and
        BYTES leaves are materialized.
        """
        view = memoryview(data)
        try:
            end = len(view)
            value, pos = self._read(view, 0, end, self._raw(data))
            if pos != end:
                raise CodecError(f"trailing garbage after value: {end - pos} bytes")
            return value
        finally:
            view.release()

    def decode_many(self, data: Any) -> list[Any]:
        """Decode a concatenated stream of values (see ``encode_many``).

        Values are self-delimiting, so the decoder reads until the buffer is
        exhausted; a truncated final value raises
        :class:`~repro.errors.CodecError` like any other short read.
        """
        view = memoryview(data)
        try:
            end = len(view)
            values: list[Any] = []
            pos = 0
            read = self._read
            raw = self._raw(data)
            while pos < end:
                value, pos = read(view, pos, end, raw)
                values.append(value)
            return values
        finally:
            view.release()

    # -- reader ------------------------------------------------------------

    def _raw(self, data: Any) -> Optional[bytes]:
        """*data* when the record path applies to it: immutable ``bytes``
        (whose slices are hashable and whose ``startswith`` matches cached
        keys in place) and a decoder with records."""
        return data if type(data) is bytes and self._records else None

    def _read(
        self, view: memoryview, pos: int, end: int, raw: Optional[bytes]
    ) -> tuple[Any, int]:
        """Read one value starting at *pos*; returns ``(value, new_pos)``.

        Iterative: container frames live on an explicit stack.  A LIST frame
        is ``[kind, items, remaining]``; a MAP frame is ``[kind, dict,
        remaining, key, have_key]`` (entries are inserted as their pair
        completes, so an unhashable key fails right where it decodes); an
        OBJ frame is ``[kind, children]`` collecting the type name and field
        map before invoking the object hook.  A record frame is ``[kind,
        schema, values]`` over a placeholder; *raw* is the input as
        ``bytes`` when the record path is on, else ``None``.
        """
        max_depth = self._max_depth
        records = self._records
        stack: list[list[Any]] = []
        while True:
            # ---- read exactly one leaf, or open a container frame -------
            if pos >= end:
                raise CodecError("truncated wire data")
            tag = view[pos]
            pos += 1
            have_value = True
            value: Any = None
            if tag == _TAG_I:
                if pos + 8 > end:
                    raise CodecError("truncated wire data")
                value = _I64.unpack_from(view, pos)[0]
                pos += 8
            elif tag == _TAG_O:
                if len(stack) >= max_depth:
                    raise CodecError(f"input nests deeper than max_depth={max_depth}")
                schema = None
                # Record path: the generic path would stack an OBJ and a MAP
                # frame here, so it needs room for both.
                if (
                    raw is not None
                    and len(stack) + 1 < max_depth
                    and pos + 5 <= end
                    and view[pos] == _TAG_S
                ):
                    head_end = pos + 10 + _U32.unpack_from(view, pos + 1)[0]
                    if head_end <= end:
                        schema = records.get(raw[pos - 1 : head_end])
                if schema is None:
                    stack.append([_F_OBJ, []])
                    have_value = False
                else:
                    pos = head_end
                    if not schema.keys:
                        value = _build_record(schema, [])
                    else:
                        stack.append(_PLACEHOLDER)
                        stack.append([_F_REC, schema, []])
                        key = schema.keys[0]
                        if raw.startswith(key, pos):
                            pos += len(key)
                        else:
                            _record_to_generic(stack, schema, [])
                        have_value = False
            elif tag == _TAG_S:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                n = _U32.unpack_from(view, pos)[0]
                pos += 4
                if n > end - pos:
                    raise CodecError(
                        f"declared length {n} exceeds the {end - pos} bytes remaining"
                    )
                try:
                    value = str(view[pos : pos + n], "utf-8")
                except UnicodeDecodeError as exc:
                    raise CodecError(f"invalid utf-8 in string: {exc}") from exc
                pos += n
            elif tag == _TAG_B:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                n = _U32.unpack_from(view, pos)[0]
                pos += 4
                if n > end - pos:
                    raise CodecError(
                        f"declared length {n} exceeds the {end - pos} bytes remaining"
                    )
                value = bytes(view[pos : pos + n])
                pos += n
            elif tag == _TAG_N:
                value = None
            elif tag == _TAG_T:
                value = True
            elif tag == _TAG_F:
                value = False
            elif tag == _TAG_D:
                if pos + 8 > end:
                    raise CodecError("truncated wire data")
                value = _F64.unpack_from(view, pos)[0]
                pos += 8
            elif tag == _TAG_J:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                n = _U32.unpack_from(view, pos)[0]
                pos += 4
                if n > end - pos:
                    raise CodecError(
                        f"declared length {n} exceeds the {end - pos} bytes remaining"
                    )
                value = int.from_bytes(view[pos : pos + n], "big", signed=True)
                pos += n
            elif tag == _TAG_L:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                count = _U32.unpack_from(view, pos)[0]
                pos += 4
                # Each element costs at least its one tag byte: a count the
                # remaining buffer cannot possibly satisfy fails here, fast,
                # instead of looping (or preallocating) towards a huge list.
                if count > end - pos:
                    raise CodecError(
                        f"declared count {count} exceeds the {end - pos} bytes remaining"
                    )
                if count == 0:
                    value = []
                else:
                    if len(stack) >= max_depth:
                        raise CodecError(
                            f"input nests deeper than max_depth={max_depth}"
                        )
                    stack.append([_F_LIST, [], count])
                    have_value = False
            elif tag == _TAG_M:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                count = _U32.unpack_from(view, pos)[0]
                pos += 4
                if count > (end - pos) // 2:
                    raise CodecError(
                        f"declared count {count} exceeds the {end - pos} bytes remaining"
                    )
                if count == 0:
                    value = {}
                else:
                    if len(stack) >= max_depth:
                        raise CodecError(
                            f"input nests deeper than max_depth={max_depth}"
                        )
                    stack.append([_F_MAP, {}, count, None, False])
                    have_value = False
            else:
                raise CodecError(f"unknown wire tag {bytes((tag,))!r}")

            if not have_value:
                continue  # a container frame was opened; read its first child

            # ---- feed the completed value into the enclosing frames -----
            while True:
                if not stack:
                    return value, pos
                frame = stack[-1]
                kind = frame[0]
                if kind == _F_REC:
                    values = frame[2]
                    values.append(value)
                    schema = frame[1]
                    keys = schema.keys
                    if len(values) < len(keys):
                        key = keys[len(values)]
                        if raw.startswith(key, pos):
                            pos += len(key)
                        else:
                            _record_to_generic(stack, schema, values)
                        break  # the next field's value is next
                    stack.pop()
                    stack.pop()  # the placeholder
                    value = _build_record(schema, values)
                elif kind == _F_LIST:
                    items = frame[1]
                    items.append(value)
                    frame[2] -= 1
                    if frame[2]:
                        break  # more elements to read
                    stack.pop()
                    value = items
                elif kind == _F_MAP:
                    if not frame[4]:
                        frame[3] = value
                        frame[4] = True
                        break  # the key's value is next
                    try:
                        frame[1][frame[3]] = value
                    except TypeError as exc:
                        raise CodecError(
                            f"unhashable map key of type {type(frame[3]).__name__}"
                        ) from exc
                    frame[3] = None
                    frame[4] = False
                    frame[2] -= 1
                    if frame[2]:
                        break  # more pairs to read
                    stack.pop()
                    value = frame[1]
                else:  # _F_OBJ
                    children = frame[1]
                    children.append(value)
                    if len(children) < 2:
                        break  # the field map is next
                    stack.pop()
                    type_name, fields = children
                    if not isinstance(type_name, str) or not isinstance(fields, dict):
                        raise CodecError("malformed object encoding")
                    if self._object_hook is None:
                        raise CodecError(
                            f"no object hook to decode type {type_name!r}"
                        )
                    try:
                        value = self._object_hook(type_name, fields)
                    except CodecError:
                        raise
                    except Exception as exc:
                        # A registered hook choking on adversarial field
                        # values is still a malformed frame, not a crash.
                        raise CodecError(
                            f"object hook failed for type {type_name!r}: {exc}"
                        ) from exc


# The codec behind the module-level functions.  Both are shared safely: the
# ``*_into`` entry points keep no state between calls and the decoder keeps
# none at all, so these functions stay reentrant.
_ENCODER = WireEncoder()
_DECODER = WireDecoder()


def encode(value: Any) -> bytes:
    """Encode a value containing only primitive types."""
    buf = bytearray()
    _ENCODER.encode_into(buf, value)
    return bytes(buf)


def decode(data: Any) -> Any:
    """Decode a value containing only primitive types."""
    return _DECODER.decode(data)


def encode_many(values: Any) -> bytes:
    """Encode an iterable of primitive-typed values as one stream."""
    buf = bytearray()
    _ENCODER.encode_many_into(buf, values)
    return bytes(buf)


def decode_many(data: Any) -> list[Any]:
    """Decode a stream of concatenated primitive-typed values."""
    return _DECODER.decode_many(data)


def dataclass_fields(value: Any) -> dict[str, Any]:
    """Shallow field dict of a dataclass instance (no recursion)."""
    if not dataclasses.is_dataclass(value) or isinstance(value, type):
        raise CodecError(f"{value!r} is not a dataclass instance")
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


__all__ = [
    "MAX_DEPTH",
    "RecordSchema",
    "WireEncoder",
    "WireDecoder",
    "encode",
    "decode",
    "encode_many",
    "decode_many",
    "dataclass_fields",
]
