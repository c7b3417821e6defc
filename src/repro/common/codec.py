"""Wire codec: a self-describing encoding for every protocol message.

The discrete-event simulator passes Python objects between processes by
reference, so the protocol layers never needed a wire format.  The real
runtime backend (:mod:`repro.runtime`) sends the same messages over UDP
sockets, which requires every wire dataclass — recSA cores and deltas, recMA
flags, data-link tokens, reliable-broadcast packets, counter/label gossip,
VS state records, SMR commands — to survive an encode→decode round trip.

Design
------
* **Wire-type registry.**  Each message dataclass registers itself with the
  :func:`wire_type` decorator at definition site (the registry maps a stable
  wire name to the class and back).  Sentinel singletons (``⊥``,
  ``NOT_PARTICIPANT``) and enums (``Phase``, ``VSStatus``) register through
  :func:`register_singleton` / :func:`wire_enum`.  Nothing outside the
  registry ever decodes into an object with behaviour — an attacker cannot
  instantiate arbitrary classes (this is deliberately *not* pickle).
* **Length-prefixed framing with a format discriminator.**  :func:`frame`
  prefixes the body with a 4-byte big-endian length; the first body byte is
  a one-byte wire-format discriminator.  There is one format (``B`` =
  binary); :func:`unframe` rejects every other discriminator, and a
  receiver can reject oversized or truncated input before parsing.
* **Binary format.**  The wire format is the object graph as compact
  opcode-prefixed bytes.  Every dataclass is written the one way: its
  opcode, its type id, then its fields in registry order, by a
  per-dataclass *precompiled flat encoder* (field list resolved at registry
  build time, fields positional on the wire).  Type/enum/singleton
  identifiers are indices into the sorted registry, so both sides of a
  connection that import the same message modules agree on them.  Tuples,
  frozensets, sets, dicts with non-string keys and ``mappingproxy`` views
  (copy-on-write SMR snapshots) all round-trip; frozenset elements are written in a canonical order, so equal
  values encode to identical bytes.  ``tests/test_codec.py`` pins one frame
  per wire type and compares the format against a tagged-JSON reference.
* **Graceful rejection.**  Malformed input — truncated frames, unknown tags
  or opcodes, wrong field sets, over-deep nesting, varints longer than
  :data:`MAX_VARINT_BITS` — raises
  :class:`CodecError`, never anything else.  Receivers (the runtime
  transport, the conformance tests) catch that one type and quarantine,
  mirroring how
  :func:`repro.datalink.reliable_broadcast.validate_rb_message` handles
  schema-valid-but-out-of-bounds Byzantine input one layer up.
"""

from __future__ import annotations

import dataclasses
import struct
import types
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.common.errors import ReproError


class CodecError(ReproError):
    """Input that cannot be encoded to — or decoded from — the wire format."""


#: Hard cap on one frame's body (bytes).  Every honest message in the stack
#: is a few KiB even at large n; anything bigger is a hostile or corrupted
#: frame and is rejected before parsing allocates for it.
MAX_FRAME_BYTES = 1 << 20

#: Maximum nesting depth of the encoded object graph.  Honest messages nest
#: a handful of levels (message → pair → label → frozenset); a deeply nested
#: bomb is rejected instead of recursing toward the interpreter limit.
MAX_DEPTH = 32

#: Longest varint the codec writes or reads, in bits: 18 bytes of 7 bits.
#: Honest integers stay far below it (sequence numbers are bounded by 2**64,
#: which zigzag doubles), and a decoder that met a longer varint would
#: rebuild an ever-larger int byte by byte: quadratic time from one frame.
MAX_VARINT_BITS = 126

#: The length prefix: 4-byte big-endian unsigned body length.
_LEN = struct.Struct(">I")

#: Wire-format discriminator: the first byte of every frame body.
FORMAT_BINARY = 0x42  # 'B'

_TYPES: Dict[str, Type[Any]] = {}
_TYPE_FIELDS: Dict[str, Tuple[str, ...]] = {}
_SINGLETONS: Dict[str, Any] = {}
_SINGLETON_IDS: Dict[int, str] = {}
_ENUMS: Dict[str, Type[Enum]] = {}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def wire_type(cls: Optional[type] = None, *, name: Optional[str] = None):
    """Class decorator registering a dataclass as a wire type.

    The wire name defaults to the class name; it becomes part of the wire
    format, so renaming a registered class without keeping ``name=`` is a
    protocol change.  Apply *above* ``@dataclass`` (the decorator inspects
    dataclass fields).
    """

    def register(klass: type) -> type:
        wire_name = name or klass.__name__
        if not dataclasses.is_dataclass(klass):
            raise CodecError(f"wire type {wire_name!r} must be a dataclass")
        existing = _TYPES.get(wire_name)
        if existing is not None and existing is not klass:
            raise CodecError(f"wire type name {wire_name!r} already registered")
        _TYPES[wire_name] = klass
        _TYPE_FIELDS[wire_name] = tuple(
            f.name for f in dataclasses.fields(klass) if f.init
        )
        _invalidate_binary_tables()
        return klass

    if cls is not None:
        return register(cls)
    return register


def register_singleton(name: str, value: Any) -> Any:
    """Register a sentinel singleton (encoded by identity, decoded to it)."""
    existing = _SINGLETONS.get(name)
    if existing is not None and existing is not value:
        raise CodecError(f"singleton name {name!r} already registered")
    _SINGLETONS[name] = value
    _SINGLETON_IDS[id(value)] = name
    _invalidate_binary_tables()
    return value


def wire_enum(cls: Type[Enum]) -> Type[Enum]:
    """Class decorator registering an enum as a wire type (by value)."""
    name = cls.__name__
    existing = _ENUMS.get(name)
    if existing is not None and existing is not cls:
        raise CodecError(f"wire enum name {name!r} already registered")
    _ENUMS[name] = cls
    _invalidate_binary_tables()
    return cls


def _ensure_registered() -> None:
    """Import every module that defines wire types.

    Registration happens at class-definition site; this pulls those modules
    in so a process that only imported the codec (the runtime transport, the
    tests) still knows the full message vocabulary.
    """
    import repro.common.types  # noqa: F401  (sentinels, Phase, Proposal)
    import repro.datalink.token_exchange  # noqa: F401
    import repro.datalink.reliable_broadcast  # noqa: F401
    import repro.core.recsa  # noqa: F401
    import repro.core.recma  # noqa: F401
    import repro.core.joining  # noqa: F401
    import repro.counters.counter  # noqa: F401
    import repro.counters.service  # noqa: F401
    import repro.labels.label  # noqa: F401
    import repro.labels.labeling  # noqa: F401
    import repro.vs.view  # noqa: F401
    import repro.vs.virtual_synchrony  # noqa: F401
    import repro.baselines.coherent_start  # noqa: F401


# ---------------------------------------------------------------------------
# Binary fast path
# ---------------------------------------------------------------------------
# Opcodes of the binary wire format.  Containers carry an element count;
# integers are zigzag varints; strings are length-prefixed UTF-8.
_OP_NONE = 0x00
_OP_TRUE = 0x01
_OP_FALSE = 0x02
_OP_INT = 0x03
_OP_FLOAT = 0x04
_OP_STR = 0x05
_OP_TUPLE = 0x06
_OP_LIST = 0x07
_OP_SET = 0x08
_OP_FSET = 0x09
_OP_DICT = 0x0A
_OP_DC = 0x0B  # dataclass: type id + per-field values (registry order)
# 0x0C is unassigned: it decodes as an unknown opcode.
_OP_ENUM = 0x0D
_OP_ONE = 0x0E  # sentinel singleton

_F8 = struct.Struct(">d")

#: Lazily built binary tables (sorted-registry ids + precompiled encoders).
#: Rebuilt whenever a registration lands after the first build, so the ids
#: stay a pure function of the (import-complete) registry contents.
_BIN_TABLES: Optional[Dict[str, Any]] = None

# Hot-path aliases of the tables, kept as module globals so the per-value
# encode/decode loops pay one dict lookup instead of a tables-dict hop.
# Mutated in place by the builder; cleared (not rebound) on invalidation so
# every reference observes the reset.
_BIN_DISPATCH: Dict[type, Any] = {}
_BIN_DC_BY_ID: List[Tuple[type, Tuple[str, ...], Any]] = []
_BIN_ENUMS_BY_ID: List[type] = []
_BIN_ONES_BY_ID: List[Any] = []


def _invalidate_binary_tables() -> None:
    global _BIN_TABLES
    _BIN_TABLES = None
    _BIN_DISPATCH.clear()
    del _BIN_DC_BY_ID[:]
    del _BIN_ENUMS_BY_ID[:]
    del _BIN_ONES_BY_ID[:]


def _append_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _append_int(buf: bytearray, n: int) -> None:
    # Zigzag so small negatives stay small on the wire.
    zz = (n << 1) if n >= 0 else ((-n << 1) - 1)
    buf.append(_OP_INT)
    if zz > 0x7F:
        if zz >> MAX_VARINT_BITS:
            raise CodecError(f"integer of {n.bit_length()} bits exceeds the varint cap")
        while zz > 0x7F:
            buf.append((zz & 0x7F) | 0x80)
            zz >>= 7
    buf.append(zz)


def _build_binary_tables() -> Dict[str, Any]:
    """Assign sorted-registry ids and precompile per-dataclass encoders."""
    _ensure_registered()
    dc_names = sorted(_TYPES)
    enum_names = sorted(_ENUMS)
    one_names = sorted(_SINGLETONS)
    dc_ids = {name: i for i, name in enumerate(dc_names)}
    enum_ids = {name: i for i, name in enumerate(enum_names)}
    one_ids = {name: i for i, name in enumerate(one_names)}

    def make_ctor(cls: type, fields: Tuple[str, ...]) -> Any:
        """A decode-side constructor that skips the frozen-init machinery.

        Wire dataclasses are plain (non-slots) frozen dataclasses, so an
        instance is its ``__dict__``; building it directly is ~3× cheaper
        than ``cls(*values)`` (which routes every field through
        ``object.__setattr__``).  Types with a ``__post_init__`` keep the
        real constructor so their validation still runs.
        """
        if hasattr(cls, "__post_init__") or hasattr(cls, "__slots__"):
            return None
        new = cls.__new__

        def ctor(values: Tuple[Any, ...]) -> Any:
            obj = new(cls)
            obj.__dict__.update(zip(fields, values))
            return obj

        return ctor

    dc_by_id = []
    for name in dc_names:
        cls = _TYPES[name]
        fields = _TYPE_FIELDS[name]
        dc_by_id.append((cls, fields, make_ctor(cls, fields)))

    dispatch: Dict[type, Any] = {}

    def make_dc_encoder(name: str) -> Any:
        fields = _TYPE_FIELDS[name]
        header = bytearray()
        header.append(_OP_DC)
        _append_uvarint(header, dc_ids[name])
        flat_header = bytes(header)

        def encode_flat(buf: bytearray, value: Any, depth: int) -> None:
            if depth > MAX_DEPTH:
                raise CodecError("object graph too deep to encode")
            buf += flat_header
            for field in fields:
                _bin_encode(buf, getattr(value, field), depth + 1)

        return encode_flat

    for name in dc_names:
        dispatch[_TYPES[name]] = make_dc_encoder(name)

    def make_enum_encoder(name: str) -> Any:
        header = bytearray()
        header.append(_OP_ENUM)
        _append_uvarint(header, enum_ids[name])
        prefix = bytes(header)

        def encode_enum(buf: bytearray, value: Any, depth: int) -> None:
            buf += prefix
            _bin_encode(buf, value.value, depth + 1)

        return encode_enum

    for name in enum_names:
        dispatch[_ENUMS[name]] = make_enum_encoder(name)

    _BIN_DISPATCH.clear()
    _BIN_DISPATCH.update(dispatch)
    _BIN_DC_BY_ID[:] = dc_by_id
    _BIN_ENUMS_BY_ID[:] = [_ENUMS[name] for name in enum_names]
    _BIN_ONES_BY_ID[:] = [_SINGLETONS[name] for name in one_names]
    return {
        "dc_ids": dc_ids,
        "dc_by_id": dc_by_id,
        "enum_ids": enum_ids,
        "enums_by_id": _BIN_ENUMS_BY_ID,
        "one_ids": one_ids,
        "ones_by_id": _BIN_ONES_BY_ID,
        "dispatch": dispatch,
    }


def _binary_tables() -> Dict[str, Any]:
    global _BIN_TABLES
    tables = _BIN_TABLES
    if tables is None:
        tables = _BIN_TABLES = _build_binary_tables()
    return tables


def _bin_encode(buf: bytearray, value: Any, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise CodecError("object graph too deep to encode")
    cls = value.__class__
    if cls is int:
        _append_int(buf, value)
        return
    if cls is str:
        raw = value.encode("utf-8")
        buf.append(_OP_STR)
        _append_uvarint(buf, len(raw))
        buf += raw
        return
    if value is None:
        buf.append(_OP_NONE)
        return
    if cls is bool:
        buf.append(_OP_TRUE if value else _OP_FALSE)
        return
    if cls is float:
        buf.append(_OP_FLOAT)
        buf += _F8.pack(value)
        return
    encoder = _BIN_DISPATCH.get(cls)
    if encoder is not None:
        encoder(buf, value, depth)
        return
    if cls is tuple or cls is list:
        buf.append(_OP_TUPLE if cls is tuple else _OP_LIST)
        _append_uvarint(buf, len(value))
        for item in value:
            _bin_encode(buf, item, depth + 1)
        return
    if cls is frozenset or cls is set:
        # Canonical element order: equal sets encode to identical bytes.
        encoded = []
        for item in value:
            piece = bytearray()
            _bin_encode(piece, item, depth + 1)
            encoded.append(bytes(piece))
        encoded.sort()
        buf.append(_OP_FSET if cls is frozenset else _OP_SET)
        _append_uvarint(buf, len(encoded))
        for piece in encoded:
            buf += piece
        return
    if cls is dict or cls is types.MappingProxyType:
        buf.append(_OP_DICT)
        _append_uvarint(buf, len(value))
        for key, item in value.items():
            _bin_encode(buf, key, depth + 1)
            _bin_encode(buf, item, depth + 1)
        return
    singleton = _SINGLETON_IDS.get(id(value))
    if singleton is not None:
        buf.append(_OP_ONE)
        _append_uvarint(buf, _binary_tables()["one_ids"][singleton])
        return
    if isinstance(value, Enum):
        raise CodecError(f"unregistered enum {cls.__name__!r}")
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise CodecError(f"unregistered wire type {cls.__name__!r}")
    raise CodecError(f"cannot encode {cls.__name__!r} value")


def encode_binary(value: Any) -> bytes:
    """Encode *value* to the compact binary body (no discriminator/frame)."""
    _binary_tables()
    buf = bytearray()
    _bin_encode(buf, value, 0)
    return bytes(buf)


def _read_uvarint(data: bytes, i: int, end: int) -> Tuple[int, int]:
    shift = 0
    result = 0
    while True:
        if i >= end:
            raise CodecError("truncated varint")
        byte = data[i]
        i += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, i
        shift += 7
        if shift >= MAX_VARINT_BITS:
            raise CodecError("varint exceeds the cap")


def _bin_decode(data: bytes, i: int, end: int, depth: int) -> Tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise CodecError("encoded graph too deep to decode")
    if i >= end:
        raise CodecError("truncated binary body")
    op = data[i]
    i += 1
    if op == _OP_INT:
        # Inlined zigzag-uvarint read: integers dominate every message, so
        # this branch skips the helper-call overhead.
        zz = 0
        shift = 0
        while True:
            if i >= end:
                raise CodecError("truncated varint")
            byte = data[i]
            i += 1
            zz |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift >= MAX_VARINT_BITS:
                raise CodecError("varint exceeds the cap")
        return (zz >> 1) if not (zz & 1) else -((zz + 1) >> 1), i
    if op == _OP_DC:
        type_id, i = _read_uvarint(data, i, end)
        dc_by_id = _BIN_DC_BY_ID
        if type_id >= len(dc_by_id):
            raise CodecError(f"unknown binary wire type id {type_id}")
        cls, fields, ctor = dc_by_id[type_id]
        decoded = []
        for _ in fields:
            item, i = _bin_decode(data, i, end, depth + 1)
            decoded.append(item)
        values = tuple(decoded)
        if ctor is not None:
            # Arity is fixed by the field loop above, so the precompiled
            # constructor cannot mis-build; validation-free types only.
            return ctor(values), i
        try:
            return cls(*values), i
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"cannot construct {cls.__name__!r}: {exc}"
            ) from None
    if op == _OP_STR:
        length, i = _read_uvarint(data, i, end)
        if i + length > end:
            raise CodecError("truncated string")
        try:
            return data[i : i + length].decode("utf-8"), i + length
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 string: {exc}") from None
    if op == _OP_NONE:
        return None, i
    if op == _OP_TRUE:
        return True, i
    if op == _OP_FALSE:
        return False, i
    if op == _OP_FLOAT:
        if i + 8 > end:
            raise CodecError("truncated float")
        return _F8.unpack_from(data, i)[0], i + 8
    if op == _OP_ENUM:
        enum_id, i = _read_uvarint(data, i, end)
        enums = _BIN_ENUMS_BY_ID
        if enum_id >= len(enums):
            raise CodecError(f"unknown binary enum id {enum_id}")
        raw, i = _bin_decode(data, i, end, depth + 1)
        try:
            return enums[enum_id](raw), i
        except (TypeError, ValueError) as exc:
            raise CodecError(f"bad enum value: {exc}") from None
    if op == _OP_ONE:
        one_id, i = _read_uvarint(data, i, end)
        ones = _BIN_ONES_BY_ID
        if one_id >= len(ones):
            raise CodecError(f"unknown binary singleton id {one_id}")
        return ones[one_id], i
    if op in (_OP_TUPLE, _OP_LIST, _OP_SET, _OP_FSET):
        count, i = _read_uvarint(data, i, end)
        if count > end - i:
            # Every element costs at least one byte; a larger claim is a
            # hostile count and must not drive allocation.
            raise CodecError("container count exceeds remaining bytes")
        items = []
        for _ in range(count):
            item, i = _bin_decode(data, i, end, depth + 1)
            items.append(item)
        if op == _OP_TUPLE:
            return tuple(items), i
        if op == _OP_LIST:
            return items, i
        try:
            return (frozenset(items) if op == _OP_FSET else set(items)), i
        except TypeError as exc:
            raise CodecError(f"unhashable set element: {exc}") from None
    if op == _OP_DICT:
        count, i = _read_uvarint(data, i, end)
        if count * 2 > end - i:
            raise CodecError("dict count exceeds remaining bytes")
        result: Dict[Any, Any] = {}
        try:
            for _ in range(count):
                key, i = _bin_decode(data, i, end, depth + 1)
                item, i = _bin_decode(data, i, end, depth + 1)
                result[key] = item
        except TypeError as exc:
            raise CodecError(f"unhashable dict key: {exc}") from None
        return result, i
    raise CodecError(f"unknown binary opcode 0x{op:02X}")


def decode_binary(data: bytes) -> Any:
    """Decode one binary body (raises :class:`CodecError` on anything bad)."""
    _binary_tables()
    value, consumed = _bin_decode(data, 0, len(data), 0)
    if consumed != len(data):
        raise CodecError("trailing bytes after binary value")
    return value


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def frame(value: Any) -> bytes:
    """Serialize *value* to one length-prefixed wire frame (binary format)."""
    body = encode_binary(value)
    if len(body) + 1 > MAX_FRAME_BYTES:
        raise CodecError(f"frame body of {len(body)} bytes exceeds the cap")
    return _LEN.pack(len(body) + 1) + bytes((FORMAT_BINARY,)) + body


def unframe(data: bytes) -> Tuple[Any, int]:
    """Decode one frame from the head of *data*.

    Returns ``(value, bytes_consumed)``; raises :class:`CodecError` when the
    prefix is truncated, the body is incomplete or oversized, the format
    discriminator is unknown, or the body is malformed.  Stream callers keep
    the tail for the next frame; datagram callers require
    ``bytes_consumed == len(data)``.
    """
    if len(data) < _LEN.size:
        raise CodecError("truncated frame: missing length prefix")
    (length,) = _LEN.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds the cap")
    if length < 1:
        raise CodecError("empty frame body")
    end = _LEN.size + length
    if len(data) < end:
        raise CodecError("truncated frame: incomplete body")
    fmt = data[_LEN.size]
    body = data[_LEN.size + 1 : end]
    if fmt == FORMAT_BINARY:
        return decode_binary(body), end
    raise CodecError(f"unknown wire format discriminator 0x{fmt:02X}")
