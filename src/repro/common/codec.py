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
  opcode, its type id, then its fields in registry order, positionally.
  Each registered dataclass gets one *generated encoder and one generated
  decoder*, Python source built from its registry entry and compiled with
  ``exec`` the first time the type is encoded or decoded (compiling all of
  them up front costs ≈ 20 ms, which would land in the boot of every
  process that runs a node).  They read and write small ints, ``None``, bools
  and nested registered dataclasses inline and hand any other field value
  to the generic, opcode-driven path.  :func:`unframe` decodes a frame in
  place at an offset, so a datagram of coalesced frames is never sliced.
  Type/enum/singleton
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

#: The counted containers whose items are decoded one by one.
_SEQUENCE_OPS = frozenset((_OP_TUPLE, _OP_LIST, _OP_SET, _OP_FSET))

_F8 = struct.Struct(">d")

#: Lazily built binary tables (sorted-registry ids, per-type stubs).
#: Rebuilt whenever a registration lands after the first build, so the ids
#: stay a pure function of the (import-complete) registry contents.
_BIN_TABLES: Optional[Dict[str, Any]] = None

# Hot-path aliases of the tables, kept as module globals so the per-value
# encode/decode loops pay one dict lookup instead of a tables-dict hop.
# Mutated in place by the builder; cleared (not rebound) on invalidation so
# every reference observes the reset.  A dataclass's slot in
# ``_BIN_DISPATCH`` and ``_BIN_DECODERS`` starts as a stub that compiles the
# type on first use and puts the generated function in its place.
_BIN_DISPATCH: Dict[type, Any] = {}
_BIN_DECODERS: List[Any] = []
_BIN_ENUMS_BY_ID: List[type] = []
_BIN_ONES_BY_ID: List[Any] = []

#: Frame head before encoding: the length prefix (filled in last) and the
#: format discriminator.
_FRAME_HEAD = bytes((0, 0, 0, 0, FORMAT_BINARY))

#: ``_SMALL_INTS[v]`` is the encoding of every int in ``[-64, 64)`` (one
#: zigzag byte); negative ``v`` index from the end, which is where they sit.
_SMALL_INTS = [bytes((_OP_INT, v << 1)) for v in range(64)] + [
    bytes((_OP_INT, (-v << 1) - 1)) for v in range(-64, 0)
]


def _invalidate_binary_tables() -> None:
    global _BIN_TABLES
    _BIN_TABLES = None
    _BIN_DISPATCH.clear()
    del _BIN_DECODERS[:]
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
    """Assign sorted-registry ids and install the per-type stubs."""
    _ensure_registered()
    dc_names = sorted(_TYPES)
    enum_names = sorted(_ENUMS)
    one_names = sorted(_SINGLETONS)
    dc_ids = {name: i for i, name in enumerate(dc_names)}
    enum_ids = {name: i for i, name in enumerate(enum_names)}
    one_ids = {name: i for i, name in enumerate(one_names)}

    def make_stubs(name: str) -> Tuple[Any, Any]:
        def encode_stub(buf: bytearray, value: Any, depth: int) -> None:
            _compile_wire_type(name)[0](buf, value, depth)

        def decode_stub(data: bytes, i: int, end: int, depth: int) -> Tuple[Any, int]:
            return _compile_wire_type(name)[1](data, i, end, depth)

        return encode_stub, decode_stub

    dispatch: Dict[type, Any] = {}
    decoders = []
    for name in dc_names:
        encode_stub, decode_stub = make_stubs(name)
        dispatch[_TYPES[name]] = encode_stub
        decoders.append(decode_stub)

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
    _BIN_DECODERS[:] = decoders
    _BIN_ENUMS_BY_ID[:] = [_ENUMS[name] for name in enum_names]
    _BIN_ONES_BY_ID[:] = [_SINGLETONS[name] for name in one_names]
    return {
        "dc_ids": dc_ids,
        "enum_ids": enum_ids,
        "enums_by_id": _BIN_ENUMS_BY_ID,
        "one_ids": one_ids,
        "ones_by_id": _BIN_ONES_BY_ID,
    }


def _binary_tables() -> Dict[str, Any]:
    global _BIN_TABLES
    tables = _BIN_TABLES
    if tables is None:
        tables = _BIN_TABLES = _build_binary_tables()
    return tables


# ---------------------------------------------------------------------------
# Generated per-type encoders and decoders
# ---------------------------------------------------------------------------
# One field of a generated encoder.  ``v`` is the field's value; small ints,
# None and bools are written here, a registered dataclass or enum by its own
# encoder, anything else by the generic ``_bin_encode``.
_ENCODE_FIELD = """\
    v = value.{field}
    c = v.__class__
    if c is int:
        if -64 <= v < 64:
            buf += SMALL_INTS[v]
        elif -8192 <= v < 8192:
            v = v + v if v >= 0 else -v - v - 1
            buf.append(OP_INT)
            buf.append((v & 0x7F) | 0x80)
            buf.append(v >> 7)
        else:
            append_int(buf, v)
    elif v is None:
        buf.append(OP_NONE)
    elif c is bool:
        buf.append(OP_TRUE if v else OP_FALSE)
    else:
        encoder = DISPATCH.get(c)
        if encoder is None:
            bin_encode(buf, v, depth + 1)
        else:
            encoder(buf, v, depth + 1)
"""

# One field of a generated decoder, into local ``f<k>``.  Reads are not
# bounded by ``end`` here: a read past it either raises IndexError (the
# public entry points turn it into CodecError) or leaves ``i`` beyond
# ``end``, which every later generic read and the entry points' final
# ``i == end`` check reject.  A 1- or 2-byte varint, None, the bools and a
# dataclass with a 1-byte type id are read inline; the rest goes to the
# generic ``_bin_decode`` from the field's first byte.
_DECODE_FIELD = """\
    op = data[i]
    if op == OP_INT:
        v = data[i + 1]
        if v < 0x80:
            f{k} = (v >> 1) ^ -(v & 1)
            i += 2
        else:
            w = data[i + 2]
            if w < 0x80:
                v = (v & 0x7F) | (w << 7)
                f{k} = (v >> 1) ^ -(v & 1)
                i += 3
            else:
                f{k}, i = bin_decode(data, i, end, depth + 1)
    elif op == OP_NONE:
        f{k} = None
        i += 1
    elif op == OP_TRUE:
        f{k} = True
        i += 1
    elif op == OP_FALSE:
        f{k} = False
        i += 1
    elif op == OP_DC and data[i + 1] < DIRECT_IDS:
        f{k}, i = DECODERS[data[i + 1]](data, i + 2, end, depth + 1)
    else:
        f{k}, i = bin_decode(data, i, end, depth + 1)
"""


def _compile_wire_type(name: str) -> Tuple[Any, Any]:
    """Generate, compile and install the wire type *name*'s encoder and decoder.

    The source is built from the registry alone (the type id and the field
    names, which ``dataclasses`` has already checked are identifiers), never
    from wire input, and compiled with ``exec`` the way ``dataclasses``
    builds ``__init__``.  The decoder builds the instance through its
    ``__dict__``, about 2× cheaper than ``cls(*values)``, which routes every
    field of a frozen dataclass through ``object.__setattr__``; a type with
    a ``__post_init__`` or ``__slots__`` keeps its real constructor, so its
    validation still runs.  A field's value is its own graph node, one level
    below the instance, so a type with fields is too deep one level earlier.
    """
    tables = _binary_tables()
    type_id = tables["dc_ids"][name]
    cls = _TYPES[name]
    fields = _TYPE_FIELDS[name]
    header = bytearray((_OP_DC,))
    _append_uvarint(header, type_id)
    limit = MAX_DEPTH - 1 if fields else MAX_DEPTH
    encode_lines = [
        "def encode(buf, value, depth):",
        f"    if depth > {limit}:",
        '        raise CodecError("object graph too deep to encode")',
        "    buf += HEADER",
    ]
    decode_lines = [
        "def decode(data, i, end, depth):",
        f"    if depth > {limit}:",
        '        raise CodecError("encoded graph too deep to decode")',
    ]
    for k, field in enumerate(fields):
        encode_lines.append(_ENCODE_FIELD.format(field=field))
        decode_lines.append(_DECODE_FIELD.format(k=k))
    values = ", ".join(f"f{k}" for k in range(len(fields)))
    if hasattr(cls, "__post_init__") or hasattr(cls, "__slots__"):
        decode_lines += [
            "    try:",
            f"        return CLS({values}), i",
            "    except (TypeError, ValueError) as exc:",
            f'        raise CodecError(f"cannot construct {name!r}: {{exc}}") from None',
        ]
    else:
        decode_lines += ["    obj = NEW(CLS)", "    state = obj.__dict__"]
        decode_lines += [f"    state[{field!r}] = f{k}" for k, field in enumerate(fields)]
        decode_lines.append("    return obj, i")
    namespace: Dict[str, Any] = {
        "CodecError": CodecError,
        "HEADER": bytes(header),
        "SMALL_INTS": _SMALL_INTS,
        "DISPATCH": _BIN_DISPATCH,
        "DECODERS": _BIN_DECODERS,
        "DIRECT_IDS": min(len(_BIN_DECODERS), 0x80),
        "CLS": cls,
        "NEW": cls.__new__,
        "append_int": _append_int,
        "bin_encode": _bin_encode,
        "bin_decode": _bin_decode,
        "OP_INT": _OP_INT,
        "OP_NONE": _OP_NONE,
        "OP_TRUE": _OP_TRUE,
        "OP_FALSE": _OP_FALSE,
        "OP_DC": _OP_DC,
    }
    source = "\n".join(encode_lines) + "\n\n" + "\n".join(decode_lines) + "\n"
    exec(compile(source, f"<wire type {name}>", "exec"), namespace)
    encoder, decoder = namespace["encode"], namespace["decode"]
    _BIN_DISPATCH[cls] = encoder
    _BIN_DECODERS[type_id] = decoder
    return encoder, decoder


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
    if cls is frozenset or cls is set:
        # Sets come before the rarer shapes: they are most of what generated
        # encoders hand over.  Canonical element order: equal sets encode to
        # identical bytes.
        if value and depth >= MAX_DEPTH:
            raise CodecError("object graph too deep to encode")
        encoded = []
        for item in value:
            if item.__class__ is int and -64 <= item < 64:
                encoded.append(_SMALL_INTS[item])
                continue
            piece = bytearray()
            _bin_encode(piece, item, depth + 1)
            encoded.append(bytes(piece))
        encoded.sort()
        buf.append(_OP_FSET if cls is frozenset else _OP_SET)
        _append_uvarint(buf, len(encoded))
        buf += b"".join(encoded)
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
    if op in _SEQUENCE_OPS:
        # Sets (configurations, antistings) are what generated decoders
        # hand over most; their counts fit one byte.
        if i < end and data[i] < 0x80:
            count = data[i]
            i += 1
        else:
            count, i = _read_uvarint(data, i, end)
        if count > end - i:
            # Every element costs at least one byte; a larger claim is a
            # hostile count and must not drive allocation.
            raise CodecError("container count exceeds remaining bytes")
        if count and depth >= MAX_DEPTH:
            raise CodecError("encoded graph too deep to decode")
        items = []
        for _ in range(count):
            # One-byte ints (set members are pids) are read here.
            if i + 1 < end and data[i] == _OP_INT and data[i + 1] < 0x80:
                zz = data[i + 1]
                items.append((zz >> 1) ^ -(zz & 1))
                i += 2
                continue
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
    if op == _OP_DC:
        type_id, i = _read_uvarint(data, i, end)
        decoders = _BIN_DECODERS
        if type_id >= len(decoders):
            raise CodecError(f"unknown binary wire type id {type_id}")
        return decoders[type_id](data, i, end, depth)
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


def _decode_body(data: bytes, start: int, end: int) -> Any:
    """Decode the one value that must fill ``data[start:end]`` exactly.

    The generated decoders read without checking *end*; a read past the
    buffer raises IndexError, and a read past *end* leaves the last value
    ending beyond it — both are a truncated body here.
    """
    try:
        # The common case, a dataclass with a one-byte type id, goes
        # straight to its decoder.
        if start + 1 < end and data[start] == _OP_DC and data[start + 1] < 0x80:
            decoders = _BIN_DECODERS
            type_id = data[start + 1]
            if type_id >= len(decoders):
                raise CodecError(f"unknown binary wire type id {type_id}")
            value, consumed = decoders[type_id](data, start + 2, end, 0)
        else:
            value, consumed = _bin_decode(data, start, end, 0)
    except IndexError:
        raise CodecError("truncated binary body") from None
    if consumed != end:
        raise CodecError(
            "trailing bytes after binary value" if consumed < end else "truncated binary body"
        )
    return value


def decode_binary(data: bytes) -> Any:
    """Decode one binary body (raises :class:`CodecError` on anything bad)."""
    _binary_tables()
    return _decode_body(data, 0, len(data))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def frame(value: Any) -> bytes:
    """Serialize *value* to one length-prefixed wire frame (binary format)."""
    if _BIN_TABLES is None:
        _binary_tables()
    buf = bytearray(_FRAME_HEAD)
    encoder = _BIN_DISPATCH.get(value.__class__)
    if encoder is None:
        _bin_encode(buf, value, 0)
    else:
        encoder(buf, value, 0)
    length = len(buf) - _LEN.size
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame body of {length - 1} bytes exceeds the cap")
    _LEN.pack_into(buf, 0, length)
    return bytes(buf)


def unframe(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode the frame that starts at *offset* in *data*, in place.

    Returns ``(value, end)``, where *end* is the offset just past the frame
    (the bytes consumed, from the default offset 0); raises
    :class:`CodecError` when the prefix is truncated, the body is incomplete
    or oversized, the format discriminator is unknown, or the body is
    malformed.  The body is decoded where it lies, bounded by its length
    prefix: bytes after the frame never complete it.  Stream and datagram
    callers pass *end* back as the next offset; a datagram is consumed
    when it equals ``len(data)``.
    """
    if len(data) - offset < _LEN.size:
        raise CodecError("truncated frame: missing length prefix")
    (length,) = _LEN.unpack_from(data, offset)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds the cap")
    if length < 1:
        raise CodecError("empty frame body")
    end = offset + _LEN.size + length
    if len(data) < end:
        raise CodecError("truncated frame: incomplete body")
    fmt = data[offset + _LEN.size]
    if fmt != FORMAT_BINARY:
        raise CodecError(f"unknown wire format discriminator 0x{fmt:02X}")
    if _BIN_TABLES is None:
        _binary_tables()
    return _decode_body(data, offset + _LEN.size + 1, end), end
