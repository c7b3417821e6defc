"""Wire-codec round-trip and rejection tests.

Two obligations, matching the transport split:

* **Fidelity** — every registered wire dataclass survives
  ``unframe(frame(x)) == x``, including the identity-sensitive pieces
  (sentinel singletons, IntEnum members) and the container zoo
  (frozensets, nested tuples, mappingproxy snapshots).
* **Hostility** — malformed bytes and structurally hostile tagged JSON
  raise :class:`~repro.common.codec.CodecError` and nothing else; and a
  frame that *decodes* fine but carries out-of-bounds protocol values is
  the next layer's problem, which ``validate_rb_message`` demonstrably
  catches (the same split the Byzantine datalink uses).

The binary wire format is checked against two references kept here: a
tagged-JSON encoding of the same object graph (:func:`encode` /
:func:`decode`), and one pinned frame per registered wire type
(:data:`WIRE_PINS`), which catches format drift a round trip cannot.
"""

import dataclasses
import json
import struct
import types
from enum import Enum
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.coherent_start import CoherentStartMessage
from repro.common import codec
from repro.common.codec import CodecError, frame, unframe
from repro.common.types import (
    BOTTOM,
    NOT_PARTICIPANT,
    DEFAULT_PROPOSAL,
    Phase,
    Proposal,
    make_config,
)
from repro.core.joining import JoinRequest, JoinResponse
from repro.core.recma import RecMAMessage
from repro.core.recsa import EchoTriple, RecSAMessage
from repro.counters.counter import Counter, CounterPair
from repro.counters.service import (
    CounterGossipMessage,
    MaxReadRequest,
    MaxReadResponse,
    MaxWriteRequest,
    MaxWriteResponse,
)
from repro.datalink.reliable_broadcast import (
    MAX_PATH_LEN,
    MAX_RB_SEQ,
    RBMessage,
    validate_rb_message,
)
from repro.datalink.token_exchange import DataLinkMessage
from repro.labels.label import EpochLabel, LabelPair
from repro.labels.labeling import LabelMessage
from repro.vs.view import View
from repro.vs.virtual_synchrony import VSState, VSStatus


# ---------------------------------------------------------------------------
# Tagged-JSON reference
# ---------------------------------------------------------------------------
# The same object graph as the binary format, with every container and
# registered type written as ``{"%": tag, ...}``.  It never touches the wire:
# the binary codec is compared against it, value for value.
def registered_wire_types():
    """Snapshot of the codec's dataclass registry, every message module loaded."""
    codec._ensure_registered()
    return dict(codec._TYPES)


def _encode(value: Any, depth: int) -> Any:
    if depth > codec.MAX_DEPTH:
        raise CodecError("object graph too deep to encode")
    # Enums before scalars: an IntEnum member (e.g. Phase.IDLE) *is* an int,
    # but must round-trip as the enum member, not its value — downstream code
    # compares by identity (``prp.phase is Phase.IDLE``).
    if isinstance(value, Enum):
        name = type(value).__name__
        if name not in codec._ENUMS:
            raise CodecError(f"unregistered enum {name!r}")
        return {"%": "enum", "t": name, "v": _encode(value.value, depth + 1)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    singleton = codec._SINGLETON_IDS.get(id(value))
    if singleton is not None:
        return {"%": "one", "t": singleton}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = next((n for n, cls in codec._TYPES.items() if cls is type(value)), None)
        if name is None:
            raise CodecError(f"unregistered wire type {type(value).__name__!r}")
        fields = {
            f: _encode(getattr(value, f), depth + 1) for f in codec._TYPE_FIELDS[name]
        }
        return {"%": "dc", "t": name, "f": fields}
    if isinstance(value, tuple):
        return {"%": "tuple", "v": [_encode(v, depth + 1) for v in value]}
    if isinstance(value, list):
        return {"%": "list", "v": [_encode(v, depth + 1) for v in value]}
    if isinstance(value, (frozenset, set)):
        encoded = [_encode(v, depth + 1) for v in value]
        # Canonical element order: equal sets encode to identical bytes.
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        tag = "fset" if isinstance(value, frozenset) else "set"
        return {"%": tag, "v": encoded}
    if isinstance(value, (dict, types.MappingProxyType)):
        return {
            "%": "dict",
            "v": [
                [_encode(k, depth + 1), _encode(v, depth + 1)]
                for k, v in value.items()
            ],
        }
    raise CodecError(f"cannot encode {type(value).__name__!r} value")


def _decode(value: Any, depth: int) -> Any:
    if depth > codec.MAX_DEPTH:
        raise CodecError("encoded graph too deep to decode")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if not isinstance(value, dict):
        raise CodecError(f"unexpected wire element {type(value).__name__!r}")
    tag = value.get("%")
    if tag == "dc":
        name = value.get("t")
        cls = codec._TYPES.get(name) if isinstance(name, str) else None
        if cls is None:
            raise CodecError(f"unknown wire type {name!r}")
        fields = value.get("f")
        if not isinstance(fields, dict) or not all(
            isinstance(k, str) for k in fields
        ):
            raise CodecError(f"malformed fields for wire type {name!r}")
        if not set(fields) <= set(codec._TYPE_FIELDS[name]):
            raise CodecError(f"unknown fields for wire type {name!r}")
        decoded = {k: _decode(v, depth + 1) for k, v in fields.items()}
        try:
            return cls(**decoded)
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot construct {name!r}: {exc}") from None
    if tag == "one":
        name = value.get("t")
        if name not in codec._SINGLETONS:
            raise CodecError(f"unknown singleton {name!r}")
        return codec._SINGLETONS[name]
    if tag == "enum":
        name = value.get("t")
        cls = codec._ENUMS.get(name) if isinstance(name, str) else None
        if cls is None:
            raise CodecError(f"unknown wire enum {name!r}")
        try:
            return cls(_decode(value.get("v"), depth + 1))
        except ValueError as exc:
            raise CodecError(f"bad {name!r} value: {exc}") from None
    if tag in ("tuple", "list", "fset", "set"):
        items = value.get("v")
        if not isinstance(items, list):
            raise CodecError(f"malformed {tag!r} container")
        decoded_items = [_decode(v, depth + 1) for v in items]
        if tag == "tuple":
            return tuple(decoded_items)
        if tag == "list":
            return decoded_items
        try:
            return frozenset(decoded_items) if tag == "fset" else set(decoded_items)
        except TypeError as exc:
            raise CodecError(f"unhashable {tag!r} element: {exc}") from None
    if tag == "dict":
        items = value.get("v")
        if not isinstance(items, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in items
        ):
            raise CodecError("malformed dict container")
        try:
            return {
                _decode(k, depth + 1): _decode(v, depth + 1) for k, v in items
            }
        except TypeError as exc:
            raise CodecError(f"unhashable dict key: {exc}") from None
    raise CodecError(f"unknown wire tag {tag!r}")


def encode(value: Any) -> Any:
    """Encode *value* into the JSON-safe tagged representation."""
    codec._ensure_registered()
    return _encode(value, 0)


def decode(value: Any) -> Any:
    """Decode a tagged representation; raises only :class:`CodecError`."""
    codec._ensure_registered()
    return _decode(value, 0)


def roundtrip(value: Any) -> Any:
    """``unframe(frame(value))``: the wire's round trip."""
    decoded, _ = unframe(frame(value))
    return decoded


_LABEL = EpochLabel(creator=2, sting=7, antistings=frozenset({1, 3}))
_PAIR = LabelPair(ml=_LABEL, cl=_LABEL)
_COUNTER = Counter(label=_LABEL, seqn=5, wid=2)
_CPAIR = CounterPair(mct=_COUNTER, cct=_COUNTER)
_ECHO = EchoTriple(
    part=make_config([0, 1, 2]),
    prp=Proposal(Phase.SELECT, make_config([0, 1])),
    all_flag=True,
)
_VIEW = View(view_id=_COUNTER, members=make_config([0, 1, 2]))

#: One realistic exemplar per registered wire type.  The completeness test
#: below fails if a new @wire_type lands without an exemplar here, so the
#: round-trip property can never silently skip a message class.
EXEMPLARS = {
    "DataLinkMessage": DataLinkMessage(kind="data", link_sender=1, seq=1),
    "RBMessage": RBMessage(kind="fwd", origin=2, seq=9, payload="cmd", path=(1, 3)),
    "EchoTriple": _ECHO,
    "RecSAMessage": RecSAMessage(
        sender=3,
        fd=make_config([0, 1, 2, 3]),
        part=make_config([0, 1, 2]),
        config=BOTTOM,
        prp=DEFAULT_PROPOSAL,
        all_flag=False,
        echo=_ECHO,
    ),
    "RecMAMessage": RecMAMessage(sender=0, no_maj=False, need_reconf=True),
    "JoinRequest": JoinRequest(sender=9),
    "JoinResponse": JoinResponse(
        sender=1, granted=True, state={"labels": (_PAIR,), "seqn": 3}
    ),
    "Proposal": Proposal(Phase.REPLACE, make_config([0, 2, 4])),
    "EpochLabel": _LABEL,
    "LabelPair": _PAIR,
    "LabelMessage": LabelMessage(sender=4, sent_max=_PAIR, last_sent=None),
    "Counter": _COUNTER,
    "CounterPair": _CPAIR,
    "CounterGossipMessage": CounterGossipMessage(
        sender=1, sent_max=_CPAIR, last_sent=None
    ),
    "MaxReadRequest": MaxReadRequest(sender=1, op_id=17),
    "MaxReadResponse": MaxReadResponse(
        sender=2, op_id=17, counter=_CPAIR, aborted=False
    ),
    "MaxWriteRequest": MaxWriteRequest(sender=1, op_id=18, counter=_COUNTER),
    "MaxWriteResponse": MaxWriteResponse(sender=2, op_id=18, acked=True),
    "View": _VIEW,
    "VSState": VSState(
        sender=0,
        view=_VIEW,
        status=VSStatus.MULTICAST,
        rnd=3,
        prop_view=None,
        no_crd=False,
        suspend=False,
        input=(0, 2, ("cmd", 11)),
        state_snapshot=types.MappingProxyType({"k": (1, "x")}),
        delivered=((3, ("cmd", 11)),),
        crd=0,
    ),
    "CoherentStartMessage": CoherentStartMessage(
        sender=5, sequence=2, config=make_config(range(4))
    ),
}


#: One pinned frame per registered wire type: the exemplar's bytes on the wire.
#: A format change shows here; regenerate with frame(EXEMPLARS[name]).hex()
#: only for a deliberate wire-format change.
WIRE_PINS = {
    "CoherentStartMessage": "00000011420b00030a030409040300030203040306",
    "Counter": "00000013420b010b060304030e090203020306030a0304",
    "CounterGossipMessage": (
        "0000002c420b0203020b030b010b060304030e090203020306030a03040b010b"
        "060304030e090203020306030a030400"
    ),
    "CounterPair": (
        "00000027420b030b010b060304030e090203020306030a03040b010b06030403"
        "0e090203020306030a0304"
    ),
    "DataLinkMessage": "0000000d420b0405046461746103020302",
    "EchoTriple": "00000018420b0509030300030203040b0f0d00030209020300030201",
    "EpochLabel": "0000000d420b060304030e090203020306",
    "JoinRequest": "00000005420b070312",
    "JoinResponse": (
        "00000034420b080302010a0205066c6162656c7306010b0a0b060304030e0902"
        "030203060b060304030e09020302030605047365716e0306"
    ),
    "LabelMessage": (
        "00000020420b0903080b0a0b060304030e0902030203060b060304030e090203"
        "02030600"
    ),
    "LabelPair": (
        "0000001b420b0a0b060304030e0902030203060b060304030e090203020306"
    ),
    "MaxReadRequest": "00000007420b0b03020322",
    "MaxReadResponse": (
        "0000002e420b0c030403220b030b010b060304030e090203020306030a03040b"
        "010b060304030e090203020306030a030402"
    ),
    "MaxWriteRequest": "00000019420b0d030203240b010b060304030e090203020306030a0304",
    "MaxWriteResponse": "00000009420b0e030403240102",
    "Proposal": "0000000f420b0f0d0003040903030003040308",
    "RBMessage": "00000017420b100503667764030403120503636d64060203020306",
    "RecMAMessage": "00000007420b1103000201",
    "RecSAMessage": (
        "00000038420b1203060904030003020304030609030300030203040e000b0f0d"
        "00030000020b0509030300030203040b0f0d00030209020300030201"
    ),
    "VSState": (
        "00000066420b1303000b140b010b060304030e090203020306030a0304090303"
        "00030203040d0105096d756c7469636173740306000202060303000304060205"
        "03636d6403160a0105016b0602030205017806010602030606020503636d6403"
        "16030006020300030000"
    ),
    "View": (
        "0000001d420b140b010b060304030e090203020306030a030409030300030203"
        "04"
    ),
}

class TestRoundTrip:
    def test_every_registered_type_has_an_exemplar(self):
        registered = set(registered_wire_types())
        assert registered == set(EXEMPLARS)

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_exemplar_frame_equals_its_pin(self, name):
        value = EXEMPLARS[name]
        assert set(WIRE_PINS) == set(EXEMPLARS)
        pinned = bytes.fromhex(WIRE_PINS[name])
        assert frame(value).hex() == WIRE_PINS[name]
        restored, consumed = unframe(pinned)
        assert consumed == len(pinned)
        if name == "VSState":
            # mappingproxy snapshots decode as plain dicts (equal content).
            value = dataclasses.replace(value, state_snapshot=dict(value.state_snapshot))
        assert restored == value
        assert type(restored) is type(value)

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_exemplar_roundtrips(self, name):
        value = EXEMPLARS[name]
        restored = roundtrip(value)
        if name == "VSState":
            # mappingproxy snapshots decode as plain dicts (equal content).
            assert restored.state_snapshot == dict(value.state_snapshot)
            assert restored == type(value)(
                **{
                    **{f: getattr(value, f) for f in value.__dataclass_fields__},
                    "state_snapshot": dict(value.state_snapshot),
                }
            )
        else:
            assert restored == value
            assert type(restored) is type(value)

    def test_sentinels_keep_identity(self):
        assert roundtrip(BOTTOM) is BOTTOM
        assert roundtrip(NOT_PARTICIPANT) is NOT_PARTICIPANT
        msg = EXEMPLARS["RecSAMessage"]
        assert roundtrip(msg).config is BOTTOM

    def test_intenum_members_keep_identity(self):
        # The regression the live runtime caught: Phase is an IntEnum, so a
        # scalar-first codec silently flattens it to int and the default
        # proposal stops being "default" (no_reco then flaps forever).
        restored = roundtrip(DEFAULT_PROPOSAL)
        assert restored.phase is Phase.IDLE
        assert restored.is_default
        assert roundtrip(VSStatus.MULTICAST) is VSStatus.MULTICAST

    def test_frozenset_encoding_is_canonical(self):
        a = frame(frozenset([3, 1, 2]))
        b = frame(frozenset([2, 3, 1]))
        assert a == b

    def test_framing_streams(self):
        data = frame("first") + frame(("second", 2))
        value, consumed = unframe(data)
        assert value == "first"
        rest, consumed2 = unframe(data[consumed:])
        assert rest == ("second", 2)
        assert consumed + consumed2 == len(data)

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers(-(2**40), 2**40)
            | st.text(max_size=12),
            lambda children: st.tuples(children, children)
            | st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=4), children, max_size=3),
            max_leaves=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_plain_container_roundtrip(self, value):
        assert roundtrip(value) == value

    @given(st.frozensets(st.integers(-1000, 1000), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_frozenset_roundtrip(self, value):
        assert roundtrip(value) == value


class TestRejection:
    def test_unregistered_class_is_rejected_on_encode(self):
        class NotWire:
            pass

        with pytest.raises(CodecError):
            encode(NotWire())

    def test_unknown_wire_type_rejected(self):
        with pytest.raises(CodecError):
            decode({"%": "dc", "t": "Simulator", "f": {}})

    def test_unknown_fields_rejected(self):
        body = encode(JoinRequest(sender=1))
        body["f"]["evil"] = 1
        with pytest.raises(CodecError):
            decode(body)

    def test_unknown_singleton_and_enum_rejected(self):
        with pytest.raises(CodecError):
            decode({"%": "one", "t": "TOP"})
        with pytest.raises(CodecError):
            decode({"%": "enum", "t": "Phase", "v": 99})
        with pytest.raises(CodecError):
            decode({"%": "enum", "t": "NoSuchEnum", "v": 0})

    def test_truncated_frames_rejected(self):
        data = frame(EXEMPLARS["RecSAMessage"])
        with pytest.raises(CodecError):
            unframe(data[:2])  # inside the length prefix
        with pytest.raises(CodecError):
            unframe(data[:-3])  # inside the body

    def test_oversized_length_prefix_rejected(self):
        with pytest.raises(CodecError):
            unframe(struct.pack(">I", codec.MAX_FRAME_BYTES + 1) + b"x")

    def test_non_json_body_rejected(self):
        with pytest.raises(CodecError):
            unframe(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")

    def test_depth_bomb_rejected(self):
        bomb = {"%": "list", "v": []}
        for _ in range(codec.MAX_DEPTH + 2):
            bomb = {"%": "list", "v": [bomb]}
        with pytest.raises(CodecError):
            decode(bomb)

    def test_unhashable_frozenset_element_rejected(self):
        with pytest.raises(CodecError):
            decode({"%": "fset", "v": [{"%": "list", "v": []}]})

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=8),
            lambda children: st.dictionaries(
                st.sampled_from(["%", "t", "v", "f", "x"]),
                children,
                max_size=4,
            )
            | st.lists(children, max_size=3),
            max_leaves=10,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_hostile_tagged_json_never_crashes(self, value):
        # Anything json.loads could produce either decodes or raises
        # CodecError — never KeyError/TypeError/RecursionError.
        payload = json.loads(json.dumps(value))
        try:
            decode(payload)
        except CodecError:
            pass


class TestByzantineBoundsSplit:
    """Codec-valid but protocol-hostile values are the validator's job."""

    def test_out_of_bounds_rb_messages_decode_then_fail_validation(self):
        hostile = [
            RBMessage(kind="send", origin=1, seq=MAX_RB_SEQ + 5),
            RBMessage(kind="nonsense", origin=1, seq=1),
            RBMessage(kind="echo", origin=2, seq=-1),
            RBMessage(kind="fwd", origin=3, seq=1,
                      path=tuple(range(MAX_PATH_LEN + 1))),
        ]
        for message in hostile:
            restored = roundtrip(message)
            assert restored == message  # the codec is a faithful pipe...
            assert not validate_rb_message(restored)  # ...validation rejects

    def test_honest_rb_message_passes_both_layers(self):
        message = EXEMPLARS["RBMessage"]
        assert validate_rb_message(roundtrip(message))


class TestBinaryFastPath:
    """PR 9: the binary wire format is an exact twin of the tagged-JSON path.

    ``frame()`` emits the binary format (discriminator ``B``), the only one
    ``unframe()`` accepts; ``encode()``/``decode()`` are the reference it is
    compared against: for every encodable value, decoding the binary bytes
    and decoding the reference JSON must produce equal objects.
    """

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_binary_equals_json_on_every_registered_type(self, name):
        value = EXEMPLARS[name]
        via_binary = codec.decode_binary(codec.encode_binary(value))
        via_json = decode(json.loads(json.dumps(encode(value))))
        assert via_binary == via_json
        assert type(via_binary) is type(via_json)

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_json_frame_rejected(self, name):
        # The wire has one format: a well-formed frame in the retired
        # tagged-JSON format ('J') is hostile input like any other.
        value = EXEMPLARS[name]
        assert frame(value)[4] == codec.FORMAT_BINARY
        body = json.dumps(encode(value), separators=(",", ":")).encode("utf-8")
        json_frame = struct.pack(">I", len(body) + 1) + b"J" + body
        with pytest.raises(CodecError, match="discriminator"):
            unframe(json_frame)

    def test_binary_preserves_identity_semantics(self):
        restored = codec.decode_binary(codec.encode_binary(DEFAULT_PROPOSAL))
        assert restored.phase is Phase.IDLE
        assert restored.is_default
        message = codec.decode_binary(codec.encode_binary(EXEMPLARS["RecSAMessage"]))
        assert message.config is BOTTOM
        assert codec.decode_binary(codec.encode_binary(BOTTOM)) is BOTTOM
        assert (
            codec.decode_binary(codec.encode_binary(VSStatus.MULTICAST))
            is VSStatus.MULTICAST
        )

    def test_binary_frozenset_encoding_is_canonical(self):
        assert codec.encode_binary(frozenset([3, 1, 2])) == codec.encode_binary(
            frozenset([2, 3, 1])
        )

    def test_big_int_and_bool_fields_round_trip_exactly(self):
        # A field annotated int may hold a bool or an int past 64 bits on a
        # corrupted node; the flat layout carries either exactly.
        huge = MaxReadRequest(sender=-(1 << 70), op_id=1 << 70)
        assert codec.decode_binary(codec.encode_binary(huge)) == huge
        boolish = MaxReadRequest(sender=True, op_id=2)
        assert codec.decode_binary(codec.encode_binary(boolish)).sender is True

    def test_retired_struct_opcode_is_unknown(self):
        with pytest.raises(CodecError, match="unknown binary opcode 0x0C"):
            codec.decode_binary(bytes([0x0C, 0x0B, 0x02]))

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers(-(2**70), 2**70)
            | st.floats(allow_nan=False)
            | st.text(max_size=12)
            | st.sampled_from(
                [BOTTOM, NOT_PARTICIPANT, Phase.SELECT, VSStatus.MULTICAST,
                 EXEMPLARS["Counter"], EXEMPLARS["EpochLabel"]]
            ),
            lambda children: st.tuples(children, children)
            | st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=4), children, max_size=3)
            | st.frozensets(st.integers(-100, 100), max_size=4),
            max_leaves=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_binary_equals_json_on_value_trees(self, value):
        via_binary = codec.decode_binary(codec.encode_binary(value))
        via_json = decode(json.loads(json.dumps(encode(value))))
        assert via_binary == via_json


class TestBinaryRejection:
    """Hostile binary bytes raise CodecError, never crash, never hang."""

    def test_unknown_discriminator_rejected(self):
        with pytest.raises(CodecError):
            unframe(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")

    def test_empty_body_rejected(self):
        with pytest.raises(CodecError):
            unframe(struct.pack(">I", 0))

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_truncated_binary_frames_rejected(self, name):
        data = frame(EXEMPLARS[name])
        for cut in range(5, len(data) - 1, max(1, len(data) // 7)):
            with pytest.raises(CodecError):
                unframe(data[:cut])

    def test_trailing_binary_bytes_rejected(self):
        body = codec.encode_binary(42) + b"\x00"
        with pytest.raises(CodecError):
            codec.decode_binary(body)

    def test_hostile_container_count_rejected_without_allocation(self):
        # Claims 2**28 elements in a 3-byte body: must raise, not allocate.
        hostile = bytes([0x07]) + b"\x80\x80\x80\x80\x01"
        with pytest.raises(CodecError):
            codec.decode_binary(hostile)

    def test_overlong_varint_rejected_without_building_the_int(self):
        # One 59 000-byte varint: the decode loop would rebuild an ever-larger
        # int from every byte; the cap stops it after MAX_VARINT_BITS.
        longest = codec.MAX_VARINT_BITS // 7
        with pytest.raises(CodecError):
            codec.decode_binary(bytes([0x03]) + b"\xff" * 58_999 + b"\x01")
        with pytest.raises(CodecError):
            codec.decode_binary(bytes([0x05]) + b"\xff" * longest + b"\x01")
        largest = (1 << (codec.MAX_VARINT_BITS - 1)) - 1
        for value in (largest, -largest - 1, 1 << 64, -(1 << 70)):
            body = codec.encode_binary(value)
            assert len(body) <= 1 + longest
            assert codec.decode_binary(body) == value
        for value in (largest + 1, -largest - 2):
            with pytest.raises(CodecError):
                codec.encode_binary(value)

    def test_unknown_ids_rejected(self):
        with pytest.raises(CodecError):
            codec.decode_binary(bytes([0x0B, 0xFA, 0x01]))  # wire type id
        with pytest.raises(CodecError):
            codec.decode_binary(bytes([0x0D, 0xFA, 0x01, 0x03, 0x02]))  # enum
        with pytest.raises(CodecError):
            codec.decode_binary(bytes([0x0E, 0xFA, 0x01]))  # singleton

    def test_binary_depth_bomb_rejected(self):
        bomb = bytes([0x06, 0x01]) * (codec.MAX_DEPTH + 2) + bytes([0x00])
        with pytest.raises(CodecError):
            codec.decode_binary(bomb)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_binary_bodies_never_crash(self, body):
        try:
            codec.decode_binary(body)
        except CodecError:
            pass

    @given(st.binary(min_size=0, max_size=48), st.sampled_from(sorted(EXEMPLARS)))
    @settings(max_examples=100, deadline=None)
    def test_bitflipped_frames_never_crash(self, noise, name):
        data = bytearray(frame(EXEMPLARS[name]))
        for index, byte in enumerate(noise):
            data[4 + index % (len(data) - 4)] ^= byte or 1
        try:
            unframe(bytes(data))
        except CodecError:
            pass


#: Field values at the edges of the compiled per-type paths: the 1- and
#: 2-byte zigzag varints and just past them, a 64-bit value, the inlined
#: None/bools, and values those paths hand to the generic codec.
EDGE_VALUES = [
    0, 63, 64, 127, 128, 8191, 8192, -1, -64, -65, -8192, -8193, 2**63,
    True, False, None, "data", frozenset({1, 3}), _COUNTER,
]


def _plain(value):
    """*value* with a mappingproxy snapshot as the dict it decodes to."""
    if isinstance(value, VSState):
        return dataclasses.replace(value, state_snapshot=dict(value.state_snapshot))
    return value


class TestCompiledPaths:
    """Each wire type's generated encoder and decoder, at their edges."""

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_edge_field_values_round_trip_and_match_the_reference(self, name):
        exemplar = _plain(EXEMPLARS[name])
        for field in codec._TYPE_FIELDS[name]:
            for edge in EDGE_VALUES:
                value = dataclasses.replace(exemplar, **{field: edge})
                restored = roundtrip(value)
                assert restored == value, (field, edge)
                assert type(getattr(restored, field)) is type(edge), (field, edge)
                assert restored == decode(json.loads(json.dumps(encode(value))))

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_truncated_frame_never_reads_into_the_next_one(self, name):
        # The length prefix is cut with the body, so the frame claims to end
        # where the next valid frame begins: decoding in place must stop there.
        whole = frame(EXEMPLARS[name])
        body = whole[4:]
        for cut in range(len(body)):
            truncated = struct.pack(">I", cut) + body[:cut]
            with pytest.raises(CodecError):
                unframe(truncated + whole)
            with pytest.raises(CodecError):
                unframe(whole + truncated + whole, len(whole))

    @pytest.mark.parametrize("name", sorted(EXEMPLARS))
    def test_frame_decodes_in_place_at_its_offset(self, name):
        head, whole, tail = frame("before"), frame(EXEMPLARS[name]), frame(None)
        data = head + whole + tail
        value, end = unframe(data, len(head))
        assert value == _plain(EXEMPLARS[name])
        assert end == len(head) + len(whole)
        assert unframe(data, end) == (None, len(data))

    def test_depth_limit_matches_the_reference(self):
        def nested(levels):
            value = 5
            for _ in range(levels):
                value = JoinResponse(sender=0, granted=False, state=value)
            return value

        deepest = nested(codec.MAX_DEPTH)  # its innermost int sits at MAX_DEPTH
        assert roundtrip(deepest) == deepest
        assert decode(encode(deepest)) == deepest
        with pytest.raises(CodecError):
            codec.encode_binary(nested(codec.MAX_DEPTH + 1))
        with pytest.raises(CodecError):
            encode(nested(codec.MAX_DEPTH + 1))
        # One more level in front of the deepest valid body: too deep to decode.
        level = codec.encode_binary(JoinResponse(sender=0, granted=False, state=None))[:-1]
        with pytest.raises(CodecError, match="too deep"):
            codec.decode_binary(level + codec.encode_binary(deepest))

    def test_type_with_post_init_keeps_its_constructor(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class ZZValidated:
            sender: int

            def __post_init__(self):
                if self.sender < 0:
                    raise ValueError("negative sender")

        monkeypatch.setitem(codec._TYPES, "ZZValidated", ZZValidated)
        monkeypatch.setitem(codec._TYPE_FIELDS, "ZZValidated", ("sender",))
        codec._invalidate_binary_tables()
        try:
            assert roundtrip(ZZValidated(sender=3)) == ZZValidated(sender=3)
            hostile = bytearray(frame(ZZValidated(sender=3)))
            hostile[-1] = 0x01  # zigzag -1
            with pytest.raises(CodecError, match="cannot construct"):
                unframe(bytes(hostile))
        finally:
            monkeypatch.undo()
            codec._invalidate_binary_tables()
        assert frame(EXEMPLARS["View"]).hex() == WIRE_PINS["View"]

    def test_datagram_with_a_truncated_frame_delivers_nothing(self):
        from repro.runtime.transport import _HEADER, _NodeEndpoint

        class Owner:
            quarantined_datagrams = delivered_datagrams = delivered_frames = 0

        class Process:
            pid = 1

            def __init__(self):
                self.delivered = []

            def deliver(self, source, payload):
                self.delivered.append((source, payload))

        owner, process = Owner(), Process()
        endpoint = _NodeEndpoint(owner, process, sock=None)
        valid = frame(EXEMPLARS["DataLinkMessage"])
        body = valid[4:]
        truncated = struct.pack(">I", len(body) - 1) + body[:-1]
        header = _HEADER.pack(7)
        endpoint.datagram_received(header + valid + truncated + valid, ("127.0.0.1", 9))
        assert process.delivered == []
        assert owner.quarantined_datagrams == 1
        endpoint.datagram_received(header + valid + valid, ("127.0.0.1", 9))
        assert process.delivered == [(7, EXEMPLARS["DataLinkMessage"])] * 2
        assert (owner.delivered_datagrams, owner.delivered_frames) == (1, 2)
