"""The node's route table: one consumer per wire type.

``ClusterNode`` hands a data-link packet to the heartbeat and every other
payload to the one layer whose class names its type in ``consumes``.  These
tests pin that table against the codec's registry and against what each
layer is written to consume, and pin the trajectories of the stacks where
counters, virtual synchrony and reliable broadcast all route.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.common import codec
from repro.core.joining import JoinRequest, JoinResponse
from repro.core.recma import RecMAMessage
from repro.core.recsa import RecSAMessage
from repro.counters.service import (
    CounterGossipMessage,
    MaxReadRequest,
    MaxReadResponse,
    MaxWriteRequest,
    MaxWriteResponse,
)
from repro.datalink.reliable_broadcast import RBMessage
from repro.datalink.token_exchange import DataLinkMessage
from repro.labels.labeling import LabelingService, LabelMessage
from repro.node.config import ClusterConfig
from repro.node.node import boot
from repro.node.stacks import StackProfile, available_stacks
from repro.scenarios import run_scenario
from repro.vs.virtual_synchrony import VSState

#: What each layer is written to consume, by the name the node knows the
#: layer under: the scheme's three layers, then the services' names.
CONSUMER = {
    RecSAMessage: "recsa",
    RecMAMessage: "recma",
    JoinRequest: "joining",
    JoinResponse: "joining",
    LabelMessage: "labels",
    CounterGossipMessage: "counters",
    MaxReadRequest: "counters",
    MaxReadResponse: "counters",
    MaxWriteRequest: "counters",
    MaxWriteResponse: "counters",
    VSState: "vs",
    RBMessage: "rb",
}

#: Registered wire types no layer consumes: values nested inside the
#: messages, and the coherent-start baseline's message, which its own
#: process (not a stack) handles.
NESTED = {
    "Counter",
    "CounterPair",
    "EchoTriple",
    "EpochLabel",
    "LabelPair",
    "Proposal",
    "View",
    "CoherentStartMessage",
}


def _node(stack):
    """Node 0 of a 4-node cluster on *stack*, never started: its
    ``on_receive`` is called directly."""
    _, nodes = boot(4, ClusterConfig(), stack=stack)
    return nodes[0]


def _layers(node):
    return {"recsa": node.recsa, "recma": node.recma, "joining": node.joining, **node.service_map}


def _record_on_message(node):
    """Replace every layer's ``on_message`` (the name the spine wraps) with a
    recorder on the instance; return the ``(layer name, type)`` log."""
    entered = []
    for name, layer in _layers(node).items():
        layer.on_message = (
            lambda sender, message, _name=name: entered.append((_name, type(message)))
        )
    return entered


def test_every_registered_wire_type_has_one_consumer():
    """A wire type is consumed by exactly one layer class over all stacks
    (the heartbeat for the data-link packet), or it is a nested value: a new
    message type has to name its consumer."""
    codec._ensure_registered()
    consumers = {DataLinkMessage: {"HeartbeatService"}}
    for name in available_stacks():
        for wire_type, layer in _node(name).routes.items():
            consumers.setdefault(wire_type, set()).add(type(layer).__name__)
    consumed = {wire_type.__name__ for wire_type in consumers}
    registered = {wire_type.__name__ for wire_type in codec._TYPES.values()}
    assert registered == consumed | NESTED
    assert not consumed & NESTED
    shared = {t.__name__: c for t, c in consumers.items() if len(c) != 1}
    # The three reliable-broadcast variants share one consumer base class.
    assert shared == {
        "RBMessage": {"BrachaBroadcastService", "DolevBroadcastService", "NaiveBroadcastService"}
    }
    assert set(CONSUMER) == set(consumers) - {DataLinkMessage}


@pytest.mark.parametrize("stack", available_stacks())
def test_each_consumed_type_enters_exactly_its_layer(stack):
    """Every type a layer of the stack consumes enters that layer's
    ``on_message`` and no other; a type whose layer the stack lacks is
    dropped."""
    node = _node(stack)
    entered = _record_on_message(node)
    layers = _layers(node)
    for wire_type, name in CONSUMER.items():
        node.on_receive(1, object.__new__(wire_type))
        assert entered == ([(name, wire_type)] if name in layers else []), wire_type
        entered.clear()


def test_an_unconsumed_payload_is_dropped_and_still_credits_its_sender():
    node = _node("bare")
    entered = _record_on_message(node)
    beats = []
    node.heartbeat.on_heartbeat = beats.append
    node.on_receive(2, {"kind": "gossip"})
    node.on_receive(9, LabelMessage(sender=9, sent_max=None, last_sent=None))
    assert entered == []
    assert beats == [2, 9]
    # The unknown sender's packet was its connection signal.
    assert 9 in node.heartbeat.links


def test_a_type_two_layers_claim_is_refused_when_the_node_is_built():
    def build(node, options):
        return {
            "labels": LabelingService(node.pid, node.scheme, node.send),
            "more_labels": LabelingService(node.pid, node.scheme, node.send),
        }

    twice = StackProfile("labels_twice", "two label services", build)
    with pytest.raises(ValueError, match="LabelMessage is consumed by both"):
        _node(twice)


def test_vs_and_rb_stack_trajectory_pin():
    """Statistics and probe outcomes at seed 0 of the scenarios on the
    stacks no other pin covers: ``vs_smr``, ``shared_register``,
    ``rb_bracha``, and ``vs_smr_rb``, where counters, virtual synchrony and
    reliable broadcast all route.  A change in which layer consumes what, or
    in what order a node's layers step, moves it."""
    digest = hashlib.sha256()
    for name in (
        "coordinator_hunt",
        "register_under_churn",
        "byzantine_storm",
        "equivocating_coordinator",
    ):
        result = run_scenario(name, 0)
        assert result["ok"], name
        record = [name, result["statistics"], result["probes"]]
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == "e861a5575657391d31378252f6a4f2b61cc739cfd28c7444fa81a030e97842b7"
