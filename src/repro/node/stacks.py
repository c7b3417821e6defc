"""Stack profiles: named, ordered bundles of application services.

A :class:`StackProfile` describes *which* services a node runs on top of the
reconfiguration scheme and *how* they are wired together.  The node
instantiates its own profile (``ClusterNode`` calls
:meth:`StackProfile.instantiate`), which removes the per-example hand wiring
of ``CounterService``/``VirtualSynchronyService``/``SharedRegister`` and the
leaky reach into ``node._send_raw`` that every caller used to copy.

Built-in profiles (ordered bottom-up; each bundle includes what it builds on):

``bare``
    No application services — just data links, failure detector and the
    reconfiguration scheme.
``labels``
    The bounded epoch-label algorithm (:mod:`repro.labels`).
``counters``
    The practically-unbounded counter-increment algorithm
    (:mod:`repro.counters`).  Options: ``seqn_bound``.
``vs_smr``
    Counters plus the virtually synchronous replicated state machine.
    Options: ``state_machine`` (factory, default ``LogStateMachine``).  The
    evalConfig policy reads ``node.control["reconfigure"]``, so callers
    trigger a coordinator-led delicate reconfiguration with
    ``node.control["reconfigure"] = True``.
``shared_register``
    ``vs_smr`` pinned to a :class:`~repro.vs.smr.RegisterStateMachine` plus a
    :class:`~repro.vs.shared_memory.SharedRegister` client bound to the node.
``rb_bracha`` / ``rb_dolev`` / ``rb_naive``
    A Byzantine-tolerant reliable-broadcast service
    (:mod:`repro.datalink.reliable_broadcast`) on the bare scheme: Bracha
    echo voting, Dolev path flooding, or the unprotected naive fan-out
    baseline.  Options: ``variant`` (pre-set per profile).
``vs_smr_rb``
    ``vs_smr`` with a Bracha reliable-broadcast service alongside — the
    stack the Byzantine audit certifies ``smr_agreement`` on while traitors
    attack the broadcast layer.

Profiles are immutable; :meth:`StackProfile.configure` derives a customized
copy (``stack("counters", seqn_bound=3)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Union

from repro.counters.counter import DEFAULT_SEQN_BOUND
from repro.counters.service import CounterService
from repro.datalink.reliable_broadcast import make_rb_service
from repro.labels.labeling import LabelingService
from repro.vs.shared_memory import SharedRegister
from repro.vs.smr import LogStateMachine, RegisterStateMachine
from repro.vs.virtual_synchrony import VirtualSynchronyService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.node.node import ClusterNode

#: A builder receives the node plus the profile's options and returns the
#: ordered ``{name: service}`` mapping; the node registers the services in
#: that order (which fixes the on_timer / on_message dispatch order).
ServiceBuilder = Callable[["ClusterNode", Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class StackProfile:
    """A named, ordered, parameterizable bundle of node services."""

    name: str
    description: str
    builder: ServiceBuilder
    options: Mapping[str, Any] = field(default_factory=dict)

    def configure(self, **options: Any) -> "StackProfile":
        """A copy of the profile with *options* merged in."""
        if not options:
            return self
        return replace(self, options={**dict(self.options), **options})

    def instantiate(self, node: "ClusterNode") -> Dict[str, Any]:
        """Build the profile's services for *node* (``{name: service}``)."""
        return self.builder(node, dict(self.options))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, StackProfile] = {}


def register_stack(profile: StackProfile) -> StackProfile:
    """Add *profile* to the registry (unique name required)."""
    if profile.name in _REGISTRY:
        raise ValueError(f"stack profile {profile.name!r} is already registered")
    _REGISTRY[profile.name] = profile
    return profile


def get_stack(ref: Union[str, StackProfile], **options: Any) -> StackProfile:
    """Resolve a profile by name (or pass one through), applying *options*."""
    if isinstance(ref, StackProfile):
        return ref.configure(**options)
    try:
        profile = _REGISTRY[ref]
    except KeyError:
        raise KeyError(
            f"unknown stack profile {ref!r}; available: {available_stacks()}"
        ) from None
    return profile.configure(**options)


#: ``stack("vs_smr", state_machine=KeyValueStateMachine)`` reads naturally at
#: call sites; it is the conventional entry point of the registry.
stack = get_stack


def available_stacks() -> list:
    """Sorted names of every registered profile."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Built-in profiles
# ---------------------------------------------------------------------------
def _build_bare(node: "ClusterNode", options: Dict[str, Any]) -> Dict[str, Any]:
    return {}


def _build_labels(node: "ClusterNode", options: Dict[str, Any]) -> Dict[str, Any]:
    return {"labels": LabelingService(node.pid, node.scheme, node.send)}


def _build_counters(node: "ClusterNode", options: Dict[str, Any]) -> Dict[str, Any]:
    service = CounterService(
        node.pid,
        node.scheme,
        node.send,
        seqn_bound=options.get("seqn_bound", DEFAULT_SEQN_BOUND),
    )
    return {"counters": service}


class _ControlEvalConfig:
    """The evalConfig policy: read the node's ``control`` mailbox.

    A class (not a closure) so snapshot/restore deep-copies remap the node
    reference: a restored VS service must read the restored node's mailbox,
    not the original's.
    """

    __slots__ = ("node",)

    def __init__(self, node: "ClusterNode") -> None:
        self.node = node

    def __call__(self) -> bool:
        return bool(self.node.control.get("reconfigure", False))


def _build_vs_smr(node: "ClusterNode", options: Dict[str, Any]) -> Dict[str, Any]:
    services = _build_counters(node, options)
    machine_factory = options.get("state_machine", LogStateMachine)
    services["vs"] = VirtualSynchronyService(
        node.pid,
        node.scheme,
        services["counters"],
        node.send,
        state_machine=machine_factory(),
        eval_config=_ControlEvalConfig(node),
    )
    return services


def _build_shared_register(node: "ClusterNode", options: Dict[str, Any]) -> Dict[str, Any]:
    machine = options.get("state_machine", RegisterStateMachine)
    if machine is not RegisterStateMachine:
        raise ValueError(
            "the shared_register profile is pinned to RegisterStateMachine; "
            "use the vs_smr profile for a custom state machine"
        )
    services = _build_vs_smr(node, {**options, "state_machine": RegisterStateMachine})
    services["register"] = SharedRegister(node.pid, services["vs"])
    return services


def _build_rb(node: "ClusterNode", options: Dict[str, Any]) -> Dict[str, Any]:
    service = make_rb_service(
        options.get("variant", "bracha"),
        node.pid,
        tuple(node._initial_peers),
        node.send,
    )
    return {"rb": service}


def _build_vs_smr_rb(node: "ClusterNode", options: Dict[str, Any]) -> Dict[str, Any]:
    services = _build_vs_smr(node, options)
    services.update(_build_rb(node, options))
    return services


BARE = register_stack(
    StackProfile("bare", "reconfiguration scheme only, no services", _build_bare)
)
LABELS = register_stack(
    StackProfile("labels", "bounded epoch labels (Algorithm 4.1/4.2)", _build_labels)
)
COUNTERS = register_stack(
    StackProfile("counters", "counter increment (Algorithms 4.3-4.5)", _build_counters)
)
VS_SMR = register_stack(
    StackProfile(
        "vs_smr",
        "counters + virtually synchronous SMR (Algorithms 4.6/4.7)",
        _build_vs_smr,
    )
)
SHARED_REGISTER = register_stack(
    StackProfile(
        "shared_register",
        "vs_smr over a RegisterStateMachine + MWMR register client",
        _build_shared_register,
    )
)
RB_BRACHA = register_stack(
    StackProfile(
        "rb_bracha",
        "Bracha-echo reliable broadcast (tolerates f < n/3 traitors)",
        _build_rb,
        options={"variant": "bracha"},
    )
)
RB_DOLEV = register_stack(
    StackProfile(
        "rb_dolev",
        "Dolev path-flooding reliable broadcast (f+1 disjoint paths)",
        _build_rb,
        options={"variant": "dolev"},
    )
)
RB_NAIVE = register_stack(
    StackProfile(
        "rb_naive",
        "unprotected naive broadcast baseline (equivocation splits it)",
        _build_rb,
        options={"variant": "naive"},
    )
)
VS_SMR_RB = register_stack(
    StackProfile(
        "vs_smr_rb",
        "vs_smr + Bracha reliable broadcast (the Byzantine audit stack)",
        _build_vs_smr_rb,
        options={"variant": "bracha"},
    )
)
