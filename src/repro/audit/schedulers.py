"""Pluggable adversarial schedulers: named environment programs.

The paper's asynchronous model lets the environment schedule message
deliveries arbitrarily (within fair communication) and lets the channel
adversary vary conditions *over time*.  Each scheduler here is an
**environment program** over the :class:`~repro.sim.network.Network`: its
installer pushes one *link rule* (a pair-keyed config function, so
processors joining mid-run inherit the active shaping) and — for the
dynamic adversaries — schedules transitions (partitions, rule pushes and
pops, heals) as ordinary simulator events.  A scenario names a scheduler
the same way it names a stack profile
(``ScenarioSpec(scheduler="reorder_heavy")``), optionally with parameters
(``scheduler_params=(("epochs", 5),)``).

Static programs (one rule pushed up front, late joiners inherit it):

``uniform``
    The identity baseline — whatever the cluster config declares.
``delay_skew``
    Every directed link gets its own delay-scale factor (drawn seeded,
    log-uniform in [0.5, 8)): heterogeneous latencies, so gossip rounds
    interleave across nodes instead of proceeding in lockstep.
``reorder_heavy``
    Delay upper bound stretched 8x plus 20% duplication: maximal reordering
    within fair communication.
``burst_delivery``
    Delays quantized to multiples of four base round-trips
    (:attr:`ChannelConfig.delay_quantum`): long silences, then everything
    arrives at once — the barrier-alignment worst case.
``slow_node``
    One seeded victim node's links (both directions) run 10x slower than the
    rest: a straggler right at the failure detector's suspicion threshold.

Dynamic programs (time-varying, scheduled through environment events):

``crash_recovery``
    A crash-recovery *timing* adversary: each epoch one seeded victim's links
    are blocked in both directions for just long enough to cross the failure
    detector's suspicion threshold, then healed — the node appears to crash
    and recover repeatedly, which is where stale suspicion and stale
    configuration views collide.
``partition_leak``
    An asymmetric partition-with-leaks schedule: one half of the system loses
    its path *toward* the other half (one-way block) except for a small leak
    probability, then the direction flips, then the partition heals.  Fair
    communication is preserved by the leak, so the scheme must eventually
    recover even while the partition stands.
``target_coordinator``
    The adaptive adversary: every epoch it *re-reads* the current
    coordinator — the VS-layer coordinator when the stack runs one, else the
    highest-pid member of the agreed configuration (the processor recMA's
    delicate reconfiguration converges around) — and degrades that node's
    links by a slow-down rule, chasing the leadership wherever it moves.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.common.rng import make_rng
from repro.common.types import ProcessId
from repro.sim.events import Action
from repro.node.config import ChannelConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

Installer = Callable[..., None]


@dataclass(frozen=True)
class AdversarialScheduler:
    """A named, seeded environment program (message-timing adversary).

    :meth:`first_act` says from when the program shapes a run: a static
    program pushes its rule at install time, before any event; ``uniform``
    never changes anything; a dynamic program leaves the environment alone
    until its first scheduled transition.  The audit harness reads it to
    share one warm prefix among cases whose programs are all still quiet
    when the corruption fires (``repro.audit.harness.prefix_key``).
    """

    name: str
    description: str
    installer: Installer
    #: Dynamic programs keep mutating the environment mid-run (scheduled
    #: transitions); static ones only shape the link state at install time.
    dynamic: bool = False
    #: When the program first acts: ``-inf`` (install time, before any
    #: event), ``inf`` (never), or the name of the installer keyword that
    #: holds a dynamic program's first transition time.
    acts_at: Union[float, str] = -math.inf

    def first_act(self, **params: Any) -> float:
        """The simulated time of the program's first change to the environment.

        Before it, an installed program has only drawn from its own seeded
        stream and scheduled events, so a run is the same with or without
        it.  ``params`` are the install parameters; an absent keyword reads
        the installer's default.
        """
        if isinstance(self.acts_at, str):
            default = inspect.signature(self.installer).parameters[self.acts_at].default
            return float(params.get(self.acts_at, default))
        return self.acts_at

    def install(self, cluster: "Cluster", **params: Any) -> None:
        """Install the program on *cluster* (seeded from the simulator seed).

        ``params`` are program-specific knobs (epoch counts, leak
        probabilities, ...) — unknown keys raise, so a typo in a scenario's
        ``scheduler_params`` fails fast instead of silently running the
        defaults.
        """
        rng = make_rng(cluster.simulator.seed, "scheduler", self.name)
        try:
            self.installer(cluster, rng, **params)
        except TypeError as exc:
            if params:
                raise TypeError(
                    f"scheduler {self.name!r} rejected parameters "
                    f"{sorted(params)}: {exc}"
                ) from exc
            raise


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, AdversarialScheduler] = {}


def register_scheduler(scheduler: AdversarialScheduler) -> AdversarialScheduler:
    """Add *scheduler* to the registry (unique name required)."""
    if scheduler.name in _REGISTRY:
        raise ValueError(f"scheduler {scheduler.name!r} is already registered")
    _REGISTRY[scheduler.name] = scheduler
    return scheduler


def get_scheduler(name: str) -> AdversarialScheduler:
    """Resolve a scheduler by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {available_schedulers()}"
        ) from None


def available_schedulers() -> List[str]:
    """Sorted names of every registered scheduler."""
    return sorted(_REGISTRY)


def static_schedulers() -> List[str]:
    """Sorted names of the install-once (non-dynamic) programs."""
    return sorted(name for name, s in _REGISTRY.items() if not s.dynamic)


def dynamic_schedulers() -> List[str]:
    """Sorted names of the time-varying (dynamic) programs."""
    return sorted(name for name, s in _REGISTRY.items() if s.dynamic)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _pairs(cluster: "Cluster") -> Iterable[Tuple[ProcessId, ProcessId]]:
    pids = sorted(cluster.nodes)
    for source in pids:
        for destination in pids:
            if source != destination:
                yield source, destination


def current_coordinator(cluster: "Cluster") -> Optional[ProcessId]:
    """The processor currently coordinating the system, best effort.

    Prefers the VS layer's recognized coordinator (the leader of the
    installed view) when the stack runs one; otherwise falls back to the
    highest-pid alive member of the agreed configuration — the deterministic
    proxy for where recMA-triggered delicate reconfiguration converges — and
    finally to the highest alive pid.  ``None`` on an empty system.
    """
    for node in cluster.alive_nodes():
        vs = node.service_map.get("vs")
        if vs is not None and vs.is_coordinator():
            return node.pid
    config = cluster.agreed_configuration()
    if config:
        candidates = [
            pid
            for pid in config
            if pid in cluster.nodes and not cluster.nodes[pid].crashed
        ]
        if candidates:
            return max(candidates)
    alive = [node.pid for node in cluster.alive_nodes()]
    return max(alive) if alive else None


# ---------------------------------------------------------------------------
# Link rules (picklable callables)
#
# Rules are long-lived network state, so they are small frozen dataclasses
# instead of closures: snapshot/restore pickles them with the graph, and they
# are pure per pair — the contract the network's route table relies on
# (:data:`~repro.sim.network.LinkRule`).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _ConstantLinkPolicy:
    """Shape every pair with one fixed config."""

    config: ChannelConfig

    def __call__(self, source: ProcessId, destination: ProcessId) -> ChannelConfig:
        return self.config


@dataclass(frozen=True)
class _VictimLinkPolicy:
    """Shape only pairs touching *victim*; defer on everything else."""

    victim: ProcessId
    config: ChannelConfig

    def __call__(
        self, source: ProcessId, destination: ProcessId
    ) -> Optional[ChannelConfig]:
        return self.config if self.victim in (source, destination) else None


def _scaled(base: ChannelConfig, factor: float) -> ChannelConfig:
    """*base* with both delay bounds multiplied by *factor*."""
    return replace(base, min_delay=base.min_delay * factor, max_delay=base.max_delay * factor)


def _skew_factor(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(0.5), math.log(8.0)))


@dataclass(frozen=True)
class _DelaySkewLinkPolicy:
    """Per-pair log-uniform delay factors.

    *configs* holds the pairs present at install time; a pair that appears
    later draws its factor from a pair-keyed derived stream, so shaping
    extends to joiners without perturbing the install-time draws.
    """

    seed: int
    base: ChannelConfig
    configs: Dict[Tuple[ProcessId, ProcessId], ChannelConfig]

    def __call__(self, source: ProcessId, destination: ProcessId) -> ChannelConfig:
        config = self.configs.get((source, destination))
        if config is None:
            pair_rng = make_rng(self.seed, "scheduler", "delay_skew", "late", source, destination)
            config = _scaled(self.base, _skew_factor(pair_rng))
        return config


# ---------------------------------------------------------------------------
# Static installers (one rule each, pushed at install time)
# ---------------------------------------------------------------------------
def _install_uniform(cluster: "Cluster", rng: random.Random) -> None:
    """The identity scheduler: keep the cluster config's channel shape."""


def _install_delay_skew(cluster: "Cluster", rng: random.Random) -> None:
    base = cluster.config.channel
    configs = {pair: _scaled(base, _skew_factor(rng)) for pair in _pairs(cluster)}
    cluster.network.push_rule(
        "delay_skew", _DelaySkewLinkPolicy(cluster.simulator.seed, base, configs)
    )


def _install_reorder_heavy(cluster: "Cluster", rng: random.Random) -> None:
    base = cluster.config.channel
    config = replace(base, max_delay=base.max_delay * 8.0, duplicate_probability=0.2)
    cluster.network.push_rule("reorder_heavy", _ConstantLinkPolicy(config))


def _install_burst_delivery(cluster: "Cluster", rng: random.Random) -> None:
    base = cluster.config.channel
    quantum = base.max_delay * 4.0
    config = replace(base, max_delay=base.max_delay * 4.0, delay_quantum=quantum)
    cluster.network.push_rule("burst_delivery", _ConstantLinkPolicy(config))


def _install_slow_node(cluster: "Cluster", rng: random.Random) -> None:
    victim = rng.choice(sorted(cluster.nodes))
    slow = _scaled(cluster.config.channel, 10.0)
    cluster.network.push_rule("slow_node", _VictimLinkPolicy(victim, slow))


# ---------------------------------------------------------------------------
# Dynamic installers (time-varying environment programs)
#
# Each program is a plain object whose scheduled transitions are ``Action``s
# over bound methods: deep-copying the graph (snapshot/restore) copies the
# program with it, so a restored run's pending transitions mutate the
# restored network, never the original's.
# ---------------------------------------------------------------------------
@dataclass
class _CrashRecoveryProgram:
    """Per-epoch link blackouts: isolate a victim, heal *outage* later."""

    cluster: Any
    victims: List[ProcessId]
    outage: float

    def begin(self, epoch: int) -> None:
        cluster = self.cluster
        victim = self.victims[epoch]
        node = cluster.nodes.get(victim)
        if node is None or node.crashed:
            return
        network = cluster.network
        name = network.isolate(victim, sorted(cluster.nodes), name=f"crash_recovery:{epoch}")
        cluster.simulator.call_at(
            cluster.simulator.now + self.outage,
            Action(network.heal, name),
            label="env:crash-recovery:heal",
        )


def _install_crash_recovery(
    cluster: "Cluster",
    rng: random.Random,
    *,
    start: float = 40.0,
    period: float = 45.0,
    outage: float = 14.0,
    epochs: int = 3,
) -> None:
    """Blackout one victim's links per epoch, then restore them.

    The victim sequence is drawn at install time (seeded), the blackout is a
    both-directions leak-free partition over whatever processors exist at
    epoch time (so a joiner can be cut off too), and the heal fires *outage*
    later — a link-level crash-recovery cycle timed against the failure
    detector rather than an actual process crash.
    """
    pids = sorted(cluster.nodes)
    victims = [pids[rng.randrange(len(pids))] for _ in range(epochs)]
    program = _CrashRecoveryProgram(cluster, victims, outage)
    for epoch in range(epochs):
        cluster.simulator.call_at(
            start + epoch * period,
            Action(program.begin, epoch),
            label="env:crash-recovery",
        )


@dataclass
class _PartitionLeakProgram:
    """One-way leaky split over the alive pids; flips direction, then heals."""

    cluster: Any
    leak: float

    def _halves(self) -> Optional[Tuple[List[ProcessId], List[ProcessId]]]:
        alive = sorted(node.pid for node in self.cluster.alive_nodes())
        half = len(alive) // 2
        if not half:
            return None
        return alive[:half], alive[half:]

    def forward(self) -> None:
        groups = self._halves()
        if groups is not None:
            self.cluster.network.partition(
                groups[0], groups[1],
                name="partition_leak:forward", leak=self.leak, symmetric=False,
            )

    def flip(self) -> None:
        network = self.cluster.network
        network.heal("partition_leak:forward")
        groups = self._halves()
        if groups is not None:
            network.partition(
                groups[1], groups[0],
                name="partition_leak:reverse", leak=self.leak, symmetric=False,
            )

    def heal_reverse(self) -> None:
        self.cluster.network.heal("partition_leak:reverse")


def _install_partition_leak(
    cluster: "Cluster",
    rng: random.Random,
    *,
    at: float = 45.0,
    flip_at: float = 100.0,
    heal_at: float = 160.0,
    leak: float = 0.08,
) -> None:
    """One-way partition with a leak; the blocked direction flips mid-run.

    From *at* the lower half of the alive pids cannot reach the upper half
    (except with probability *leak* per packet) while the reverse direction
    stays open; at *flip_at* the asymmetry reverses; at *heal_at* everything
    heals.  The leak keeps fair communication intact, so the run still has to
    converge *during* the partition, not merely after the heal.
    """
    if not at < flip_at < heal_at:
        raise ValueError(
            f"partition_leak requires at < flip_at < heal_at "
            f"(got {at}, {flip_at}, {heal_at})"
        )
    program = _PartitionLeakProgram(cluster, leak)
    simulator = cluster.simulator
    simulator.call_at(at, Action(program.forward), label="env:partition-leak")
    simulator.call_at(flip_at, Action(program.flip), label="env:partition-leak:flip")
    simulator.call_at(
        heal_at, Action(program.heal_reverse), label="env:partition-leak:heal"
    )


@dataclass
class _TargetCoordinatorProgram:
    """Adaptive chase: re-read the coordinator each epoch, slow its links."""

    cluster: Any
    slow: ChannelConfig
    period: float
    epochs: int
    tag: str = "target_coordinator"

    def epoch(self, index: int) -> None:
        cluster = self.cluster
        network = cluster.network
        network.pop_rule(self.tag)
        if index >= self.epochs:
            return
        victim = current_coordinator(cluster)
        if victim is not None:
            network.push_rule(self.tag, _VictimLinkPolicy(victim, self.slow))
            network.record("target", victim=victim, epoch=index)
        cluster.simulator.call_at(
            cluster.simulator.now + self.period,
            Action(self.epoch, index + 1),
            label="env:target-coordinator",
        )


def _install_target_coordinator(
    cluster: "Cluster",
    rng: random.Random,
    *,
    start: float = 40.0,
    period: float = 35.0,
    epochs: int = 5,
    slow_factor: float = 8.0,
) -> None:
    """Adaptively degrade whoever currently coordinates the system.

    Every *period* the program re-reads :func:`current_coordinator` and
    replaces its slow-down rule so only the current leader's links (both
    directions, against every processor, joiners included) run
    *slow_factor* times slower.  After *epochs* readings the rule is popped
    for good, so the adversary quiesces and convergence probes measure
    recovery under — not after — the chase.
    """
    slow = _scaled(cluster.config.channel, slow_factor)
    program = _TargetCoordinatorProgram(cluster, slow, period, epochs)
    cluster.simulator.call_at(
        start, Action(program.epoch, 0), label="env:target-coordinator"
    )


# ---------------------------------------------------------------------------
# Registrations
# ---------------------------------------------------------------------------
UNIFORM = register_scheduler(
    AdversarialScheduler(
        "uniform",
        "identity baseline: the cluster config's channels",
        _install_uniform,
        acts_at=math.inf,
    )
)
DELAY_SKEW = register_scheduler(
    AdversarialScheduler(
        "delay_skew",
        "per-link log-uniform delay-scale factors (heterogeneous latencies)",
        _install_delay_skew,
    )
)
REORDER_HEAVY = register_scheduler(
    AdversarialScheduler(
        "reorder_heavy",
        "8x delay variance + 20% duplication (maximal reordering)",
        _install_reorder_heavy,
    )
)
BURST_DELIVERY = register_scheduler(
    AdversarialScheduler(
        "burst_delivery",
        "delays quantized to burst boundaries (silence, then everything at once)",
        _install_burst_delivery,
    )
)
SLOW_NODE = register_scheduler(
    AdversarialScheduler(
        "slow_node",
        "one seeded victim's links run 10x slower (straggler at the FD threshold)",
        _install_slow_node,
    )
)
CRASH_RECOVERY = register_scheduler(
    AdversarialScheduler(
        "crash_recovery",
        "per-epoch link blackouts timed at the FD threshold (apparent crash/recover)",
        _install_crash_recovery,
        dynamic=True,
        acts_at="start",
    )
)
PARTITION_LEAK = register_scheduler(
    AdversarialScheduler(
        "partition_leak",
        "one-way leaky partition whose blocked direction flips, then heals",
        _install_partition_leak,
        dynamic=True,
        acts_at="at",
    )
)
TARGET_COORDINATOR = register_scheduler(
    AdversarialScheduler(
        "target_coordinator",
        "adaptive: re-reads the current coordinator each epoch and slows its links",
        _install_target_coordinator,
        dynamic=True,
        acts_at="start",
    )
)
