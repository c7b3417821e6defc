"""Cluster configuration: every tunable of a cluster in one frozen value.

:class:`ClusterConfig` is the only place a cluster's tunables are set: each
field holds its own concrete value, and :meth:`ClusterConfig.resolve` derives
the one size-dependent field (the failure detector's ``N``) once.  The
resolved value is then shared by the cluster and every node, including nodes
added later by churn, on both backends (both boot through
:func:`repro.node.node.boot`).  Its :class:`ChannelConfig` describes every
directed channel; the simulator shapes its channels with it, and its
``capacity`` is the heartbeat links' ``cap`` on both backends.

Named presets cover the configurations the repository actually uses:

``fast_sim``
    Low-latency lossless channels — what the test-suite and the benchmark
    harness run on (short simulations, identical protocol behaviour).
``paper_faithful``
    The communication model of the paper's Section 2 taken literally: wider
    delay bounds, the snap-stabilizing link-cleaning handshake on every link,
    and un-throttled heartbeat tokens.
``coherent_start``
    ``fast_sim`` but booting with the full configuration pre-installed — the
    assumption classical reconfiguration schemes make, used as a baseline.
``degraded_net``
    Lossy, jittery channels for the environment-driven scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Union

from repro.common.errors import SimulationError
from repro.core.joining import AdmissionPolicy
from repro.core.recsa import DEFAULT_GOSSIP_REFRESH_INTERVAL
from repro.failure_detector.ntheta import DEFAULT_GAP_SLACK


@dataclass
class ChannelConfig:
    """Behavioural parameters of a directed channel.

    Attributes
    ----------
    capacity:
        Maximum number of in-flight packets (the paper's ``cap``).  A send
        into a full channel silently drops the *new* packet, matching the
        paper ("the new packet might be omitted or some already sent packet
        may be lost").
    loss_probability:
        Probability that an accepted packet is dropped instead of delivered.
        Must be strictly below 1.0 to preserve fair communication.
    duplicate_probability:
        Probability that an accepted packet is delivered twice.
    min_delay / max_delay:
        Uniform delivery-delay bounds (finite); a wide interval produces
        reordering.
    delay_quantum:
        When positive, the **arrival instant** of every delivery on this
        channel is rounded up to the next multiple of this quantum (see
        :meth:`repro.sim.network.Channel.arrival`), so packets
        sent at different times land together in synchronized bursts at
        quantum boundaries — the burst-delivery adversarial scheduler.
        Zero (the default) keeps continuous arrivals.
    """

    capacity: int = 8
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    min_delay: float = 0.5
    max_delay: float = 1.5
    delay_quantum: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SimulationError("channel capacity must be at least 1")
        if not 0.0 <= self.loss_probability < 1.0:
            raise SimulationError("loss probability must be in [0, 1)")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise SimulationError("duplicate probability must be in [0, 1]")
        if not (0 <= self.min_delay <= self.max_delay < math.inf):
            raise SimulationError("delay bounds must satisfy 0 <= min <= max < inf")
        if not 0 <= self.delay_quantum < math.inf:
            raise SimulationError("delay quantum must be non-negative and finite")


@dataclass(frozen=True)
class ClusterConfig:
    """Every tunable of a cluster, as one immutable value.

    Attributes
    ----------
    upper_bound_n:
        The failure detector's ``N`` (upper bound on the number of
        processors).  ``None`` derives ``max(2n, n + 2)`` from the initial
        cluster size during :meth:`resolve`.
    channel:
        The :class:`ChannelConfig` of every directed channel; its
        ``capacity`` is also the heartbeat links' ``cap``.
    coherent_start:
        When True nodes boot with the full configuration already installed;
        when False (default) they boot into a brute-force reset and
        self-organize — the paper's headline ability.
    stack:
        The :class:`~repro.node.stacks.StackProfile` (or its registry name)
        every node instantiates.  Defaults to ``"bare"`` — the
        reconfiguration scheme with no application services on top.
    """

    upper_bound_n: Optional[int] = None
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    step_interval: float = 1.0
    coherent_start: bool = False
    admission_policy: Optional[AdmissionPolicy] = None
    require_link_cleaning: bool = False
    gossip_refresh_interval: int = DEFAULT_GOSSIP_REFRESH_INTERVAL
    heartbeat_resend_interval: int = 3
    stack: Any = "bare"  # str (registry name) or StackProfile
    #: (N, Theta) failure-detector suspicion slack.  The default (16) is
    #: calibrated for n <= 32, where the heartbeat-count ramp is narrow.
    #: The ramp's spread grows with n (a peer's count between its own
    #: heartbeats is proportional to the number of chattering peers), so at
    #: n >= 48 the default slack turns ordinary staggering into suspicion
    #: churn: trust flaps forever and the cluster-wide stability windows that
    #: define convergence become astronomically rare (n=48 first converges at
    #: t~1041; n=128 never).  Setting slack ~ 2n restores stable full trust —
    #: an n=128 cold bootstrap converges at t~5 — at the cost of slower crash
    #: suspicion.  Not scaled with n by default: that would change the seed's
    #: trajectories at every size.
    fd_gap_slack: int = DEFAULT_GAP_SLACK

    def poll_interval(self) -> float:
        """The sim-time cadence at which :meth:`Cluster.run_until` re-evaluates
        its predicate: the minimum event spacing (the smaller of the step
        interval and the minimum link delay)."""
        min_delay = self.channel.min_delay
        if min_delay > 0.0:
            return min(self.step_interval, min_delay)
        return 0.1 * self.step_interval

    def resolve(self, n: int) -> "ClusterConfig":
        """Return a copy for an initial cluster of *n* nodes with ``N`` set.

        Raises :class:`SimulationError` when an explicit (or previously
        resolved) ``upper_bound_n`` is below *n*: every detector would then
        be sized for fewer processors than the cluster boots with.
        """
        upper = self.upper_bound_n
        if upper is None:
            upper = max(2 * n, n + 2)
        if upper < n:
            raise SimulationError(
                f"upper_bound_n={upper} is below the cluster size n={n}; "
                f"the failure detector's N must bound the processor count"
            )
        return replace(self, upper_bound_n=upper)

    def with_overrides(self, **overrides: Any) -> "ClusterConfig":
        """A copy with the given fields replaced (``None`` values ignored)."""
        effective = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **effective) if effective else self


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------
def fast_sim(**overrides: Any) -> ClusterConfig:
    """Low-latency lossless channels: the test/benchmark configuration."""
    return ClusterConfig(
        channel=ChannelConfig(loss_probability=0.0, min_delay=0.2, max_delay=0.6),
    ).with_overrides(**overrides)


def paper_faithful(**overrides: Any) -> ClusterConfig:
    """The paper's communication model taken literally.

    Wide delay bounds (reordering), the snap-stabilizing cleaning handshake
    on every link before heartbeats count, and an un-throttled heartbeat.
    """
    return ClusterConfig(
        require_link_cleaning=True,
        heartbeat_resend_interval=1,
    ).with_overrides(**overrides)


def coherent_start(**overrides: Any) -> ClusterConfig:
    """``fast_sim`` booting with the configuration pre-installed."""
    return fast_sim(coherent_start=True).with_overrides(**overrides)


def degraded_net(**overrides: Any) -> ClusterConfig:
    """Lossy, jittery channels: the floor environment programs degrade from.

    5% loss and a 6x delay spread keep fair communication intact while
    making every retransmission matter — the baseline the environment-driven
    scenarios (leaky partitions, coordinator hunts) start from, so their
    adversaries compose with ambient unreliability instead of a pristine
    fabric.
    """
    return ClusterConfig(
        channel=ChannelConfig(loss_probability=0.05, min_delay=0.2, max_delay=1.2),
    ).with_overrides(**overrides)


PRESETS: Dict[str, Callable[..., ClusterConfig]] = {
    "fast_sim": fast_sim,
    "paper_faithful": paper_faithful,
    "coherent_start": coherent_start,
    "degraded_net": degraded_net,
}


def preset(ref: Union[str, ClusterConfig], **overrides: Any) -> ClusterConfig:
    """Resolve a preset name (or pass through a config) with overrides."""
    if isinstance(ref, ClusterConfig):
        return ref.with_overrides(**overrides)
    try:
        factory = PRESETS[ref]
    except KeyError:
        raise SimulationError(
            f"unknown cluster preset {ref!r}; available: {sorted(PRESETS)}"
        ) from None
    return factory(**overrides)
