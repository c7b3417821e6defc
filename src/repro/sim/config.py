"""Cluster configuration: one frozen dataclass instead of parameter sprawl.

Historically every knob of the simulated stack (channel shape, step interval,
boot mode, link cleaning, gossip refresh, ...) was threaded as an individual
keyword argument through ``ClusterNode.__init__``, ``Cluster.__init__`` and
``build_cluster`` — three copies of the same nine parameters that drifted
independently.  :class:`ClusterConfig` collapses them into a single immutable
value that is resolved once (:meth:`ClusterConfig.resolve`) and then shared by
the cluster and every node, including nodes added later by churn workloads.

Named presets cover the three configurations the repository actually uses:

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Union

from repro.common.errors import SimulationError
from repro.common.types import ProcessId
from repro.core.prediction import PredictionPolicy
from repro.sim.network import ChannelConfig

AdmissionPolicy = Callable[[ProcessId], bool]

DEFAULT_CHANNEL_CAPACITY = 8


@dataclass(frozen=True)
class ClusterConfig:
    """Every tunable of a simulated cluster, as one immutable value.

    Attributes
    ----------
    upper_bound_n:
        The failure detector's ``N`` (upper bound on the number of
        processors).  ``None`` derives ``max(2n, n + 2)`` from the initial
        cluster size during :meth:`resolve`.
    channel:
        The :class:`~repro.sim.network.ChannelConfig` of every directed
        channel.  ``None`` builds one from ``channel_capacity``.
    channel_capacity:
        Convenience scalar for the common "default channel, custom capacity"
        case.  Passing *both* ``channel`` and a disagreeing
        ``channel_capacity`` raises — the capacity is never silently ignored.
    coherent_start:
        When True nodes boot with the full configuration already installed;
        when False (default) they boot into a brute-force reset and
        self-organize — the paper's headline ability.
    stack:
        The :class:`~repro.sim.stacks.StackProfile` (or its registry name)
        every node instantiates.  Defaults to ``"bare"`` — the
        reconfiguration scheme with no application services on top.
    """

    upper_bound_n: Optional[int] = None
    channel: Optional[ChannelConfig] = None
    channel_capacity: Optional[int] = None
    step_interval: float = 1.0
    coherent_start: bool = False
    prediction_policy: Optional[PredictionPolicy] = None
    admission_policy: Optional[AdmissionPolicy] = None
    require_link_cleaning: bool = False
    gossip_refresh_interval: Optional[int] = None
    heartbeat_resend_interval: int = 3
    stack: Any = "bare"  # str (registry name) or StackProfile
    #: recSA gossip wire discipline: when True, steady-state re-broadcasts
    #: travel as (version, changed-entries) deltas and compact digest
    #: refreshes, falling back to full vectors on digest mismatch.  Off by
    #: default: in a discrete-event simulator the compact forms do not
    #: reduce the event count (one packet either way), so they buy no
    #: wall-clock — but a dropped-delta repair window (a few rounds of
    #: bounded staleness after a receiver-side wipe) perturbs the chaotic
    #: churn regime at n >= 48 enough to move first-convergence times by
    #: orders of magnitude in either direction.  Full vectors keep every
    #: trajectory byte-identical to the seed.  Enable for wire-level
    #: realism (the counters expose the full/delta/digest mix and the
    #: bytes-on-wire savings) or in dedicated tiers that pin their own
    #: baselines.
    gossip_deltas: bool = False
    #: (N, Theta) failure-detector suspicion slack.  ``None`` keeps the
    #: detector's default (16) — calibrated for n <= 32, where the
    #: heartbeat-count ramp is narrow.  The ramp's spread grows with n (a
    #: peer's count between its own heartbeats is proportional to the
    #: number of chattering peers), so at n >= 48 the default slack turns
    #: ordinary staggering into suspicion churn: trust flaps forever and
    #: the cluster-wide stability windows that define convergence become
    #: astronomically rare (n=48 first converges at t~1041; n=128 never).
    #: Setting slack ~ 2n restores stable full trust — an n=128 cold
    #: bootstrap converges at t~5 — at the cost of slower crash suspicion.
    #: Deliberately opt-in: auto-scaling it would change the seed's
    #: trajectories at every size.  The string ``"auto"`` opts into the
    #: n-aware rule: :meth:`resolve` replaces it with ``max(16, 2 * n)``
    #: (the detector default at small n, the PR 7 scale finding above it).
    #: ``None`` remains the default and keeps every seed trajectory
    #: byte-identical.
    fd_gap_slack: Optional[Union[int, str]] = None

    def poll_interval(self) -> float:
        """The sim-time cadence at which :meth:`Cluster.run_until` re-evaluates
        its predicate: the minimum event spacing (the smaller of the step
        interval and the minimum link delay)."""
        min_delay = self.channel.min_delay if self.channel is not None else 0.0
        if min_delay > 0.0:
            return min(self.step_interval, min_delay)
        return 0.1 * self.step_interval

    def resolve(self, n: int) -> "ClusterConfig":
        """Return a fully concrete copy for an initial cluster of *n* nodes."""
        if (
            self.channel is not None
            and self.channel_capacity is not None
            and self.channel.capacity != self.channel_capacity
        ):
            raise SimulationError(
                f"conflicting channel configuration: channel_capacity="
                f"{self.channel_capacity} disagrees with the explicit "
                f"ChannelConfig(capacity={self.channel.capacity}); pass one "
                f"or the other"
            )
        channel = self.channel or ChannelConfig(
            capacity=self.channel_capacity
            if self.channel_capacity is not None
            else DEFAULT_CHANNEL_CAPACITY
        )
        upper = self.upper_bound_n or max(2 * n, n + 2)
        gap_slack = self.fd_gap_slack
        if isinstance(gap_slack, str):
            if gap_slack != "auto":
                raise SimulationError(
                    f"unknown fd_gap_slack policy {gap_slack!r}; "
                    f"expected an int, None, or 'auto'"
                )
            gap_slack = max(16, 2 * n)
        return replace(
            self,
            channel=channel,
            channel_capacity=channel.capacity,
            upper_bound_n=upper,
            fd_gap_slack=gap_slack,
        )

    def with_overrides(self, **overrides: Any) -> "ClusterConfig":
        """A copy with the given fields replaced (``None`` values ignored).

        Overriding ``channel_capacity`` alone on a config that already
        carries a channel resizes that channel (preserving its loss/delay
        shape) — so ``fast_sim(channel_capacity=16)`` works.  Passing both
        ``channel`` and a disagreeing ``channel_capacity`` in the *same* call
        is the conflicting combination :meth:`resolve` rejects.
        """
        effective = {k: v for k, v in overrides.items() if v is not None}
        if not effective:
            return self
        if (
            "channel_capacity" in effective
            and "channel" not in effective
            and self.channel is not None
        ):
            effective["channel"] = replace(
                self.channel, capacity=effective["channel_capacity"]
            )
        elif "channel" in effective and "channel_capacity" not in effective:
            # A resolved config carries channel_capacity=channel.capacity;
            # keep the pair in sync so a later resolve() does not see a
            # conflict the caller never created.
            effective["channel_capacity"] = effective["channel"].capacity
        return replace(self, **effective)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------
def fast_sim(**overrides: Any) -> ClusterConfig:
    """Low-latency lossless channels: the test/benchmark configuration."""
    return ClusterConfig(
        channel=ChannelConfig(
            capacity=DEFAULT_CHANNEL_CAPACITY,
            loss_probability=0.0,
            min_delay=0.2,
            max_delay=0.6,
        ),
    ).with_overrides(**overrides)


def paper_faithful(**overrides: Any) -> ClusterConfig:
    """The paper's communication model taken literally.

    Wide delay bounds (reordering), the snap-stabilizing cleaning handshake
    on every link before heartbeats count, and an un-throttled heartbeat.
    """
    return ClusterConfig(
        channel=ChannelConfig(capacity=DEFAULT_CHANNEL_CAPACITY),
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
        channel=ChannelConfig(
            capacity=DEFAULT_CHANNEL_CAPACITY,
            loss_probability=0.05,
            min_delay=0.2,
            max_delay=1.2,
        ),
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
