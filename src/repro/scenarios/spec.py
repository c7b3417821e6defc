"""Declarative experiment specifications.

A :class:`ScenarioSpec` names everything one experiment needs — topology
size, cluster configuration (a preset name or a concrete
:class:`~repro.node.config.ClusterConfig`), the stack profile every node runs,
a composable schedule of workloads (anything with ``install(cluster)``), and
the probes that define success.  The runner (:mod:`repro.scenarios.runner`)
turns a spec plus a seed into a deterministic statistics dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

from repro.analysis.probes import Invariant, Probe
from repro.node.config import ClusterConfig


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment.

    Attributes
    ----------
    config:
        A preset name (``"fast_sim"``, ``"paper_faithful"``,
        ``"coherent_start"``) or a :class:`ClusterConfig` instance.
    stack:
        Stack-profile name or :class:`~repro.node.stacks.StackProfile`;
        ``None`` uses whatever the cluster config declares.
    workloads:
        Objects satisfying the ``Workload`` protocol
        (:mod:`repro.scenarios.workloads`); installed before the run starts,
        so their events interleave with bootstrap and each other.
    probes:
        Waited for *in order* after bootstrap + horizon; each probe's
        ``timeout`` is its own budget of simulated time.
    scheduler:
        Name of an adversarial scheduler (:mod:`repro.audit.schedulers`)
        installed right after the cluster is built — an *environment
        program* over the :class:`~repro.sim.network.Network`'s link rules
        and partitions: static shapes (delay skew, heavy reordering, burst delivery, a slow
        node) or time-varying adversaries (crash-recovery blackouts, leaky
        one-way partitions, adaptive coordinator targeting).  ``None`` keeps
        the config's uniform channel behaviour.
    scheduler_params:
        Program-specific knobs forwarded to the scheduler's installer, as a
        tuple of ``(name, value)`` pairs (kept hashable so specs stay
        frozen): ``(("epochs", 5), ("leak", 0.1))``.
    invariants:
        :class:`~repro.analysis.probes.Invariant` predicates monitored after
        every executed event; any recorded violation interval fails the run
        (reported under ``"invariants"``).
    track_convergence:
        When True, a :class:`~repro.sim.monitors.ConvergenceTracker` watches
        ``cluster.is_converged`` for the whole run and its summary is
        reported under ``"convergence"`` (stabilization time, transitions).
    convergence_poll:
        Sim-time cadence at which the tracker samples the predicate.  The
        default ``0.0`` evaluates after every executed event (exact
        transition times — the seed behaviour); a positive cadence
        coarsens every reported transition time by at most one interval
        but removes the per-event predicate cost, which at n >= 128 is
        the difference between a tractable audit tier and a ~170 us scan
        of the converged cluster after every event.
    bootstrap_timeout:
        Simulated-time budget for the initial self-organization phase
        (skipped when ``require_bootstrap`` is False).
    horizon:
        Extra simulated time to run after bootstrap — typically sized so the
        installed workloads have fully played out before probing.
    """

    name: str
    description: str = ""
    n: int = 5
    config: Union[str, ClusterConfig] = "fast_sim"
    stack: Any = None
    workloads: Tuple[Any, ...] = ()
    probes: Tuple[Probe, ...] = field(default_factory=tuple)
    scheduler: Optional[str] = None
    scheduler_params: Tuple[Tuple[str, Any], ...] = ()
    invariants: Tuple[Invariant, ...] = ()
    track_convergence: bool = False
    convergence_poll: float = 0.0
    bootstrap_timeout: float = 4_000.0
    horizon: float = 0.0
    require_bootstrap: bool = True
