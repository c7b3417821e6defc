"""The built-in scenario library.

Every scenario here is a few declarative lines — topology, stack profile,
composed workloads, probes — where the pre-scenario harness needed a
hand-written script per experiment.  All of them are registered by name so
the CLI (``python -m repro.scenarios``) can look them up; a sweep runs the
spec objects themselves (:func:`~repro.scenarios.runner.run_matrix`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Union

from repro.analysis import probes
from repro.audit.arbitrary_state import PROFILES
from repro.audit.byzantine import ByzantineSpec, ByzantineWorkload
from repro.scenarios.spec import ScenarioSpec
from repro.node.config import fast_sim
from repro.scenarios.workloads import (
    ArbitraryStateWorkload,
    ChurnWorkload,
    CrashWorkload,
    FlashJoinWorkload,
    PartitionWorkload,
    QuorumEdgeCrashWorkload,
    RBBroadcastWorkload,
    RegisterWriteWorkload,
    SMRCommandWorkload,
)

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add *spec* to the named-scenario registry (unique name required)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(ref: Union[str, ScenarioSpec]) -> ScenarioSpec:
    """Resolve a scenario by name (specs pass through unchanged)."""
    if isinstance(ref, ScenarioSpec):
        return ref
    try:
        return _REGISTRY[ref]
    except KeyError:
        raise KeyError(
            f"unknown scenario {ref!r}; available: {available_scenarios()}"
        ) from None


def available_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Baseline scenarios
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="bootstrap",
        description="Self-organizing bootstrap from a brute-force reset.",
        n=5,
        probes=(probes.converged(2_000), probes.participating(2_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="coherent_start",
        description="Classical-assumption boot: configuration pre-installed.",
        n=5,
        config="coherent_start",
        probes=(probes.converged(2_000),),
    )
)

# ---------------------------------------------------------------------------
# Composed scenarios
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="churn_during_corruption",
        description=(
            "Random crashes and joins while a transient fault scrambles 60% "
            "of the nodes mid-churn; the scheme must still converge with "
            "every survivor participating."
        ),
        n=5,
        stack="counters",
        workloads=(
            ChurnWorkload(start=10.0, duration=80.0, crash_rate=0.02, join_rate=0.03, first_new_pid=100),
            ArbitraryStateWorkload(
                at=35.0, profile=replace(PROFILES["scramble"], node_fraction=0.6)
            ),
        ),
        horizon=110.0,
        probes=(probes.converged(8_000), probes.participating(8_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="quorum_edge_crash_storm",
        description=(
            "Simultaneous crash of the largest survivable minority of the "
            "configuration, then a quarter of the surviving channels stuffed "
            "with stale packets of every wire type."
        ),
        n=6,
        workloads=(
            QuorumEdgeCrashWorkload(at=20.0),
            ArbitraryStateWorkload(at=22.0, profile="channel_only"),
        ),
        horizon=40.0,
        probes=(probes.converged(10_000), probes.participating(10_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="flash_join_wave",
        description="Six joiners arrive at the same instant on a 4-node system.",
        n=4,
        # The wave outgrows the derived N = max(2n, n+2); size the failure
        # detector for the post-wave system explicitly.
        config=fast_sim(upper_bound_n=20),
        workloads=(FlashJoinWorkload(at=15.0, count=6, first_pid=200),),
        horizon=30.0,
        probes=(probes.participating(10_000), probes.converged(10_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="partition_heal",
        description=(
            "The network splits into two halves (neither holds a majority "
            "alone) and heals later; the scheme must re-converge after the "
            "heal without a permanent split-brain."
        ),
        n=6,
        workloads=(PartitionWorkload(at=20.0, heal_at=90.0),),
        horizon=100.0,
        probes=(probes.converged(10_000), probes.participating(10_000)),
    )
)

# ---------------------------------------------------------------------------
# Audit scenarios (the adversarial self-stabilization engine, repro.audit)
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="arbitrary_state_recovery",
        description=(
            "Full transient-fault model: every protocol-state field of every "
            "node corrupted type-correctly + channels stuffed with stale "
            "packets; the scheme must re-converge from the arbitrary state."
        ),
        n=5,
        workloads=(ArbitraryStateWorkload(at=30.0),),
        horizon=35.0,
        track_convergence=True,
        probes=(probes.converged(6_000), probes.participating(6_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="arbitrary_state_reorder",
        description=(
            "Arbitrary-state corruption under the reorder-heavy adversarial "
            "scheduler (8x delay variance + duplication), on the counters "
            "stack."
        ),
        n=5,
        stack="counters",
        scheduler="reorder_heavy",
        workloads=(ArbitraryStateWorkload(at=40.0),),
        horizon=45.0,
        track_convergence=True,
        probes=(probes.converged(10_000), probes.participating(10_000)),
    )
)

# ---------------------------------------------------------------------------
# Environment-driven scenarios (time-varying adversaries, repro.sim.environment)
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="coordinator_hunt",
        description=(
            "The adaptive adversary re-reads the VS coordinator each epoch "
            "and slows its links while replicas keep multicasting commands; "
            "same-view delivery histories must never diverge."
        ),
        n=5,
        stack="vs_smr",
        scheduler="target_coordinator",
        scheduler_params=(("start", 30.0), ("period", 30.0), ("epochs", 4)),
        workloads=(
            SMRCommandWorkload(at=40.0, submitter=0, command=("hunt", 1)),
            SMRCommandWorkload(at=70.0, submitter=2, command=("hunt", 2)),
            SMRCommandWorkload(at=110.0, submitter=4, command=("hunt", 3)),
        ),
        horizon=160.0,
        invariants=(probes.smr_agreement_invariant(),),
        track_convergence=True,
        probes=(probes.converged(8_000), probes.participating(8_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="partition_leak_recovery",
        description=(
            "A one-way partition with a small leak splits the system, flips "
            "its blocked direction mid-run and heals; the scheme must ride "
            "out asymmetric reachability without a permanent split-brain."
        ),
        n=6,
        scheduler="partition_leak",
        scheduler_params=(
            ("at", 20.0), ("flip_at", 60.0), ("heal_at", 100.0), ("leak", 0.1),
        ),
        horizon=110.0,
        track_convergence=True,
        probes=(probes.converged(10_000), probes.participating(10_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="crash_recovery_pulse",
        description=(
            "Per-epoch link blackouts make one victim appear to crash and "
            "recover right at the failure-detector threshold, on the "
            "counters stack over ambient loss (degraded_net)."
        ),
        n=5,
        stack="counters",
        config="degraded_net",
        scheduler="crash_recovery",
        scheduler_params=(
            ("start", 20.0), ("period", 30.0), ("outage", 12.0), ("epochs", 3),
        ),
        horizon=120.0,
        track_convergence=True,
        probes=(probes.converged(10_000), probes.participating(10_000)),
    )
)

# ---------------------------------------------------------------------------
# Byzantine scenarios (active adversaries, repro.audit.byzantine)
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="byzantine_storm",
        description=(
            "One traitor runs every registered Byzantine behavior (forge, "
            "mutate, drop, equivocate, inflate) against the Bracha "
            "reliable-broadcast stack; honest nodes must still agree on and "
            "validate every delivered broadcast, and the system must "
            "converge once the traitor window closes."
        ),
        n=5,
        stack="rb_bracha",
        workloads=(
            ByzantineWorkload(
                at=25.0,
                spec=ByzantineSpec(
                    behaviors=("forge", "mutate", "drop", "equivocate", "inflate"),
                    traitors=1,
                    duration=60.0,
                ),
            ),
            RBBroadcastWorkload(at=20.0, origin=1, payload=("storm", 1)),
            RBBroadcastWorkload(at=40.0, origin=2, payload=("storm", 2)),
            RBBroadcastWorkload(at=70.0, origin=3, payload=("storm", 3)),
        ),
        horizon=140.0,
        invariants=(
            probes.rb_agreement_invariant(),
            probes.rb_validity_invariant(),
        ),
        track_convergence=True,
        probes=(probes.rb_delivered(8_000), probes.converged(8_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="equivocating_coordinator",
        description=(
            "The adaptive traitor-selection policy re-reads the VS "
            "coordinator and turns it into an equivocating/inflating traitor "
            "while the target_coordinator scheduler slows its links; SMR "
            "histories and RB delivery tables of the honest replicas must "
            "never diverge."
        ),
        n=5,
        stack="vs_smr_rb",
        scheduler="target_coordinator",
        scheduler_params=(("start", 30.0), ("period", 30.0), ("epochs", 3)),
        workloads=(
            ByzantineWorkload(
                at=35.0,
                spec=ByzantineSpec(
                    behaviors=("equivocate", "mutate", "inflate"),
                    traitors=1,
                    selection="coordinator",
                    duration=60.0,
                ),
            ),
            SMRCommandWorkload(at=40.0, submitter=1, command=("coup", 1)),
            SMRCommandWorkload(at=75.0, submitter=3, command=("coup", 2)),
            RBBroadcastWorkload(at=45.0, origin=2, payload=("coup-rb", 1)),
            RBBroadcastWorkload(at=105.0, origin=4, payload=("coup-rb", 2)),
        ),
        horizon=170.0,
        invariants=(
            probes.smr_agreement_invariant(),
            probes.rb_agreement_invariant(),
            probes.rb_validity_invariant(),
        ),
        track_convergence=True,
        probes=(probes.rb_delivered(10_000), probes.converged(10_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="traitor_during_recovery",
        description=(
            "Full arbitrary-state corruption lands while a traitor is "
            "actively forging and equivocating: the self-stabilizing scheme "
            "must recover from the transient fault despite a live Byzantine "
            "adversary inside its f < n/3 resilience bound."
        ),
        n=5,
        stack="rb_bracha",
        workloads=(
            ByzantineWorkload(
                at=30.0,
                spec=ByzantineSpec(
                    behaviors=("forge", "equivocate"),
                    traitors=1,
                    duration=50.0,
                ),
            ),
            ArbitraryStateWorkload(at=45.0),
            RBBroadcastWorkload(at=25.0, origin=1, payload=("recovery", 1)),
            RBBroadcastWorkload(at=95.0, origin=2, payload=("recovery", 2)),
        ),
        horizon=150.0,
        invariants=(
            probes.rb_agreement_invariant(),
            probes.rb_validity_invariant(),
        ),
        track_convergence=True,
        probes=(probes.rb_delivered(10_000), probes.converged(10_000)),
    )
)

register_scenario(
    ScenarioSpec(
        name="register_under_churn",
        description=(
            "MWMR register writes interleaved with a replica crash and a "
            "late write; histories must agree across all alive replicas."
        ),
        n=4,
        stack="shared_register",
        workloads=(
            RegisterWriteWorkload(at=30.0, writer=0, value="w1"),
            RegisterWriteWorkload(at=45.0, writer=2, value="w2"),
            CrashWorkload(schedule=((60.0, 1),)),
            RegisterWriteWorkload(at=90.0, writer=3, value="w3"),
        ),
        horizon=110.0,
        probes=(
            probes.view_installed(10_000),
            probes.writes_delivered(8_000),
            probes.register_agreement(6_000),
            probes.converged(8_000),
        ),
    )
)
