"""Declarative scenario engine: specs, workloads, probes, parallel sweeps.

The experiment layer on top of the simulation stack.  A scenario is::

    ScenarioSpec(
        name="churny",
        n=5,
        stack="counters",                      # StackProfile per node
        workloads=(ChurnWorkload(...), ArbitraryStateWorkload(at=35.0)),
        probes=(probes.converged(8_000),),
    )

and runs with ``run_scenario(spec, seed=3)`` — or, for the built-in library,
from the command line::

    python -m repro.scenarios --list
    python -m repro.scenarios --smoke
    python -m repro.scenarios partition_heal --seeds 0:8 --workers 4
"""

from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import (
    ArbitraryStateWorkload,
    ChurnWorkload,
    CrashWorkload,
    FlashJoinWorkload,
    PartitionWorkload,
    QuorumEdgeCrashWorkload,
    RegisterWriteWorkload,
    SMRCommandWorkload,
    Workload,
)
from repro.scenarios.library import (
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.scenarios.runner import (
    ScenarioRun,
    drive,
    execute,
    finalize,
    prepare,
    run_matrix,
    run_scenario,
)

__all__ = [
    "ScenarioSpec",
    "Workload",
    "ArbitraryStateWorkload",
    "ChurnWorkload",
    "CrashWorkload",
    "FlashJoinWorkload",
    "PartitionWorkload",
    "QuorumEdgeCrashWorkload",
    "RegisterWriteWorkload",
    "SMRCommandWorkload",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "ScenarioRun",
    "prepare",
    "drive",
    "finalize",
    "execute",
    "run_scenario",
    "run_matrix",
]
