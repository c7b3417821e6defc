"""Self-stabilizing reconfiguration for dynamic distributed systems.

This package reproduces the system described in *"Self-Stabilizing
Reconfiguration"* (Dolev, Georgiou, Marcoullis, Schiller — MIDDLEWARE 2016).
It provides:

* the node both hosts run: one processor's protocol stack, its config and
  presets, and the stack profiles (:mod:`repro.node`),
* a deterministic discrete-event simulation substrate for asynchronous
  message-passing systems with bounded, lossy, duplicating, reordering
  channels (:mod:`repro.sim`), and a live asyncio/UDP runtime that hosts the
  same node (:mod:`repro.runtime`),
* self-stabilizing data links and an (N, Theta)-failure detector
  (:mod:`repro.datalink`, :mod:`repro.failure_detector`),
* the self-stabilizing reconfiguration scheme itself — recSA, recMA and the
  joining mechanism (:mod:`repro.core`),
* the applications built on top of the scheme: bounded labels, practically
  unbounded counters, virtually-synchronous state-machine replication and a
  shared-memory emulation (:mod:`repro.labels`, :mod:`repro.counters`,
  :mod:`repro.vs`),
* non-self-stabilizing baselines used for comparison
  (:mod:`repro.baselines`), and
* the declarative scenario engine, the audit engine whose corruption plans
  are the one way state gets damaged, and the analysis helpers
  (:mod:`repro.scenarios`, :mod:`repro.audit`, :mod:`repro.analysis`).

Quickstart
----------

>>> from repro import build_cluster
>>> cluster = build_cluster(n=5, seed=1)
>>> cluster.run(until=200.0)
>>> cluster.agreed_configuration() is not None
True
"""

from repro.common.types import ProcessId, Configuration, NOT_PARTICIPANT
from repro.node.config import ClusterConfig, fast_sim, paper_faithful, preset
from repro.node.node import ClusterNode
from repro.node.stacks import StackProfile, get_stack, stack
from repro.sim.simulator import Simulator
from repro.sim.cluster import Cluster, build_cluster

__all__ = [
    "ProcessId",
    "Configuration",
    "NOT_PARTICIPANT",
    "Simulator",
    "ClusterConfig",
    "fast_sim",
    "paper_faithful",
    "preset",
    "StackProfile",
    "get_stack",
    "stack",
    "Cluster",
    "ClusterNode",
    "build_cluster",
    "__version__",
]

__version__ = "1.0.0"
