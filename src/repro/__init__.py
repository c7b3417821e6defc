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

from importlib import import_module
from typing import Any

#: Each public name and the module it comes from, imported on first access:
#: a live process that imports ``repro.runtime`` loads no simulator module.
_EXPORTS = {
    "ProcessId": "repro.common.types",
    "Configuration": "repro.common.types",
    "NOT_PARTICIPANT": "repro.common.types",
    "Simulator": "repro.sim.simulator",
    "ClusterConfig": "repro.node.config",
    "fast_sim": "repro.node.config",
    "paper_faithful": "repro.node.config",
    "preset": "repro.node.config",
    "StackProfile": "repro.node.stacks",
    "get_stack": "repro.node.stacks",
    "stack": "repro.node.stacks",
    "Cluster": "repro.sim.cluster",
    "ClusterNode": "repro.node.node",
    "build_cluster": "repro.sim.cluster",
}

__all__ = [*_EXPORTS, "__version__"]

__version__ = "1.0.0"


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
