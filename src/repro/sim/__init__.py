"""Discrete-event simulation substrate for asynchronous message passing.

The simulator realizes the system model of Section 2 of the paper:

* an asynchronous interleaving of steps — each step is local computation
  followed by a single communication operation;
* fully-connected topology with per-directed-pair channels of bounded
  capacity ``cap`` whose packets may be lost, duplicated or reordered but not
  created out of thin air (except by channel corruption atoms, which model
  transient faults);
* *fair communication*: a packet that is sent infinitely often is received
  infinitely often (losses are probabilistic with probability < 1);
* processors that may crash (stop-fail) and new processors that may join.

It hosts the node of :mod:`repro.node` (the processor, its config and its
stack profile), which the live runtime hosts too.  The package also applies
transient-fault plans (:mod:`repro.sim.faults`), snapshots runs
(:mod:`repro.sim.snapshot`) and holds the invariant monitors used by the
test-suite and benchmark harness.
"""

from repro.sim.events import Action, Event, EventQueue
from repro.sim.snapshot import SimSnapshot
from repro.sim.network import Packet, Channel, Network
from repro.sim.simulator import Simulator
from repro.sim.monitors import InvariantMonitor, ConvergenceTracker
from repro.sim.cluster import Cluster, build_cluster

__all__ = [
    "Action",
    "Event",
    "EventQueue",
    "SimSnapshot",
    "Packet",
    "Channel",
    "Network",
    "Simulator",
    "InvariantMonitor",
    "ConvergenceTracker",
    "Cluster",
    "build_cluster",
]
