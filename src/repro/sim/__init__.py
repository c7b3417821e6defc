"""Discrete-event simulation substrate for asynchronous message passing.

The simulator realizes the system model of Section 2 of the paper:

* an asynchronous interleaving of steps — each step is local computation
  followed by a single communication operation;
* fully-connected topology with per-directed-pair channels of bounded
  capacity ``cap`` whose packets may be lost, duplicated or reordered but not
  created out of thin air (except by the fault injector, which models
  transient faults);
* *fair communication*: a packet that is sent infinitely often is received
  infinitely often (losses are probabilistic with probability < 1);
* processors that may crash (stop-fail) and new processors that may join.

The package also contains the transient-fault injector and the invariant
monitors used by the test-suite and benchmark harness.
"""

from repro.sim.events import Action, Event, EventQueue
from repro.sim.snapshot import SimSnapshot
from repro.sim.network import Packet, Channel, ChannelConfig, Network
from repro.sim.process import Process, ProcessContext
from repro.sim.simulator import Simulator
from repro.sim.config import ClusterConfig, fast_sim, paper_faithful, preset
from repro.sim.stacks import StackProfile, available_stacks, get_stack, register_stack, stack
from repro.sim.faults import FaultInjector
from repro.sim.monitors import InvariantMonitor, ConvergenceTracker
from repro.sim.cluster import Cluster, ClusterNode, build_cluster

__all__ = [
    "Action",
    "Event",
    "EventQueue",
    "SimSnapshot",
    "Packet",
    "Channel",
    "ChannelConfig",
    "Network",
    "Process",
    "ProcessContext",
    "Simulator",
    "ClusterConfig",
    "fast_sim",
    "paper_faithful",
    "preset",
    "StackProfile",
    "available_stacks",
    "get_stack",
    "register_stack",
    "stack",
    "FaultInjector",
    "InvariantMonitor",
    "ConvergenceTracker",
    "Cluster",
    "ClusterNode",
    "build_cluster",
]
