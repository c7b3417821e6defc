#!/usr/bin/env python
"""Shared-memory (MWMR register) emulation under churn and transient faults.

This example mirrors the motivating scenario of the paper's introduction: a
dynamic shared-storage service whose replica set changes over time.  Writers
update a register through the virtually synchronous SMR; meanwhile a replica
crashes and a transient fault scrambles part of the protocol state.  The
register stays consistent and the service resumes after every disturbance.

The whole stack comes from the ``shared_register`` profile, and the
convergence conditions are the reusable probes from
:mod:`repro.analysis.probes` — no hand-wired services or ad-hoc wait loops.

Run with::

    python examples/shared_storage_under_churn.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import probes
from repro.analysis.probes import wait_for
from repro.audit.arbitrary_state import PROFILES, generate_plan
from repro.node.config import fast_sim
from repro.sim.cluster import build_cluster
from repro.sim.faults import apply_plan


def main() -> None:
    cluster = build_cluster(n=5, seed=13, config=fast_sim(), stack="shared_register")
    registers = cluster.services("register")

    cluster.run_until_converged(timeout=2_000)
    wait_for(cluster, probes.view_installed(6_000))
    print("configuration:", sorted(cluster.agreed_configuration()))

    print("\n== writes from several writers ==")
    registers[0].write("v1-from-0")
    registers[2].write("v2-from-2")
    cluster.run_until(
        lambda: all(len(reg.history()) == 2 for reg in registers.values()),
        timeout=cluster.simulator.now + 800,
    )
    print("register value at node 4:", registers[4].read())
    print("write history:", registers[4].history())

    print("\n== crash of a replica + a transient fault ==")
    cluster.crash(1)
    fault = replace(PROFILES["scramble"], node_fraction=0.4)
    apply_plan(cluster, generate_plan(cluster, seed=13, profile=fault))
    cluster.run_until_converged(timeout=10_000)
    wait_for(cluster, probes.view_installed(12_000))
    alive = [pid for pid in cluster.nodes if not cluster.nodes[pid].crashed]
    writer = alive[-1]
    registers[writer].write("v3-after-recovery")
    cluster.run_until(
        lambda: all(registers[pid].read() == "v3-after-recovery" for pid in alive),
        timeout=cluster.simulator.now + 4_000,
    )
    print("register value per replica after recovery:",
          {pid: registers[pid].read() for pid in alive})
    print("pending (not yet delivered) writes:",
          {pid: registers[pid].pending_writes() for pid in alive})
    agreement = wait_for(cluster, probes.register_agreement(2_000))
    print("histories identical (register consistency preserved):",
          agreement.satisfied)

    # What the example claims, checked (``make scenarios-smoke`` runs it).
    assert all(registers[pid].read() == "v3-after-recovery" for pid in alive)
    assert not any(registers[pid].pending_writes() for pid in alive)
    assert agreement.satisfied


if __name__ == "__main__":
    main()
