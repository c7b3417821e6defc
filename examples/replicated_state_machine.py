#!/usr/bin/env python
"""Virtually synchronous state-machine replication with reconfiguration.

A four-node cluster runs the full application stack of the paper's
Section 4.3 through the ``vs_smr`` stack profile: bounded labels, counters,
and the coordinator-based virtually synchronous SMR replicating a key-value
store.  The example adds a joiner and lets the coordinator perform a
delicate reconfiguration (triggered through the node's ``control`` mailbox)
that carries the replicated state over to the new configuration.

Run with::

    python examples/replicated_state_machine.py
"""

from __future__ import annotations

from repro import build_cluster, fast_sim, stack
from repro.analysis.probes import view_is_installed
from repro.vs.smr import KeyValueStateMachine


def main() -> None:
    cluster = build_cluster(
        n=4,
        seed=7,
        config=fast_sim(),
        stack=stack("vs_smr", state_machine=KeyValueStateMachine),
    )
    services = cluster.services("vs")

    print("== establishing the configuration and the first view ==")
    cluster.run_until_converged(timeout=2_000)
    cluster.run_until(lambda: view_is_installed(cluster), timeout=6_000)
    coordinator = next(pid for pid, vs in services.items() if vs.is_coordinator())
    print(f"coordinator: {coordinator}, view: "
          f"{sorted(services[coordinator].view.members)}")

    print("\n== replicating commands ==")
    services[0].submit(("put", "language", "python"))
    services[1].submit(("put", "paper", "self-stabilizing reconfiguration"))
    services[2].submit(("put", "venue", "MIDDLEWARE 2016"))
    cluster.run_until(
        lambda: all(len(vs.machine.data) == 3 for vs in services.values()),
        timeout=cluster.simulator.now + 800,
    )
    print("replica 3 key-value state:", services[3].machine.data)

    print("\n== joiner + coordinator-led delicate reconfiguration ==")
    joiner = cluster.add_joiner(10)
    cluster.run_until(lambda: joiner.scheme.is_participant(), timeout=5_000)
    cluster.nodes[coordinator].control["reconfigure"] = True
    cluster.run_until(
        lambda: cluster.agreed_configuration() is not None
        and 10 in cluster.agreed_configuration(),
        timeout=8_000,
    )
    cluster.nodes[coordinator].control["reconfigure"] = False
    cluster.run_until_converged(timeout=4_000)
    print(f"new configuration: {sorted(cluster.agreed_configuration())}")

    cluster.run(until=cluster.simulator.now + 200)
    alive = [vs for pid, vs in services.items() if not cluster.nodes[pid].crashed]
    preserved = all(
        vs.machine.data.get("paper") == "self-stabilizing reconfiguration"
        for vs in alive
        if vs.machine.data
    )
    print("state preserved across reconfiguration:", preserved)

    # What the example claims, checked (``make scenarios-smoke`` runs it).
    assert 10 in cluster.agreed_configuration()
    assert preserved and all(len(vs.machine.data) == 3 for vs in services.values())


if __name__ == "__main__":
    main()
