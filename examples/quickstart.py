#!/usr/bin/env python
"""Quickstart: self-organizing configuration, joining, and reconfiguration.

The example builds a five-node cluster from a declarative
:class:`~repro.sim.config.ClusterConfig` preset, lets it self-organize into a
quorum configuration, adds a joiner, crashes a majority of the configuration
and shows the scheme recovering by installing a new configuration over the
survivors.  The final phase runs one of the composed scenarios from the
declarative scenario library — the same engine behind
``python -m repro.scenarios``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import build_cluster, fast_sim
from repro.scenarios import run_scenario


def main() -> None:
    cluster = build_cluster(n=5, seed=42, config=fast_sim())

    print("== phase 1: self-organization from an arbitrary start ==")
    converged = cluster.run_until_converged(timeout=2_000)
    config = cluster.agreed_configuration()
    print(f"converged: {converged} at t={cluster.simulator.now:.1f}")
    print(f"agreed configuration: {sorted(config)}")

    print("\n== phase 2: a new processor joins ==")
    joiner = cluster.add_joiner(99)
    cluster.run_until(lambda: joiner.scheme.is_participant(), timeout=4_000)
    print(f"processor 99 participant: {joiner.scheme.is_participant()}")
    print(f"processor 99 sees configuration: {sorted(joiner.current_config() or [])}")

    print("\n== phase 3: majority collapse and automatic reconfiguration ==")
    victims = sorted(config)[: len(config) // 2 + 1]
    for pid in victims:
        cluster.crash(pid)
    print(f"crashed a majority of the configuration: {victims}")
    recovered = cluster.run_until(
        lambda: cluster.is_converged() and cluster.agreed_configuration() != config,
        timeout=8_000,
    )
    new_config = cluster.agreed_configuration()
    print(f"reconfigured: {recovered} at t={cluster.simulator.now:.1f}")
    print(f"new configuration: {sorted(new_config or [])}")
    print(f"recMA triggerings: "
          f"{sum(node.recma.trigger_count for node in cluster.nodes.values())}")

    stats = cluster.statistics()
    print("\n== run statistics ==")
    for key in ("time", "executed_events", "delivered_messages", "resets", "installs"):
        print(f"  {key}: {stats[key]}")

    print("\n== phase 4: a composed scenario from the library ==")
    result = run_scenario("churn_during_corruption", seed=1)
    print(f"scenario: {result['scenario']} (stack={result['stack']})")
    print(f"ok: {result['ok']}, probes: "
          f"{ {name: entry['satisfied'] for name, entry in result['probes'].items()} }")
    print("explore more with: python -m repro.scenarios --list")

    # What the example claims, checked (``make scenarios-smoke`` runs it).
    assert converged and joiner.scheme.is_participant()
    assert recovered and new_config and not set(victims) & new_config
    assert result["ok"]


if __name__ == "__main__":
    main()
