"""Adversarial self-stabilization audit engine.

Certifies the paper's headline claim — convergence from an *arbitrary*
starting state — instead of trusting a handful of hand-picked corruptions:

* :mod:`repro.audit.arbitrary_state` — seeded, type-correct random
  corruption of every protocol-state field (recSA / recMA / failure
  detector / services) plus bounded channel stuffing, emitted as shrinkable
  :class:`~repro.sim.faults.CorruptionAtom` plans;
* :mod:`repro.audit.schedulers` — named adversarial message-timing
  schedulers (delay skew, heavy reordering, burst delivery, slow node)
  scenarios select by name like a stack profile;
* :mod:`repro.audit.harness` — the certification sweep over
  ``corrupted-states x schedulers x seeds`` (reusing the scenario engine's
  parallel matrix) with ddmin-style shrinking of violating runs to minimal
  reproducers;
* :mod:`repro.audit.gate` — the pinned convergence bounds every named
  matrix is compared against;
* ``python -m repro.audit --matrix NAME`` — the CLI: certify a named matrix
  and gate it (``--list`` names them).

This module only pulls in the simulation-layer pieces; the harness (which
depends on :mod:`repro.scenarios`) is imported on demand to keep the import
graph acyclic — ``repro.scenarios.workloads`` imports the generator from
here.
"""

from repro.audit.arbitrary_state import (
    DEFAULT_PROFILE,
    CorruptionProfile,
    generate_plan,
    plan_summary,
)
from repro.audit.schedulers import (
    AdversarialScheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
)

__all__ = [
    "CorruptionProfile",
    "DEFAULT_PROFILE",
    "generate_plan",
    "plan_summary",
    "AdversarialScheduler",
    "available_schedulers",
    "get_scheduler",
    "register_scheduler",
]
