"""The frozen spine benchmark's import of ``fast_sim``; nothing else uses it.

``benchmarks/spine/workloads.py`` imports ``repro.sim.config.fast_sim``, and
the spine may not change until its own benchmark PR (ROADMAP 6(f)), which
moves that import to :mod:`repro.node.config` and deletes this module.
"""

from repro.node.config import fast_sim  # noqa: F401
