"""Deterministic random-source helpers.

Every stochastic decision in the simulation (channel loss, duplication,
reordering, scheduling jitter, fault-injection targets) is drawn from a
:class:`random.Random` instance seeded explicitly, so that a run is fully
reproducible from ``(topology, workload, seed)``.

The helpers here derive independent sub-streams from a root seed so that, for
example, adding an extra channel does not perturb the loss pattern of the
existing ones.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, *components: object) -> int:
    """Derive a stable 64-bit sub-seed from *root_seed* and a component path.

    The derivation hashes the textual representation of the components, so
    ``derive_seed(1, "channel", 2, 3)`` is stable across runs and Python
    versions (unlike ``hash()`` which is salted for strings).
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode("utf-8"))
    for component in components:
        digest.update(b"/")
        digest.update(repr(component).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def make_rng(root_seed: int, *components: object) -> random.Random:
    """Return a :class:`random.Random` seeded with a derived sub-seed."""
    return random.Random(derive_seed(root_seed, *components))
