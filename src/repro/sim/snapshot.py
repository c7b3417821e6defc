"""Converged-state snapshot/restore of a running simulation.

A :class:`SimSnapshot` captures the *complete* state of a simulation at an
instant between events — the event queue (including pending timers and
in-flight delivery events), every channel's occupancy, each process's
full protocol state (recSA / recMA / failure detector / heartbeat links /
stack services), the :class:`~repro.sim.network.Network`'s link rules,
partitions and transition log, and every seeded RNG stream —
and can restore any number of fresh, fully independent copies.

The determinism guarantee
-------------------------
``restore()`` followed by running the copy produces **byte-identical**
results (``executed_events``, ``delivered_messages``, convergence times,
scenario result dictionaries) to running the original — or a cold run of the
same seed — uninterrupted.  The audit harness builds on this: the expensive
pre-corruption bootstrap prefix of a sweep is computed once, snapshotted,
and fanned out across corruption cases (see ``repro.audit.harness``), and
the workers of ``run_matrix``'s process pool inherit parent-captured
snapshots copy-on-write through ``fork``.

How it works
------------
A snapshot *is* its pickle bytes: ``capture`` is one ``dumps`` of the object
graph and ``restore`` is one ``loads``.  Three properties of the codebase
make that sound:

* **No foreign closures in live state.**  Everything the event queue or any
  long-lived structure holds is either a bound method, an
  :class:`~repro.sim.events.Action`, or a small callable object — all of
  which pickle by state and are rebuilt onto the restored graph.  A plain
  closure does not pickle at all, so one that slips into live state fails
  the capture (a :class:`~repro.common.errors.SimulationError` naming it)
  instead of silently mutating the *original* graph from a copy.
* **Bound methods travel by the attribute they are bound under.**  Pickle
  reduces a method to ``getattr(instance, function.__name__)``, which is
  wrong whenever the class attribute and the function's own name differ —
  any wrapper installed without ``functools.wraps`` (the benchmark's tracing
  spans are patched in at class level exactly like that).
  :func:`_reduce_method` looks the function up by identity along the
  instance's MRO and reduces to the attribute name it finds.
* **Generators restore without touching the OS.**  ``random.Random``
  unpickles through ``Random()``, which seeds itself from ``os.urandom``
  before the pickled state overwrites it; :func:`_reduce_random` rebuilds
  each generator from its state alone.  A channel's
  :class:`~repro.common.rng.ChannelStream` pickles by its own fields (its
  seed, draw count and buffer; a promoted one's Twister state), so a
  snapshot carries a few doubles per channel, not a 625-word state.

Nothing in the state is keyed by object identity (a packet carries its own
in-flight mark), so a restored copy needs no repair pass after ``loads``.

Restrictions
------------
* A snapshot must be taken **between events** (never from inside a running
  callback): capture while a handler is mid-flight would miss its pending
  local mutations.
* Objects reachable from the graph must be picklable; pushed link rules
  must be pure per pair (the built-ins are frozen dataclasses).
* Only restore trusted bytes — unpickling executes the constructors of
  whatever it decodes.
* Wall-clock measurements are obviously not reproduced — only simulated
  state is.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import random
import types
from typing import Any, Tuple

from repro.common.errors import SimulationError


def _find_simulator(subject: Any) -> Any:
    """Locate the simulator inside *subject* (a run, cluster or simulator)."""
    seen = 0
    node = subject
    while node is not None and seen < 4:
        if hasattr(node, "events") and hasattr(node, "network"):
            return node  # quacks like a Simulator
        node = getattr(node, "simulator", None) or getattr(node, "cluster", None)
        seen += 1
    raise SimulationError(
        f"cannot find a simulator inside {type(subject).__name__!r}; "
        "capture a Simulator, a Cluster or a ScenarioRun"
    )


def _reduce_method(method: types.MethodType) -> Tuple[Any, Tuple[Any, str]]:
    """Reduce a bound method to ``getattr(instance, <attribute it is bound under>)``.

    Pickle's own reduction uses ``method.__func__.__name__``, which is the
    attribute name only as long as nobody replaced the class attribute with
    a differently-named wrapper.  The name is found by identity along the
    instance's MRO; a method that is not a class attribute at all keeps
    pickle's default.
    """
    function, instance = method.__func__, method.__self__
    for klass in type(instance).__mro__:
        for name, value in vars(klass).items():
            if value is function:
                return getattr, (instance, name)
    return getattr, (instance, function.__name__)


def _restore_random(cls: type, state: Tuple[Any, ...]) -> random.Random:
    rng = cls.__new__(cls)
    rng.setstate(state)
    return rng


def _reduce_random(rng: random.Random) -> Tuple[Any, Tuple[type, Tuple[Any, ...]]]:
    """Reduce a generator to its state, restored without seeding it first."""
    return _restore_random, (type(rng), rng.getstate())


def _dumps(subject: Any) -> bytes:
    """Pickle *subject* with bound methods reduced by :func:`_reduce_method`
    and generators by :func:`_reduce_random`.

    ``dispatch_table`` entries (not ``reducer_override``, which is a Python
    call per pickled object) keep the C pickler at full speed: the reducers
    run only for the few hundred bound methods and generators of a graph.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {
        **copyreg.dispatch_table,
        types.MethodType: _reduce_method,
        random.Random: _reduce_random,
    }
    try:
        pickler.dump(subject)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise SimulationError(
            f"cannot snapshot {type(subject).__name__!r}: its object graph "
            f"is not picklable ({error})"
        ) from error
    return buffer.getvalue()


class SimSnapshot:
    """An immutable, restorable copy of a simulation's complete state.

    ``capture`` accepts a :class:`~repro.sim.simulator.Simulator`, a
    :class:`~repro.sim.cluster.Cluster`, or a scenario
    :class:`~repro.scenarios.runner.ScenarioRun` (the most useful unit: it
    carries the monitor/tracker hooks and the phase machine's resume state
    along with the cluster).  Each ``restore()`` yields an independent copy;
    the snapshot holds only bytes, so it can fan out any number of runs.
    """

    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self._restores = 0

    @classmethod
    def capture(cls, subject: Any) -> "SimSnapshot":
        """Pickle *subject* into a new snapshot (the original keeps running)."""
        _find_simulator(subject)
        return cls(_dumps(subject))

    def restore(self) -> Any:
        """Return a fresh, fully independent copy of the captured state."""
        restored = pickle.loads(self._blob)
        self._restores += 1
        return restored

    @property
    def restores(self) -> int:
        """How many times this snapshot has been restored (fan-out width)."""
        return self._restores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimSnapshot({len(self._blob)} bytes, restores={self._restores})"
