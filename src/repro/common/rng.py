"""Deterministic random-source helpers.

Every stochastic decision in the simulation (channel loss, duplication,
reordering, scheduling jitter, fault-injection targets) is drawn from a
:class:`random.Random` instance seeded explicitly, so that a run is fully
reproducible from ``(topology, workload, seed)``.

The helpers here derive independent sub-streams from a root seed so that, for
example, adding an extra channel does not perturb the loss pattern of the
existing ones.

A simulated channel draws a dozen times over a whole run, yet a Mersenne
Twister holds ~2.5 KB of state: :class:`ChannelStream` draws the exact values
of ``make_rng(...).random()`` while holding only its seed, a draw count and
a small buffer of the next values.
"""

from __future__ import annotations

import _random
import hashlib
import random
from array import array
from typing import Optional, Tuple

#: Draws in a stream's first buffer; each refill doubles it.
FIRST_BLOCK = 16

#: Draws whose buffer would be as large as a Twister's state (624 32-bit
#: words, two per draw): a stream that needs a block this long promotes to
#: its own generator instead.
TWISTER_DRAWS = 312


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


class ChannelStream:
    """``make_rng(root_seed, *components).random()``, value for value, in
    a few hundred bytes.

    The stream keeps its derived seed, the number of values it has buffered
    so far and a block of the next ones, stored last-first so that a draw is
    one ``pop``.  A refill seeds a throwaway Twister, skips the words already
    drawn (``random()`` consumes two 32-bit words, and so does every 64 bits
    of ``getrandbits``) and buffers the next block, twice as long as the
    last.  A stream whose next block would be as large as a Twister's state
    is *promoted*: it gets its own generator, advanced past what it drew, and
    drops its buffer, so it never holds more than a :func:`make_rng`
    generator (the bare C Twister, without :class:`random.Random`'s instance
    dict).

    Pickles by its fields (the promoted generator by its state), so a restored
    copy continues the same sequence.
    """

    __slots__ = ("seed", "buffered", "_block", "_twister")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Values drawn into blocks so far (the end of the current block).
        self.buffered = 0
        self._block = array("d")
        self._twister: Optional[_random.Random] = None

    def random(self) -> float:
        """The next value in ``[0, 1)``."""
        block = self._block
        if block:
            return block.pop()
        return self._refill()

    @property
    def drawn(self) -> int:
        """Values handed out so far."""
        return self.buffered - len(self._block)

    @property
    def promoted(self) -> bool:
        """Whether the stream draws from its own generator."""
        return self._twister is not None

    def _refill(self) -> float:
        twister = self._twister
        if twister is None:
            drawn = self.buffered
            # The blocks so far held 16 + 32 + ... = drawn values, so the
            # next, twice the last, holds drawn + FIRST_BLOCK.
            size = drawn + FIRST_BLOCK
            twister = _random.Random(self.seed)
            if drawn:
                twister.getrandbits(64 * drawn)
            if size < TWISTER_DRAWS:
                draw = twister.random
                block = self._block = array("d", [draw() for _ in range(size)])
                block.reverse()
                self.buffered = drawn + size
                return block.pop()
            self._twister = twister
            self._block = array("d")
        self.buffered += 1
        return twister.random()

    def __sizeof__(self) -> int:
        """The stream's own bytes plus its seed, buffer and generator."""
        held = object.__sizeof__(self) + self.seed.__sizeof__() + self._block.__sizeof__()
        if self._twister is not None:
            held += self._twister.__sizeof__()
        return held

    def __reduce__(self) -> Tuple[object, Tuple[object, ...]]:
        twister = self._twister
        state = None if twister is None else twister.getstate()
        return _restore_stream, (self.seed, self.buffered, self._block, state)


def _restore_stream(
    seed: int, buffered: int, block: array, state: Optional[Tuple[int, ...]]
) -> ChannelStream:
    stream = ChannelStream(seed)
    stream.buffered = buffered
    stream._block = block
    if state is not None:
        twister = stream._twister = _random.Random(0)
        twister.setstate(state)
    return stream
