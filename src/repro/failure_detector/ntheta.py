"""The (N, Theta)-failure detector.

Section 2 of the paper: every processor ``pi`` keeps an ordered heartbeat-count
vector ``nonCrashed`` with one entry per processor that exchanges the token
with ``pi``.  Whenever ``pi`` receives the token from ``pj`` it sets ``pj``'s
count to zero and increments every other count by one.  Processors are then
ranked by how recently they communicated; a crashed processor's count grows
without bound, opening an ever-expanding *gap* in the sorted counts.  The
position of the gap yields an estimate ``ni <= N`` of the number of active
processors, and everything ranked past ``min(ni, N)`` — or past the gap — is
suspected.

The detector exposes ``trusted()``, the set of processors currently trusted
(including self), which recSA ships as the ``FD[]`` field of Algorithm 3.1,
and ``counts``, the heartbeat vector itself.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Dict, FrozenSet, Iterator

from repro.common.types import ProcessId, canonical

#: The suspicion slack calibrated for n <= 32 (``ClusterConfig.fd_gap_slack``).
DEFAULT_GAP_SLACK = 16


class _CountsView(MutableMapping):
    """Keyed, writable view over the offset-encoded heartbeat vector.

    The detector stores each processor's count as ``raw[pid] + shift`` so a
    heartbeat can "increment everyone else" by bumping the single shared
    ``shift`` in O(1) instead of walking the vector (Θ(n) per received
    token, the second-hottest cost of an n=128 bootstrap).  This view keeps
    the public ``counts`` surface a real mapping of *effective* counts:
    reads decode, writes encode, so fault-injection atoms that assign
    ``counts[pid] = value`` and diagnostics that copy the vector behave
    exactly as they did when ``counts`` was a plain dict — including the
    seed behaviour that a direct external write does *not* invalidate the
    ``trusted()`` cache (the corrupted value becomes visible at the next
    vector update, as before).  Iteration follows the detector's order,
    stalest first.  A write or a deletion marks that order for one re-sort
    at the next recomputation, so a view write never leaves a stale order
    behind.
    """

    __slots__ = ("_fd",)

    def __init__(self, fd: "NThetaFailureDetector") -> None:
        self._fd = fd

    def __getitem__(self, pid: ProcessId) -> int:
        fd = self._fd
        return fd._raw[pid] + fd._shift

    def __setitem__(self, pid: ProcessId, value: int) -> None:
        fd = self._fd
        fd._raw[pid] = value - fd._shift
        fd._resort = True

    def __delitem__(self, pid: ProcessId) -> None:
        fd = self._fd
        del fd._raw[pid]
        fd._resort = True

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self._fd._raw)

    def __len__(self) -> int:
        return len(self._fd._raw)

    def __contains__(self, pid: object) -> bool:
        return pid in self._fd._raw

    def __repr__(self) -> str:
        return f"_CountsView({dict(self)!r})"


class NThetaFailureDetector:
    """Heartbeat-count based failure detector with gap estimation.

    The vector is kept **in order**: ``_raw`` runs from the stalest entry to
    the freshest, by ``(count, pid)`` descending, so the gap walk reads it
    backwards without sorting.  A heartbeat that ages the vector moves its
    sender to the freshest end, which keeps the order whenever the sender's
    new count of zero ranks first — always, unless a written or corrupted
    count sits at or below it.  What can break the order marks the vector
    for one re-sort by ``(count, pid)`` at the next recomputation: a
    heartbeat that lands out of order, a ``counts`` write or deletion,
    and a cleared cache version (the corruption plan's
    ``_trusted_cache_version = -1``: the cache is arbitrary state too).

    Parameters
    ----------
    pid:
        Owning processor.
    upper_bound_n:
        The known upper bound ``N`` on the number of simultaneously active
        processors.
    gap_slack:
        Additive slack so that small absolute differences between freshly
        started processors do not cause suspicion.
    """

    #: Only every k-th heartbeat of an uninterrupted run from the same
    #: already-freshest sender ages the vector (see :meth:`heartbeat`).
    INFLATION_CLAMP = 4

    #: Multiplicative threshold used to detect the gap in the sorted
    #: heartbeat counts: a processor is suspected when its count exceeds
    #: ``GAP_FACTOR * (median count of better-ranked processors) +
    #: gap_slack``.
    GAP_FACTOR = 4.0

    def __init__(
        self,
        pid: ProcessId,
        upper_bound_n: int,
        gap_slack: int = DEFAULT_GAP_SLACK,
    ) -> None:
        self.pid = pid
        self.upper_bound_n = upper_bound_n
        self.gap_slack = gap_slack
        # The paper's nonCrashed heartbeat-count vector, offset-encoded:
        # the effective count of ``pid`` is ``_raw[pid] + _shift``.  A
        # heartbeat ages every other processor by bumping ``_shift`` once
        # (O(1)) instead of incrementing each entry (Θ(n)); ``counts`` is a
        # mapping view presenting the effective values.
        self._raw: Dict[ProcessId, int] = {}
        self._shift = 0
        # True when ``_raw``'s order may be wrong (class docstring).
        self._resort = False
        self.counts: MutableMapping = _CountsView(self)
        self.heartbeats_received = 0
        # Anti-inflation clamp state: length of the current run of
        # heartbeats from a sender that was already the freshest entry.
        self._zero_streak = 0
        # ``trusted()`` is a pure function of ``counts`` and is queried many
        # times between heartbeats (every convergence-predicate evaluation
        # walks it); the result is cached until the vector next changes.
        self._counts_version = 0
        self._trusted_cache_version = -1
        self._trusted_cache: FrozenSet[ProcessId] = frozenset({pid})

    # ------------------------------------------------------------ heartbeats
    def heartbeat(self, sender: ProcessId) -> None:
        """Record a token exchange (heartbeat) from *sender*.

        Sets the sender's count to zero and increments every other known
        processor's count by one — exactly the update rule of Section 2.

        Inflation clamp: a run of heartbeats from the sender that is
        *already* the freshest entry (count zero) carries almost no new
        ordering information, so only every
        ``INFLATION_CLAMP``-th heartbeat of such a run ages the other
        processors.  Without this, a Byzantine processor spamming junk
        packets would ratchet every honest peer's count past the suspicion
        gap between their legitimate heartbeats — one traitor could
        permanently poison ``trusted()``.  Interleaved honest traffic resets
        the run, so multi-peer operation is unaffected; and when a single
        live peer really is the only traffic source (everyone else crashed),
        aging still proceeds at the reduced rate, preserving crash
        detection.
        """
        if sender == self.pid:
            return
        self.heartbeats_received += 1
        raw = self._raw
        entry = raw.get(sender)
        if entry is not None and entry + self._shift == 0:
            self._zero_streak += 1
            if self._zero_streak % self.INFLATION_CLAMP != 0:
                return
        else:
            self._zero_streak = 0
        self._counts_version += 1
        # Age everyone by one through the shared shift, then pin the sender
        # back to an effective count of zero at the freshest end — O(1) for
        # any vector size.
        self._shift += 1
        fresh = -self._shift
        if entry is not None:
            del raw[sender]
        if raw and not self._resort:
            freshest = next(reversed(raw))
            held = raw[freshest]
            if held < fresh or (held == fresh and freshest < sender):
                self._resort = True
        raw[sender] = fresh

    def trusted(self) -> FrozenSet[ProcessId]:
        """The set of processors the owner currently trusts (including self).

        Cached between heartbeat-vector updates: the computation is pure in
        ``counts``, so the cache can never observe a stale vector.  When a
        recomputation yields the same set, the *previous frozenset object*
        is handed back, and a new set is ``canonical``'s shared object, so
        callers that memoize on the trusted set (recSA) and comparisons
        downstream hit identity instead of an O(n) ``frozenset.__eq__`` —
        which has no identity shortcut of its own.
        """
        if self._trusted_cache_version == self._counts_version:
            return self._trusted_cache
        result = self._compute_trusted()
        self._trusted_cache_version = self._counts_version
        return result

    def _compute_trusted(self) -> FrozenSet[ProcessId]:
        """Owner + the ranked prefix before the gap, at most ``N`` in all.

        One walk over the ordered vector, freshest first (after one re-sort
        when the order is marked unknown), from the freshest count up to the
        first count "far" above the running mean of the counts accepted so
        far — the ever-expanding gap of a crashed processor — or to the cap
        ("we can ignore any processors that rank below the Nth vector
        entry").  The result becomes the cached set;
        an unchanged set keeps the cached object.

        There is no walk when it could not stop early: fewer than ``N``
        processors are known (the cap cannot bite) and the oldest count is
        within the smallest threshold the walk can apply, ``GAP_FACTOR * 1
        + gap_slack``.  Then everything known is trusted — the cached set
        itself when it has that size, since between two recomputations
        with the order known the vector only gains processors.
        """
        raw = self._raw
        known_order = not self._resort and self._trusted_cache_version >= 0
        if not known_order:
            self._raw = raw = {
                pid: value for value, pid in sorted(zip(raw.values(), raw), reverse=True)
            }
            self._resort = False
        shift = self._shift
        cap = self.upper_bound_n
        gap_factor = self.GAP_FACTOR
        gap_slack = self.gap_slack
        cache = self._trusted_cache
        if (
            raw
            and len(raw) < cap
            and gap_factor >= 0
            and next(iter(raw.values())) + shift <= gap_factor + gap_slack
        ):
            if known_order and len(cache) == len(raw) + 1:
                return cache
            # Built in the walk's order, like the walk below: a set iterates
            # in hash-slot order, so ids that collide (1, 9 and 17 in an
            # 8-slot table) iterate in insertion order, and callers iterate
            # it in send order (hence ``canonical``'s order check).
            trusted = {self.pid}
            trusted.update(reversed(raw))
            result = canonical(frozenset(trusted))
        else:
            trusted = {self.pid}
            reference = 0.0
            for index, (pid, value) in enumerate(reversed(raw.items())):
                if len(trusted) >= cap:
                    break
                count = value + shift
                if index == 0:
                    reference = float(count)
                if count > gap_factor * (reference if reference > 1.0 else 1.0) + gap_slack:
                    break
                trusted.add(pid)
                reference = (reference * index + count) / (index + 1)
            result = canonical(frozenset(trusted))
        if result is cache or result == cache:
            return cache
        self._trusted_cache = result
        return result
