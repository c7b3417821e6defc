"""Answer checks: a throughput number from an unchecked history is not reported.

Each checker returns one problem per wrong answer (none when the answers
are right): callers count them as failed operations, so nothing is cut here.
The definitions follow Aspnes' notes (PAPERS.md): a counter's increments
return distinct values consistent with one total order that respects real
time; a replicated log delivers every acknowledged command exactly once, in
one order at every replica.

Callers put ``src/`` on ``sys.path`` first (see ``repo.add_src_to_path``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Sequence

from repro.counters.counter import counter_less_than

#: Canary: ``bootstrap_n16`` at seed 89 must execute exactly this trajectory.
CANARY_EVENTS = 1794
CANARY_DELIVERIES = 1726


@dataclass(frozen=True)
class OpRecord:
    """One completed client operation and the answer it got."""

    client: int
    submit: float
    done: float
    value: Any


def check_counters(ops: Sequence[OpRecord]) -> List[str]:
    """Distinct values; ``a`` done before ``b`` submitted implies ``a ≺ct b``.

    The real-time rule contains the per-client one: a closed-loop client
    submits its next increment only after the previous one returned, so its
    values must be strictly increasing under ``counter_less_than``.
    """
    problems: List[str] = []
    seen: Dict[Hashable, OpRecord] = {}
    for op in ops:
        first = seen.setdefault(op.value, op)
        if first is not op:
            problems.append(
                f"duplicate counter {op.value!r}: clients {first.client} and {op.client}"
            )
    by_done = sorted(ops, key=lambda op: op.done)
    finished = 0
    highest = None  # maximal value among ops done before the current submit
    for op in sorted(ops, key=lambda op: op.submit):
        while finished < len(by_done) and by_done[finished].done < op.submit:
            value = by_done[finished].value
            if highest is None or counter_less_than(highest, value):
                highest = value
            finished += 1
        if highest is not None and not counter_less_than(highest, op.value):
            problems.append(
                f"client {op.client} got {op.value!r}, not above {highest!r} "
                f"which was returned before this increment was submitted"
            )
    return problems


def _is_prefix(short: Sequence[Any], long: Sequence[Any]) -> bool:
    return len(short) <= len(long) and all(a == b for a, b in zip(short, long))


def check_smr(
    acknowledged: Sequence[Any], histories: Dict[int, Sequence[Any]]
) -> List[str]:
    """Exactly-once delivery, one order everywhere, client order kept.

    *acknowledged* are the commands ``(tag, client, seq)`` whose completion a
    client saw; *histories* maps each live replica to its
    ``delivered_commands()`` after the drain.
    """
    problems: List[str] = []
    if not histories:
        return ["no live replica to check"]
    for pid, history in sorted(histories.items()):
        counts: Dict[Any, int] = {}
        for command in history:
            counts[command] = counts.get(command, 0) + 1
        for command in acknowledged:
            if counts.get(command, 0) != 1:
                problems.append(
                    f"replica {pid} delivered acknowledged {command!r} "
                    f"{counts.get(command, 0)} times"
                )
        last_seq: Dict[Any, int] = {}
        for command in history:
            client, seq = command[1], command[2]
            if seq <= last_seq.get(client, -1):
                problems.append(
                    f"replica {pid} delivered client {client} seq {seq} "
                    f"after seq {last_seq[client]}"
                )
            last_seq[client] = seq
    # Pairwise prefix order <=> every history is a prefix of the longest.
    longest_pid = max(histories, key=lambda pid: len(histories[pid]))
    longest = histories[longest_pid]
    for pid, history in sorted(histories.items()):
        if not _is_prefix(history, longest):
            problems.append(
                f"replica {pid}'s history is not a prefix of replica {longest_pid}'s"
            )
    return problems


def check_canary(events: int, deliveries: int) -> List[str]:
    """The pinned n=16 trajectory: any drift means the program changed behaviour."""
    if (events, deliveries) == (CANARY_EVENTS, CANARY_DELIVERIES):
        return []
    return [
        f"canary bootstrap_n16@89 read {events} events / {deliveries} deliveries, "
        f"expected {CANARY_EVENTS} / {CANARY_DELIVERIES}"
    ]


def check_sim(converged: bool, agreed: Any, n: int) -> List[str]:
    """Converged, and the agreed configuration is the full membership."""
    problems = []
    if not converged:
        problems.append("cluster is not converged")
    if agreed is None or set(agreed) != set(range(n)):
        size = None if agreed is None else len(agreed)
        problems.append(f"agreed configuration has {size} members, expected all {n}")
    return problems


def check_repeat(what: str, first: Any, again: Any) -> List[str]:
    """``sim_scale`` repeats the same seeded work; every repetition must read
    exactly what the first did."""
    if again == first:
        return []
    return [f"{what}: a repetition of the same seeded work read {again!r}, the first {first!r}"]


def check_audit_cell(verdict: Dict[str, Any]) -> List[str]:
    """A cell is right when it certified with no error and no invariant violation."""
    name = f"{verdict['case']}@{verdict['seed']}"
    problems = []
    if verdict.get("error"):
        problems.append(f"{name}: {verdict['error']}")
    if not verdict.get("certified"):
        problems.append(f"{name}: not certified")
    invariants = verdict.get("invariants")
    if invariants is not None and not invariants.get("ok", True):
        problems.append(f"{name}: invariant violated")
    return problems
