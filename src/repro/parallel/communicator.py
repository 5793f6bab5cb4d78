"""Simulated message passing with byte and message accounting.

No MPI implementation is available in this environment, so the distributed-
memory behaviour of the solver is exercised through an in-process simulated
communicator: ranks are plain indices, sends and receives move NumPy arrays
between per-rank mailboxes, and every transfer is accounted (message count
and payload bytes).  The distributed steppers send one halo pack per
destination rank and micro step, tagged with the micro step.  The strong-scaling model and the communication-scheme
benchmarks consume these counters; the interface mirrors the small subset of
MPI the real solver needs (point-to-point send/recv and barriers).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MessageStats", "SimulatedCommunicator", "pair_key", "unflushed_note"]


def pair_key(src: int, dst: int) -> str:
    """The JSON-safe ``"src->dst"`` key identifying a directed rank pair."""
    return f"{src}->{dst}"


def unflushed_note(staged: dict[int, list]) -> str:
    """Diagnostic suffix for a recv-timeout error: which staged sends never
    left this rank.

    ``staged`` maps a destination rank to its ``(tag, payload)`` stage; the
    distributed steppers tag a halo pack with its micro step.  A timeout
    with a non-empty stage almost always means a ``flush()`` call was
    skipped somewhere in the schedule -- the peers are starving on packs
    that were posted but never shipped -- which is a very different bug
    from a dead peer, so the error message must distinguish the two.
    """
    dsts = sorted(dst for dst, items in staged.items() if items)
    if not dsts:
        return ""
    total = sum(len(staged[dst]) for dst in dsts)
    steps = sorted({int(tag) for dst in dsts for tag, _ in staged[dst]})
    return (
        f"; {total} staged pack(s) of micro step(s) {steps} for rank(s) {dsts} "
        "were never flushed and did NOT travel (staged sends only ship on flush())"
    )


@dataclass
class MessageStats:
    """Accumulated communication statistics of a simulated run.

    ``per_pair`` maps the directed rank pair ``"src->dst"`` to plain-int
    message/byte counters, so the whole object embeds into run-summary JSON
    without a custom encoder.
    """

    n_messages: int = 0
    n_bytes: int = 0
    per_pair: dict[str, dict[str, int]] = field(default_factory=dict)

    def record(self, src: int, dst: int, n_bytes: int) -> None:
        # coerce to plain int: callers pass numpy sizes (e.g. ndarray.nbytes
        # on some platforms, or np.int64 volumes) and `int += np.int64`
        # silently turns the totals into numpy scalars, which json.dumps of
        # a run summary then rejects
        self.n_messages += 1
        self.n_bytes += int(n_bytes)
        entry = self.per_pair.setdefault(pair_key(src, dst), {"messages": 0, "bytes": 0})
        entry["messages"] += 1
        entry["bytes"] += int(n_bytes)

    def merge(self, other: "MessageStats | dict") -> None:
        """Accumulate another stats object (e.g. one rank's worker-side
        counters) into this one."""
        data = other.as_dict() if isinstance(other, MessageStats) else other
        self.n_messages += int(data["n_messages"])
        self.n_bytes += int(data["n_bytes"])
        for pair, entry in data["per_pair"].items():
            mine = self.per_pair.setdefault(pair, {"messages": 0, "bytes": 0})
            mine["messages"] += int(entry["messages"])
            mine["bytes"] += int(entry["bytes"])

    def as_dict(self) -> dict:
        """JSON-native snapshot of the accumulated statistics."""
        return {
            "n_messages": self.n_messages,
            "n_bytes": self.n_bytes,
            "per_pair": {k: dict(v) for k, v in self.per_pair.items()},
        }


class SimulatedCommunicator:
    """An in-process stand-in for an MPI communicator.

    Messages are delivered immediately into the destination rank's mailbox
    and tagged; ``recv`` pops the oldest matching message.  All traffic is
    recorded in :attr:`stats`.
    """

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self._mailboxes: dict[tuple[int, int, int], deque[np.ndarray]] = defaultdict(deque)
        self.stats = MessageStats()

    def send(self, payload: np.ndarray, src: int, dst: int, tag: int = 0) -> None:
        """Send ``payload`` from rank ``src`` to rank ``dst``."""
        self._check_rank(src)
        self._check_rank(dst)
        payload = np.asarray(payload)
        self._mailboxes[(src, dst, tag)].append(payload.copy())
        self.stats.record(src, dst, payload.nbytes)

    def recv(self, src: int, dst: int, tag: int = 0) -> np.ndarray:
        """Receive the oldest pending message from ``src`` at rank ``dst``."""
        self._check_rank(src)
        self._check_rank(dst)
        queue = self._mailboxes[(src, dst, tag)]
        if not queue:
            raise RuntimeError(
                f"no pending message from rank {src} to rank {dst} (micro step {tag})"
            )
        return queue.popleft()

    def pending(self, src: int, dst: int, tag: int = 0) -> int:
        """Number of undelivered messages on a channel."""
        return len(self._mailboxes[(src, dst, tag)])

    def all_delivered(self) -> bool:
        """Whether every sent message has been received."""
        return all(len(queue) == 0 for queue in self._mailboxes.values())

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range (n_ranks = {self.n_ranks})")
