"""Halo message passing between ranks, with byte and message accounting.

No MPI implementation is available in this environment, so the distributed-
memory exchange of Sec. V-C runs through one queue communicator:
:class:`ProcessCommunicator`, one endpoint per rank.  Each endpoint owns one
inbound queue and holds references to every peer's inbound queue for
sending.  The multi-rank engine wires one endpoint per rank worker
process, each with a :class:`multiprocessing.Queue` (one pipe, one feeder
thread -- ``put`` never blocks, so posting a halo send returns immediately
and the transfer proceeds in the background while the sender computes
interior work).  A receive blocks at most ``timeout`` seconds per message,
so a missing or unflushed pack fails in bounded time, naming the micro step
and both ranks.

The distributed steppers send one message per (destination rank, micro
step): the pack of every face-local payload due to that rank, tagged with
the micro step.  Sends are *staged*: ``send`` appends to a per-destination
buffer (and accounts the logical message), and :meth:`ProcessCommunicator.flush`
ships each destination's stage as one queue item -- one pickle and one lock
round per rank pair per micro step.  The stepper flushes right after posting
a micro step's sends.  On the receiving side items are unpacked into
per-``(src, tag)`` mailboxes; per-channel FIFO order is preserved (each
producer feeds a queue from a single thread), so a peer running ahead into
the next cycle never overtakes the current one.  ``recv`` blocks until the
requested channel has a message, which is why the steppers drain the
*statically planned* packs of each micro step (the in-flight state of an
asynchronous channel cannot be observed race-free).

Every transfer is accounted on the send side with the exact payload byte
count, so the measured traffic must match the machine model exactly.
"""

from __future__ import annotations

import queue as _queue
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

__all__ = ["MessageStats", "ProcessCommunicator", "pair_key"]


def pair_key(src: int, dst: int) -> str:
    """The JSON-safe ``"src->dst"`` key identifying a directed rank pair."""
    return f"{src}->{dst}"


def _unflushed_note(staged: dict[int, list]) -> str:
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
    """Accumulated communication statistics of a run.

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
        """Accumulate another stats object (e.g. one rank's endpoint
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


class ProcessCommunicator:
    """One rank's endpoint of the queue halo-exchange fabric.

    ``inbound`` is this rank's queue and ``outbound`` maps every peer rank
    to its inbound queue; any queue with ``put``/``get(timeout=)``/
    ``get_nowait`` works (see the module doc for the engine's wiring).
    """

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        inbound,
        outbound: dict[int, object],
        timeout: float = 120.0,
    ):
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range (n_ranks = {n_ranks})")
        self.rank = int(rank)
        self.n_ranks = int(n_ranks)
        self._inbound = inbound
        self._outbound = outbound
        self.timeout = timeout
        self._mailboxes: dict[tuple[int, int], deque[np.ndarray]] = defaultdict(deque)
        self._staged: dict[int, list[tuple[int, np.ndarray]]] = defaultdict(list)
        self.stats = MessageStats()

    # ------------------------------------------------------------------
    def send(self, payload: np.ndarray, src: int, dst: int, tag: int = 0) -> None:
        """Stage ``payload`` for rank ``dst`` (shipped on :meth:`flush`);
        the logical message is accounted immediately."""
        if src != self.rank:
            raise ValueError(f"rank {self.rank} cannot send as rank {src}")
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"rank {dst} out of range (n_ranks = {self.n_ranks})")
        payload = np.ascontiguousarray(payload)
        self._staged[dst].append((tag, payload))
        self.stats.record(src, dst, payload.nbytes)

    def flush(self) -> None:
        """Ship every staged batch, one queue item per destination rank.

        The payloads of a stage usually share one shape (a halo pack per
        destination and micro step), so they travel stacked in a single
        array: one pickle per rank pair per micro step.  Mixed-shape stages
        (e.g. mixed-width fused groups) ship as one item per *contiguous
        run* of equal shape and dtype -- runs, not a shape-keyed
        regrouping, so per-channel FIFO order survives the batching.
        """
        for dst, staged in self._staged.items():
            if not staged:
                continue
            for _, run in groupby(
                staged, key=lambda item: (item[1].shape, item[1].dtype.str)
            ):
                batch = list(run)
                tags = np.array([tag for tag, _ in batch], dtype=np.int64)
                stacked = np.stack([payload for _, payload in batch])
                self._outbound[dst].put((self.rank, tags, stacked))
            staged.clear()

    def recv(self, src: int, dst: int, tag: int = 0) -> np.ndarray:
        """Receive the oldest message on the ``(src, tag)`` channel; blocks
        up to :attr:`timeout` seconds."""
        if dst != self.rank:
            raise ValueError(f"rank {self.rank} cannot receive for rank {dst}")
        mailbox = self._mailboxes[(src, tag)]
        while not mailbox:
            try:
                self._ingest(self._inbound.get(timeout=self.timeout))
            except _queue.Empty:
                raise RuntimeError(
                    f"rank {self.rank}: no halo pack from rank {src} for micro step {tag} "
                    f"within {self.timeout:g} s -- peer died or schedule mismatch"
                    f"{_unflushed_note(self._staged)}"
                ) from None
        return mailbox.popleft()

    def _ingest(self, item) -> None:
        # copy, don't slice: a `stacked[index]` view keeps the whole
        # unpickled batch alive until the *last* message of the batch is
        # consumed, which on wide batches holds a multiple of the live halo
        # working set in memory
        src, tags, stacked = item
        for index, tag in enumerate(tags):
            self._mailboxes[(int(src), int(tag))].append(stacked[index].copy())

    def _drain(self) -> None:
        while True:
            try:
                self._ingest(self._inbound.get_nowait())
            except _queue.Empty:
                return

    def all_delivered(self) -> bool:
        """Whether every staged payload went out and every payload that
        reached this rank has been consumed.

        Drains the inbound queue first so arrived-but-unread excess messages
        are visible: after a macro cycle whose corrections drained every
        planned pack, a non-empty mailbox (or unflushed stage) means a
        schedule mismatch.  Messages still in flight on the
        wire are inherently unobservable.
        """
        self._drain()
        return all(len(staged) == 0 for staged in self._staged.values()) and all(
            len(mailbox) == 0 for mailbox in self._mailboxes.values()
        )
