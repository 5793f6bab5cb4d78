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
so a missing pack fails in bounded time, naming the micro step and both
ranks.

The distributed steppers send one message per (destination rank, micro
step): the pack of every face-local payload due to that rank, tagged with
the micro step.  ``send`` ships that pack at once as one queue item
``(src, tag, payload)`` -- one pickle and one lock round per rank pair per
micro step -- and accounts it.  It ships a copy, so the sender may reuse
its buffer right away.  On the receiving side items are filed into
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

import numpy as np

__all__ = ["MessageStats", "ProcessCommunicator", "pair_key"]


def pair_key(src: int, dst: int) -> str:
    """The JSON-safe ``"src->dst"`` key identifying a directed rank pair."""
    return f"{src}->{dst}"


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
        self.stats = MessageStats()

    # ------------------------------------------------------------------
    def send(self, payload: np.ndarray, src: int, dst: int, tag: int = 0) -> None:
        """Ship a copy of ``payload`` to rank ``dst`` as one message and
        account it."""
        if src != self.rank:
            raise ValueError(f"rank {self.rank} cannot send as rank {src}")
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"rank {dst} out of range (n_ranks = {self.n_ranks})")
        payload = np.array(payload, order="C")
        self._outbound[dst].put((self.rank, int(tag), payload))
        self.stats.record(src, dst, payload.nbytes)

    def flush(self) -> None:
        """A no-op: :meth:`send` ships each message at once.  It stays only
        because the end-to-end benchmark's round-trip probe
        (``benchmarks/e2e/layers.py::comm_roundtrip``) calls it."""

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
                ) from None
        return mailbox.popleft()

    def _ingest(self, item) -> None:
        src, tag, payload = item
        self._mailboxes[(src, tag)].append(payload)

    def _drain(self) -> None:
        while True:
            try:
                self._ingest(self._inbound.get_nowait())
            except _queue.Empty:
                return

    def all_delivered(self) -> bool:
        """Whether every payload that reached this rank has been consumed.

        Drains the inbound queue first so arrived-but-unread excess messages
        are visible: after a macro cycle whose corrections drained every
        planned pack, a non-empty mailbox means a schedule mismatch.
        Messages still in flight on the wire are inherently unobservable.
        """
        self._drain()
        return all(len(mailbox) == 0 for mailbox in self._mailboxes.values())
