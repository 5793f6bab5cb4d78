"""Message passing between rank worker processes (Sec. V-C, scale-out).

:class:`ProcessCommunicator` is the multiprocessing-backed sibling of
:class:`~repro.parallel.communicator.SimulatedCommunicator`: the same
``send``/``recv``/``pending``/``stats`` interface, but the payloads actually
cross process boundaries.  Each rank worker owns one inbound
:class:`multiprocessing.Queue` (one pipe, one feeder thread -- ``put`` never
blocks, so posting a halo send returns immediately and the transfer proceeds
in the background while the sender computes interior work) and holds
references to every peer's inbound queue for sending.

The distributed steppers send one message per (destination rank, micro
step): the pack of every face-local payload due to that rank, tagged with
the micro step.  Sends are *staged*: ``send`` appends to a per-destination
buffer (and accounts the logical message), and :meth:`flush` ships each
destination's stage as one queue item -- one pickle and one lock round per
rank pair per micro step.  The stepper flushes right after posting a micro
step's sends.  On the receiving side items are unpacked into per-``(src,
tag)`` mailboxes; per-channel FIFO order is preserved (each producer feeds a
queue from a single thread), so a peer running ahead into the next cycle
never overtakes the current one.  ``recv`` blocks until the requested
channel has a message, which is why the distributed steppers drain the
*statically planned* packs of each micro step instead of polling
``pending`` (the in-flight state of an asynchronous channel cannot be
observed race-free).

Every transfer is accounted on the send side with the exact payload byte
count, so a process-backed run reports the same measured traffic as the
simulated communicator -- and both must match the machine model exactly.
"""

from __future__ import annotations

import queue as _queue
from collections import defaultdict, deque
from itertools import groupby

import numpy as np

from .communicator import MessageStats, unflushed_note

__all__ = ["ProcessCommunicator"]


class ProcessCommunicator:
    """One rank's endpoint of the inter-process halo-exchange fabric."""

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
        """Receive the oldest message on the ``(src, tag)`` channel; blocks."""
        if dst != self.rank:
            raise ValueError(f"rank {self.rank} cannot receive for rank {dst}")
        mailbox = self._mailboxes[(src, tag)]
        while not mailbox:
            try:
                self._ingest(self._inbound.get(timeout=self.timeout))
            except _queue.Empty:
                raise RuntimeError(
                    f"rank {self.rank}: no halo pack from rank {src} for micro step {tag} "
                    f"within {self.timeout:.0f} s -- peer died or schedule mismatch"
                    f"{unflushed_note(self._staged)}"
                ) from None
        return mailbox.popleft()

    def pending(self, src: int, dst: int, tag: int = 0) -> int:
        """Messages already *arrived* on a channel (in-flight ones are not
        observable; the steppers therefore drain statically planned packs)."""
        if dst != self.rank:
            raise ValueError(f"rank {self.rank} cannot poll for rank {dst}")
        self._drain()
        return len(self._mailboxes[(src, tag)])

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
