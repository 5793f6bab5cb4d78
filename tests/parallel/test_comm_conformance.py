"""One behavioural contract, two wirings of the one communicator.

The distributed steppers only ever see the communicator interface --
``send``/``flush``/``recv``/``stats``/``all_delivered`` -- of
:class:`ProcessCommunicator`, which takes any queue: the engine wires its
rank workers over ``multiprocessing`` queues, and tests wire in-process
rank solvers over ``queue.SimpleQueue`` inbounds.  Both wirings must
satisfy the same observable
semantics: FIFO order per ``(src, tag)`` channel, statically-counted
receives, excess-message detection through ``all_delivered``, and send-side
byte accounting that matches the payloads exactly.  The steppers send one
halo pack per (destination, micro step) tagged with the micro step, so the
packed layouts and the micro-step diagnostics are part of the contract.
This suite runs the contract against both wirings in one process (the
engine tests cover the cross-process path).
"""

import multiprocessing
import queue
import time

import numpy as np
import pytest

from repro.parallel.communicator import ProcessCommunicator, pair_key

N_RANKS = 2
KINDS = ("inprocess", "process")


class _Fabric:
    """All ranks' endpoints of one wiring."""

    def __init__(self, kind: str, timeout: float = 10.0):
        if kind == "inprocess":
            inbound = [queue.SimpleQueue() for _ in range(N_RANKS)]
            timeout = 0.0  # in-process: a receive never waits
        else:
            ctx = multiprocessing.get_context()
            inbound = [ctx.Queue() for _ in range(N_RANKS)]
        self.comms = [
            ProcessCommunicator(
                rank,
                N_RANKS,
                inbound[rank],
                {dst: inbound[dst] for dst in range(N_RANKS) if dst != rank},
                timeout=timeout,
            )
            for rank in range(N_RANKS)
        ]

    def wait_arrival(self, rank: int) -> bool:
        """Poll until ``rank`` sees an unconsumed arrival (the queue wiring
        ships through a feeder thread); ``False`` if none shows up."""
        deadline = time.monotonic() + 10.0
        while self.comms[rank].all_delivered():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.005)
        return True


@pytest.fixture(params=KINDS)
def fabric(request):
    return _Fabric(request.param)


class TestConformance:
    def test_roundtrip_preserves_payload_and_dtype(self, fabric):
        payload = np.arange(12, dtype=np.float64).reshape(3, 4) * np.pi
        fabric.comms[0].send(payload, src=0, dst=1, tag=5)
        fabric.comms[0].flush()
        received = fabric.comms[1].recv(src=0, dst=1, tag=5)
        np.testing.assert_array_equal(received, payload)
        assert received.dtype == payload.dtype and received.shape == payload.shape

    def test_fifo_per_channel_across_interleaved_tags(self, fabric):
        send, flush = fabric.comms[0].send, fabric.comms[0].flush
        send(np.full(2, 1.0), src=0, dst=1, tag=7)
        send(np.full(2, 9.0), src=0, dst=1, tag=8)
        flush()
        send(np.full(2, 2.0), src=0, dst=1, tag=7)
        flush()
        recv = fabric.comms[1].recv
        assert recv(0, 1, tag=7)[0] == 1.0
        assert recv(0, 1, tag=8)[0] == 9.0
        assert recv(0, 1, tag=7)[0] == 2.0

    def test_static_count_recv_consumes_exactly_what_was_sent(self, fabric):
        # the steppers drain a statically planned number of packs per
        # micro step; the channel must deliver exactly that many
        n_messages = 5
        for i in range(n_messages):
            fabric.comms[0].send(np.full(3, float(i)), src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        values = [fabric.comms[1].recv(0, 1, tag=0)[0] for _ in range(n_messages)]
        assert values == [float(i) for i in range(n_messages)]
        assert fabric.comms[1].all_delivered()

    def test_all_delivered_flags_excess_messages(self, fabric):
        fabric.comms[0].send(np.ones(4), src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        assert fabric.wait_arrival(1)
        assert not fabric.comms[1].all_delivered()
        fabric.comms[1].recv(0, 1, tag=0)
        assert fabric.comms[1].all_delivered()

    def test_bidirectional_exchange(self, fabric):
        fabric.comms[0].send(np.full(2, 10.0), src=0, dst=1, tag=1)
        fabric.comms[1].send(np.full(2, 20.0), src=1, dst=0, tag=1)
        fabric.comms[0].flush()
        fabric.comms[1].flush()
        assert fabric.comms[1].recv(0, 1, tag=1)[0] == 10.0
        assert fabric.comms[0].recv(1, 0, tag=1)[0] == 20.0

    def test_stats_match_sent_payload_bytes_exactly(self, fabric):
        # the byte-accounting contract: measured traffic is the sum of the
        # logical payloads' nbytes, per directed pair -- the same quantity
        # exchange_volumes_per_cycle models
        payloads_01 = [np.zeros((9, 2)), np.zeros((9, 2)), np.zeros(7)]
        payloads_10 = [np.zeros((4, 3), dtype=np.float32)]
        for p in payloads_01:
            fabric.comms[0].send(p, src=0, dst=1, tag=0)
        for p in payloads_10:
            fabric.comms[1].send(p, src=1, dst=0, tag=0)
        fabric.comms[0].flush()
        fabric.comms[1].flush()
        for _ in payloads_01:
            fabric.comms[1].recv(0, 1, tag=0)
        for _ in payloads_10:
            fabric.comms[0].recv(1, 0, tag=0)
        per_pair = {}
        for comm in fabric.comms:
            per_pair.update(comm.stats.per_pair)
        expected_01 = sum(p.nbytes for p in payloads_01)
        expected_10 = sum(p.nbytes for p in payloads_10)
        assert per_pair[pair_key(0, 1)] == {
            "messages": len(payloads_01),
            "bytes": expected_01,
        }
        assert per_pair[pair_key(1, 0)] == {
            "messages": len(payloads_10),
            "bytes": expected_10,
        }

    def test_mixed_shapes_to_one_destination_in_one_flush(self, fabric):
        # mixed-width fused groups stage differently shaped payloads for one
        # destination within one micro step
        send = fabric.comms[0].send
        send(np.full((9, 2), 1.0), src=0, dst=1, tag=0)
        send(np.full((9, 4), 2.0), src=0, dst=1, tag=1)
        send(np.full((9, 2), 3.0), src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        recv = fabric.comms[1].recv
        first = recv(0, 1, tag=0)
        wide = recv(0, 1, tag=1)
        second = recv(0, 1, tag=0)
        assert first.shape == (9, 2) and first[0, 0] == 1.0
        assert wide.shape == (9, 4) and wide[0, 0] == 2.0
        assert second.shape == (9, 2) and second[0, 0] == 3.0
        assert fabric.comms[1].all_delivered()

    def test_rank_validation(self, fabric):
        with pytest.raises(ValueError):
            fabric.comms[0].send(np.zeros(1), src=0, dst=N_RANKS + 3)

    def test_recv_rank_validation(self, fabric):
        with pytest.raises(ValueError):
            fabric.comms[0].recv(src=1, dst=N_RANKS + 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128, np.int64])
    def test_roundtrip_of_each_dtype(self, fabric, dtype):
        # f32 precision runs ship f32 halos; the transport must not upcast
        payload = (np.arange(18).reshape(9, 2) + 0.5).astype(dtype)
        fabric.comms[0].send(payload, src=0, dst=1, tag=2)
        fabric.comms[0].flush()
        received = fabric.comms[1].recv(0, 1, tag=2)
        assert received.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(received, payload)

    def test_non_contiguous_payload_roundtrips(self, fabric):
        base = np.arange(48, dtype=np.float64).reshape(6, 8)
        payload = base[:, ::2].T
        assert not payload.flags.c_contiguous
        fabric.comms[0].send(payload, src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        received = fabric.comms[1].recv(0, 1, tag=0)
        np.testing.assert_array_equal(received, payload)
        assert received.shape == (4, 6)

    def test_sender_may_reuse_its_buffer_after_flush(self, fabric):
        # the steppers overwrite their staging buffers on the next micro step
        buffer = np.full((9, 2), 1.0)
        fabric.comms[0].send(buffer, src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        buffer[:] = -1.0
        fabric.comms[0].send(buffer, src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        assert np.all(fabric.comms[1].recv(0, 1, tag=0) == 1.0)
        assert np.all(fabric.comms[1].recv(0, 1, tag=0) == -1.0)

    def test_received_arrays_are_independent_copies(self, fabric):
        for value in (1.0, 2.0):
            fabric.comms[0].send(np.full((9, 2), value), src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        first = fabric.comms[1].recv(0, 1, tag=0)
        second = fabric.comms[1].recv(0, 1, tag=0)
        assert first.flags.owndata and second.flags.owndata
        first[:] = 7.0
        assert np.all(second == 2.0)

    def test_channels_stay_fifo_over_many_flushes(self, fabric):
        n_rounds = 200
        for i in range(n_rounds):
            fabric.comms[0].send(np.full(3, float(i)), src=0, dst=1, tag=i % 3)
            fabric.comms[0].flush()
        recv = fabric.comms[1].recv
        for tag in range(3):
            values = [recv(0, 1, tag=tag)[0] for _ in range(tag, n_rounds, 3)]
            assert values == [float(i) for i in range(tag, n_rounds, 3)]
        assert fabric.comms[1].all_delivered()

    def test_recv_consumes_only_the_requested_channel(self, fabric):
        send = fabric.comms[0].send
        send(np.full(2, 1.0), src=0, dst=1, tag=0)
        send(np.full(2, 2.0), src=0, dst=1, tag=0)
        send(np.full(2, 3.0), src=0, dst=1, tag=1)
        fabric.comms[0].flush()
        recv = fabric.comms[1].recv
        assert recv(0, 1, tag=1)[0] == 3.0
        assert not fabric.comms[1].all_delivered()  # tag 0 still holds two
        assert [recv(0, 1, tag=0)[0] for _ in range(2)] == [1.0, 2.0]
        assert fabric.comms[1].all_delivered()

    def test_empty_payload_is_one_message_of_zero_bytes(self, fabric):
        payload = np.zeros((0, 9))
        fabric.comms[0].send(payload, src=0, dst=1, tag=0)
        fabric.comms[0].flush()
        received = fabric.comms[1].recv(0, 1, tag=0)
        assert received.shape == (0, 9)
        assert fabric.comms[0].stats.per_pair[pair_key(0, 1)] == {"messages": 1, "bytes": 0}
        assert fabric.comms[1].all_delivered()

    def test_traffic_is_accounted_at_send_before_any_receive(self, fabric):
        payload = np.zeros((9, 3))
        fabric.comms[0].send(payload, src=0, dst=1, tag=0)
        stats = fabric.comms[0].stats
        assert stats.n_messages == 1 and stats.n_bytes == payload.nbytes
        fabric.comms[0].flush()
        fabric.comms[1].recv(0, 1, tag=0)
        assert stats.n_messages == 1 and stats.n_bytes == payload.nbytes


class TestHaloPacks:
    @pytest.mark.parametrize(
        "shape, dtype", [((7, 9, 6), np.float64), ((7, 9, 6, 4), np.float32)],
        ids=["scalar-f64", "fused-f32"],
    )
    def test_packed_payload_roundtrip(self, fabric, shape, dtype):
        """``(n, 9, F[, f])`` packs of consecutive micro steps arrive intact:
        row order, run precision, and the bytes accounted at send time."""
        rng = np.random.default_rng(0)
        packs = [rng.standard_normal(shape).astype(dtype) for _ in range(3)]
        for step, pack in enumerate(packs):
            fabric.comms[0].send(pack, src=0, dst=1, tag=step)
        stats = fabric.comms[0].stats
        assert stats.per_pair[pair_key(0, 1)] == {
            "messages": 3, "bytes": sum(pack.nbytes for pack in packs),
        }
        fabric.comms[0].flush()
        for step in (2, 0, 1):  # a receiver drains by micro step, in any order
            received = fabric.comms[1].recv(0, 1, tag=step)
            assert received.dtype == np.dtype(dtype) and received.shape == shape
            np.testing.assert_array_equal(received, packs[step])
        assert fabric.comms[1].all_delivered()

    @pytest.mark.parametrize("kind", KINDS)
    def test_recv_failure_names_the_micro_step(self, kind):
        fabric = _Fabric(kind, timeout=0.2)
        # rank 1 stages a pack of micro step 3 for rank 0 and never flushes
        fabric.comms[1].send(np.zeros((2, 9, 3)), src=1, dst=0, tag=3)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="micro step 5") as failure:
            fabric.comms[1].recv(0, 1, tag=5)
        assert "1 staged pack(s) of micro step(s) [3] for rank(s) [0]" in str(failure.value)
        if kind == "inprocess":
            assert time.monotonic() - start < 0.1  # fails at once, no wait
