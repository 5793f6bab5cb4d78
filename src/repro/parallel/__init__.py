"""Distributed-memory substrate: partitioning, communication accounting, scaling model.

One communicator, :class:`ProcessCommunicator`, carries every halo pack: the
multi-rank engine wires its endpoints over ``multiprocessing`` queues
between its rank worker processes (tests wire in-process queues).
:class:`HaloIndex` is the one halo description the machine model accounts.
The worker processes themselves -- rank and sweep workers -- are a
:class:`~repro.parallel.supervisor.WorkerPool`.
"""

from .communicator import MessageStats, ProcessCommunicator, pair_key
from .exchange import HaloIndex, exchange_volumes_per_cycle
from .machine_model import FRONTERA_NODE, MachineNode, ScalingPoint, strong_scaling_study
from .partition import PartitionResult, element_weights, face_weights, partition_dual_graph

__all__ = [
    "PartitionResult",
    "element_weights",
    "face_weights",
    "partition_dual_graph",
    "ProcessCommunicator",
    "MessageStats",
    "pair_key",
    "HaloIndex",
    "exchange_volumes_per_cycle",
    "MachineNode",
    "FRONTERA_NODE",
    "ScalingPoint",
    "strong_scaling_study",
]
