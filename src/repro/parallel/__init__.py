"""Distributed-memory substrate: partitioning, communication accounting, scaling model.

Two communicators share one ``send``/``recv``/``all_delivered``/``stats`` contract:
:class:`SimulatedCommunicator` (in-process mailboxes, the serial oracle) and
:class:`ProcessCommunicator` (the process backend's one halo transport).
"""

from .communicator import MessageStats, SimulatedCommunicator, pair_key
from .exchange import (
    HaloFace,
    HaloIndex,
    build_halo,
    build_halo_index,
    exchange_face_data,
    exchange_volumes_per_cycle,
)
from .machine_model import FRONTERA_NODE, MachineNode, ScalingPoint, strong_scaling_study
from .partition import PartitionResult, element_weights, face_weights, partition_dual_graph
from .process_comm import ProcessCommunicator

__all__ = [
    "PartitionResult",
    "element_weights",
    "face_weights",
    "partition_dual_graph",
    "SimulatedCommunicator",
    "ProcessCommunicator",
    "MessageStats",
    "pair_key",
    "HaloFace",
    "HaloIndex",
    "build_halo",
    "build_halo_index",
    "exchange_volumes_per_cycle",
    "exchange_face_data",
    "MachineNode",
    "FRONTERA_NODE",
    "ScalingPoint",
    "strong_scaling_study",
]
