"""Machine model of the Frontera supercomputer and the strong-scaling study.

The paper's strong-scaling runs (Fig. 10) cannot be executed here -- no
Frontera, no MPI -- so the scaling behaviour is *modelled* from the two
ingredients that actually determine it:

* the weighted load balance of the partitioning (computation time per node is
  proportional to the heaviest partition's weighted element load), and
* the communication time of the partition-boundary exchange (bytes per cycle
  over the face-local messages divided by the injection bandwidth, plus a
  latency per message -- one pack per rank pair and micro step), which EDGE
  overlaps with the interior computation.

The node parameters default to Frontera's Cascade Lake nodes (Sec. VII-A):
2x28 cores at 2.7 GHz with AVX-512 -> 4.84 FP32-TFLOPS peak, HDR100 downlinks
(100 Gb/s).  The per-element-update cost is taken from the kernel flop counts
at a configurable fraction of peak (the paper sustains 20-28 %).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MachineNode", "FRONTERA_NODE", "ScalingPoint", "strong_scaling_study"]


@dataclass(frozen=True)
class MachineNode:
    """A compute node of the modelled machine."""

    name: str
    peak_flops: float  #: FP32 peak [flop/s]
    sustained_fraction: float  #: fraction of peak the kernels sustain
    network_bandwidth: float  #: injection bandwidth [byte/s]
    network_latency: float  #: per message latency [s]

    @property
    def sustained_flops(self) -> float:
        return self.peak_flops * self.sustained_fraction


#: Frontera Cascade Lake node (Sec. VII-A) with the paper's ~22 % sustained fraction.
FRONTERA_NODE = MachineNode(
    name="Frontera CLX",
    peak_flops=4.84e12,
    sustained_fraction=0.22,
    network_bandwidth=100e9 / 8.0,
    network_latency=2e-6,
)


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a strong-scaling study."""

    n_nodes: int
    compute_time: float
    communication_time: float
    exposed_communication_time: float
    total_time: float
    parallel_efficiency: float
    speedup_vs_smallest: float


def strong_scaling_study(
    element_weights: np.ndarray,
    neighbors: np.ndarray,
    cluster_ids: np.ndarray,
    n_clusters: int,
    node_counts: list[int],
    flops_per_element_update: float,
    order: int,
    node: MachineNode = FRONTERA_NODE,
    bytes_per_value: int = 4,
    overlap_fraction: float = 0.9,
    partitioner=None,
) -> list[ScalingPoint]:
    """Model the strong scaling of an LTS configuration over ``node_counts``.

    For each node count the mesh is partitioned with the weighted
    partitioner; the modelled cycle time is
    ``max_p(compute_p) + max(0, comm - overlap_fraction * compute)`` --
    communication is overlapped with computation as EDGE does by reordering
    the send elements first.  Parallel efficiency is reported relative to the
    smallest node count, exactly like Fig. 10.
    """
    from .exchange import HaloIndex, exchange_volumes_per_cycle
    from .partition import partition_dual_graph

    element_weights = np.asarray(element_weights, dtype=np.float64)
    partitioner = partitioner or partition_dual_graph

    results: list[ScalingPoint] = []
    base_time_per_node: float | None = None
    for n_nodes in node_counts:
        partition = partitioner(neighbors, element_weights, n_nodes)
        loads = partition.weighted_loads
        # weighted load is in units of smallest-cluster element updates per cycle
        compute_time = loads.max() * flops_per_element_update / node.sustained_flops

        halo = HaloIndex.from_partitions(neighbors, partition.partitions)
        volumes = exchange_volumes_per_cycle(
            halo, cluster_ids, n_clusters, order, bytes_per_value=bytes_per_value
        )
        # communication of the busiest pair, plus one latency per message:
        # a message is one pack per (src, dst, micro step), not one per face
        comm_time = (
            volumes["max_pair_bytes"] / node.network_bandwidth
            + node.network_latency * max(1.0, volumes["n_messages"] / max(n_nodes, 1))
        )
        exposed = max(0.0, comm_time - overlap_fraction * compute_time)
        total = compute_time + exposed

        if base_time_per_node is None:
            base_time_per_node = total * n_nodes
            speedup = 1.0
            efficiency = 1.0
        else:
            speedup = (base_time_per_node / node_counts[0]) / total
            efficiency = base_time_per_node / (total * n_nodes)
        results.append(
            ScalingPoint(
                n_nodes=n_nodes,
                compute_time=compute_time,
                communication_time=comm_time,
                exposed_communication_time=exposed,
                total_time=total,
                parallel_efficiency=efficiency,
                speedup_vs_smallest=speedup,
            )
        )
    return results
