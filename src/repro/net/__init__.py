"""Simulated cluster and network substrate.

The paper evaluates Hoplite on a 16-node AWS cluster with uniform 10 Gbps
networking.  This package provides the equivalent substrate as a
discrete-event model: a :class:`~repro.net.cluster.Cluster` of
:class:`~repro.net.node.Node` objects whose NICs are modelled as serialized
per-direction bandwidth pipes, plus block-granularity transfers, in-node
memory-copy channels, and failure injection.

All timing in the simulator derives from the
:class:`~repro.net.config.NetworkConfig` parameters (bandwidth, propagation
latency, RPC latency, memory-copy bandwidth, block size), which are exactly
the quantities the paper's analytical model (Section 3.4.2) reasons about.
"""

from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.flowsched import Flow, FlowClass, LinkScheduler, Reservation
from repro.net.node import Node
from repro.net.topology import Fabric, FabricLink, Topology
from repro.net.transport import NodeFailedError, TransferError, transfer_bytes

__all__ = [
    "Cluster",
    "Fabric",
    "FabricLink",
    "Flow",
    "FlowClass",
    "LinkScheduler",
    "NetworkConfig",
    "Node",
    "NodeFailedError",
    "Reservation",
    "Topology",
    "TransferError",
    "transfer_bytes",
]
