"""Block-granularity data movement between nodes and inside nodes.

The transfer primitives are generator functions meant to be driven by the
simulation kernel (``yield from transfer_bytes(...)`` inside a process).

Model
-----
Moving ``nbytes`` from node A to node B:

1. the bytes are split into blocks of at most ``block_size``;
2. each block is **admitted** by the flow scheduler
   (:mod:`repro.net.flowsched`): a reservation claims A's uplink slot and
   B's downlink slot atomically, granted only when both are free at the same
   instant;
3. the granted block occupies both slots for the serialization time
   ``block / bandwidth`` (cut-through, bottleneck at the NIC rate), then
   arrives after one extra propagation ``latency``.

Because a pending reservation holds nothing, a sender whose flow toward one
busy receiver is still queued keeps serving its flows toward idle receivers
— there is no head-of-line blocking — and because claims are atomic the
resource graph cannot deadlock.  Concurrent transfers that share a NIC
direction interleave block by block, which approximates TCP fair sharing
and — more importantly for this paper — reproduces the sender-side
bottleneck of naive broadcast and the receiver-side bottleneck of flat
(d = n) reduce.  Transfers carry :class:`~repro.net.flowsched.Flow` metadata
(a flow id for per-flow bandwidth accounting and a priority class ordering
control > reduce-partial > bulk in the admission queues).

Setting ``NetworkConfig.flow_scheduling = False`` restores the legacy
sequential acquisition (uplink first, then queue on the downlink while
holding it) as an ablation.

Zero-byte moves — remote or local — complete immediately at the current
simulated time: no link slot, no serialization, no propagation latency, the
same contract for :func:`transfer_bytes` and :func:`local_copy`.

Failures
--------
If either endpoint fails, in-flight and future blocks of the transfer raise
:class:`TransferError`; a reservation still waiting for admission is
cancelled (withdrawn from every queue) first.  The failure-*detection* delay
is modelled where the paper's protocols pay it: in the retry loops of the
layers above, which sleep ``failure_detection_delay`` before re-resolving a
source — exactly like a broken TCP connection being noticed by its peer.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.net.coalesce import (
    CoalescedRun,
    build_copy_run,
    coalesce_eligible,
    nic_path_links,
    register_stream,
    unregister_stream,
)
from repro.net.config import NetworkConfig
from repro.net.errors import NodeFailedError, TransferError, _check_alive
from repro.net.flowsched import (
    DEFAULT_FLOW,
    Flow,
    path_latency,
    path_transmission_time,
)
from repro.net.flowsched import transfer_block as flow_transfer_block
from repro.net.node import Node

__all__ = [
    "TransferError",
    "NodeFailedError",
    "transfer_block",
    "transfer_bytes",
    "local_copy",
    "local_copy_block",
    "control_rpc",
]


def transfer_block(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    nbytes: int,
    flow: Optional[Flow] = None,
) -> Generator:
    """Move a single block from ``src`` to ``dst``.

    Returns the generator to drive (``yield from``); it returns (via
    StopIteration) the simulated time at which the block is fully available
    at the destination.  The flow-scheduled generator is handed back as is
    rather than delegated to, which saves a generator frame per block.
    """
    if config.flow_scheduling:
        return flow_transfer_block(config, src, dst, nbytes, flow)
    return _transfer_block_sequential(config, src, dst, nbytes)


def _transfer_block_sequential(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    nbytes: int,
) -> Generator:
    """Legacy acquisition order: hold the uplink, then queue on the downlink.

    Kept as the ablation behind ``NetworkConfig.flow_scheduling = False``:
    this is the path that parks a sender's uplink idle-but-held behind a
    busy receiver (head-of-line blocking).  On a hierarchical fabric the
    shared tier links on the path are acquired the same sequential way
    (after the NIC slots, in path order), so the ablation extends the
    hold-and-wait discipline to the fabric graph; the acquisition order is
    identical for every transfer, which keeps it deadlock-free.
    """
    sim = src.sim
    _check_alive(src, dst)
    fabric = src.cluster.fabric if src.cluster is not None else None
    path = fabric.path_links(src.node_id, dst.node_id) if fabric is not None else ()
    up_req = src.uplink.request()
    try:
        yield up_req
        _check_alive(src, dst)
        down_req = dst.downlink.request()
        try:
            yield down_req
            _check_alive(src, dst)
            tier_reqs = []
            try:
                for link in path:
                    req = link.resource.request()
                    tier_reqs.append((link, req))
                    yield req
                    _check_alive(src, dst)
                yield sim.timeout(path_transmission_time(config, src, dst, nbytes))
                _check_alive(src, dst)
            finally:
                for link, req in tier_reqs:
                    link.resource.release(req)
        finally:
            dst.downlink.release(down_req)
    finally:
        src.uplink.release(up_req)
    yield sim.timeout(path_latency(config, src, dst))
    _check_alive(dst)
    return sim.now


def transfer_bytes(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    nbytes: int,
    flow: Optional[Flow] = None,
) -> Generator:
    """Move ``nbytes`` from ``src`` to ``dst`` as a sequence of blocks.

    This is the non-pipelined building block: the caller observes completion
    only once every block has arrived.  Pipelined consumers drive
    :func:`transfer_block` themselves so they can observe per-block progress.
    Zero-byte moves complete immediately (see the module docstring).
    """
    sim = src.sim
    if nbytes <= 0:
        _check_alive(src, dst)
        return sim.now
    total_blocks = config.num_blocks(nbytes)
    links = nic_path_links(src, dst)
    register_stream(links)
    try:
        index = 0
        while index < total_blocks:
            # Coalesced fast path: the rest of the object in one timeline
            # event when this stream has the whole path to itself (see
            # net/coalesce for the exactness argument); any disturbance
            # re-splits back to per-block.
            if config.flow_scheduling and total_blocks - index >= 2:
                if coalesce_eligible(links, src, dst):
                    sizes = [
                        config.block_bytes(nbytes, i) for i in range(index, total_blocks)
                    ]
                    run = CoalescedRun(
                        sim,
                        src,
                        dst,
                        flow or DEFAULT_FLOW,
                        sizes,
                        [path_transmission_time(config, src, dst, nb) for nb in sizes],
                        path_latency(config, src, dst),
                        links,
                    )
                    index += yield from run.run()
                    continue
            yield from transfer_block(
                config, src, dst, config.block_bytes(nbytes, index), flow
            )
            index += 1
    finally:
        unregister_stream(links)
    return sim.now


def local_copy_block(config: NetworkConfig, node: Node, nbytes: int) -> Generator:
    """Copy one block between a worker and the local object store."""
    sim = node.sim
    _check_alive(node)
    req = node.memcpy_channel.request()
    try:
        yield req
        _check_alive(node)
        yield sim.timeout(config.memcpy_time(nbytes))
        _check_alive(node)
    finally:
        node.memcpy_channel.release(req)
    return sim.now


def local_copy(config: NetworkConfig, node: Node, nbytes: int) -> Generator:
    """Copy ``nbytes`` between a worker and the local store, block by block.

    Zero-byte copies complete immediately — the same contract as
    :func:`transfer_bytes`.
    """
    sim = node.sim
    if nbytes <= 0:
        _check_alive(node)
        return sim.now
    total_blocks = config.num_blocks(nbytes)
    links = [(node.memcpy_channel, None)]
    register_stream(links)
    try:
        index = 0
        while index < total_blocks:
            if total_blocks - index >= 2 and coalesce_eligible(links, node, node):
                run = build_copy_run(config, node, nbytes, index, links)
                index += yield from run.run()
                continue
            yield from local_copy_block(config, node, config.block_bytes(nbytes, index))
            index += 1
    finally:
        unregister_stream(links)
    return sim.now


def control_rpc(config: NetworkConfig, src: Node, dst: Node) -> Generator:
    """A small control-plane round trip (directory query, notification).

    Control messages ride the latency path only (they never contend for the
    bulk link slots), which is exactly the CONTROL > data ordering of the
    flow classes; the round trip is recorded in the sender's flow accounting
    so utilization reports see the control plane.
    """
    sim = src.sim
    _check_alive(src, dst)
    if src.node_id == dst.node_id:
        # Local shard access still pays a (smaller) IPC cost.
        yield sim.timeout(config.rpc_latency / 4.0)
    else:
        src.uplink_sched.record_control()
        yield sim.timeout(config.rpc_latency)
    _check_alive(src, dst)
    return sim.now
