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
(a flow id the flight recorder tags each block with, and a priority class
ordering control > reduce-partial > bulk in the admission queues).

Reservations are the only way a block crosses a link:
:func:`transfer_block` is :func:`repro.net.flowsched.transfer_block`,
re-exported here so protocol code imports every data-movement primitive
from one module.

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
    transfer_block,
)
from repro.net.node import Node

__all__ = [
    "TransferError",
    "NodeFailedError",
    "transfer_block",
    "transfer_bytes",
    "local_copy",
    "local_copy_block",
]


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
            if total_blocks - index >= 2 and coalesce_eligible(links, src, dst):
                sizes = [config.block_bytes(nbytes, i) for i in range(index, total_blocks)]
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
        req.release()
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
