"""Block-granularity data movement between nodes and inside nodes.

The transfer primitives return generators meant to be driven by the
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

One stream
----------
Every multi-block move runs one loop, :func:`stream_blocks`, which moves two
or more eligible blocks as one coalesced run (:mod:`repro.net.coalesce`)
and anything else block by block.  It has three shapes: a whole object
(:func:`transfer_bytes`, :func:`local_copy`); a stream into a store entry
that marks each block as it lands (the Put copy-in); and a stream from a
source entry that also gates each block on the source holding it (the
broadcast pull and the reduce partial stream).  Each caller registers the
stream's links around it (:func:`~repro.net.coalesce.register_stream`).

Zero-byte moves — remote or local — complete immediately at the current
simulated time: no link slot, no serialization, no propagation latency, the
same contract for :func:`transfer_bytes` and :func:`local_copy`.  A stream
into an entry always moves the entry's blocks, at least one.

Failures
--------
If either endpoint fails, in-flight and future blocks of the transfer raise
:class:`TransferError`.  No per-block wait registers a failure listener: a
block waiting for admission waits on its reservation, which the dying node
withdraws from every queue and fails
(:func:`~repro.net.flowsched.fail_queued`).  A stream gate on a block its
source already holds takes no race either: it continues at once when
nothing can run before its wake (:meth:`~repro.sim.Simulator.settled`),
and otherwise after the two queue hops a race would take, so same-instant
ties break as they did; either way it then re-checks its peers.  Only a
gate on a block the source does not hold yet races the source against its
peers' failures (:class:`~repro.net.errors.FailureRace`).  The failure-*detection* delay
is modelled where the paper's protocols pay it: in the retry loops of the
layers above, which sleep ``failure_detection_delay`` before re-resolving a
source — exactly like a broken TCP connection being noticed by its peer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.net.coalesce import (
    build_run,
    coalesce_eligible,
    input_coverage,
    nic_path_links,
    register_stream,
    unregister_stream,
)
from repro.net.config import NetworkConfig
from repro.net.errors import FailureRace, NodeFailedError, TransferError, _check_alive, relay
from repro.net.flowsched import Flow, transfer_block
from repro.net.node import Node
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.object_store import StoredObject

__all__ = [
    "TransferError",
    "NodeFailedError",
    "transfer_block",
    "transfer_bytes",
    "local_copy",
    "local_copy_block",
    "stream_blocks",
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
    :func:`stream_blocks` themselves, with the entry they fill.  Zero-byte
    moves complete immediately (see the module docstring).
    """
    return _stream_object(config, src, dst, nic_path_links(src, dst), nbytes, flow)


def local_copy_block(config: NetworkConfig, node: Node, nbytes: int) -> Generator:
    """Copy one block between a worker and the local object store."""
    sim = node.sim
    _check_alive(node)
    req = node.memcpy_channel.request()
    try:
        if req._ok is None or not sim.settled():
            # Queued, or granted at submission with something that could
            # run before the grant's wake (see Simulator.settled).
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
    return _stream_object(config, node, node, [(node.memcpy_channel, None)], nbytes, None)


def _stream_object(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    links: list,
    nbytes: int,
    flow: Optional[Flow],
) -> Generator:
    """One whole-object stream with no entry: register, stream, unregister."""
    if nbytes <= 0:
        _check_alive(src, dst)
        return src.sim.now
    register_stream(links)
    try:
        yield from stream_blocks(config, src, dst, links, nbytes, flow)
    finally:
        unregister_stream(links)
    return src.sim.now


def stream_blocks(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    links: list,
    nbytes: int,
    flow: Optional[Flow],
    entry: Optional["StoredObject"] = None,
    source: Optional["StoredObject"] = None,
    watch: Sequence[Node] = (),
    first_run: int = 0,
) -> Generator:
    """Move the blocks of one ``nbytes`` object from ``src`` to ``dst``.

    The one block loop of the data path.  ``links`` is the stream's claim
    set, which the caller has registered (:func:`register_stream`).  While
    two or more blocks from ``first_run`` on are eligible the rest moves as
    one :class:`~repro.net.coalesce.CoalescedRun`; otherwise one block
    moves at a time, by :func:`local_copy_block` when ``src is dst`` and by
    :func:`transfer_block` when they differ.

    With an ``entry`` the stream resumes at its ``blocks_ready`` and marks
    every block that lands; it always runs the entry's ``num_blocks`` (at
    least one).  With a ``source`` entry block ``k`` moves only once the
    source holds it: the stream waits on ``source.wait_for_blocks(k + 1)``,
    raced against the failure of the ``watch`` nodes, and raises
    :class:`NodeFailedError` if one of them died.  A block the source
    already holds needs no race: the stream continues at once when nothing
    can run before its wake (:meth:`~repro.sim.Simulator.settled`), and
    otherwise takes the race's two queue hops with no listener; either
    way it then checks the ``watch`` nodes.
    """
    if entry is None:
        total, index = config.num_blocks(nbytes), 0
    else:
        total, index = entry.num_blocks, entry.blocks_ready
    while index < total:
        # Coalesced fast path: the rest of the object — or, from a source,
        # every block it holds or will produce on a known schedule (the
        # relay cascade) — in one timeline event, when this stream has its
        # links to itself (see net/coalesce for the exactness argument);
        # any disturbance re-splits it back to per-block.
        end = total if source is None else input_coverage(source, total)
        if (
            end - index >= 2
            and index >= first_run
            and (entry is None or not entry._no_coalesce)
            and coalesce_eligible(links, src, dst)
        ):
            run = build_run(config, src, dst, flow, links, nbytes, index, end, entry, source)
            moved = yield from run.run()
        else:
            if source is not None:
                if source._inflight is not None and source.blocks_ready <= index:
                    # About to park on the source's arithmetic schedule
                    # outside a run of our own (contended links, or a tail
                    # too short to coalesce).  Our resume order against
                    # competing flows matters, and links can become
                    # contended while parked, so the source's marks are
                    # delivered per-block from here on.
                    source.decoalesce()
                if source.blocks_ready > index:
                    # Held already: no failure can change this wake, so
                    # skip the race.  Continue at once if nothing can run
                    # before the wake; otherwise keep the race's two queue
                    # hops (the gate, then the race), which same-instant
                    # ties depend on.
                    if not src.sim.settled():
                        held = Event(src.sim)
                        relay(held)
                        yield held
                else:
                    race = FailureRace(source.wait_for_blocks(index + 1), watch)
                    try:
                        yield race
                    finally:
                        race.cancel()
                _check_alive(*watch)
            block = config.block_bytes(nbytes, index)
            if src is dst:
                yield from local_copy_block(config, src, block)
            else:
                yield from transfer_block(config, src, dst, block, flow)
            if entry is not None:
                entry.mark_block_ready(index)
            moved = 1
        index = index + moved if entry is None else entry.blocks_ready
