"""Gloo-style collectives: ring / ring-chunked / halving–doubling allreduce.

Gloo (the collective library behind PyTorch's CPU backend) is the paper's
strongest allreduce baseline: ring-chunked allreduce is more bandwidth
efficient than a reduce-plus-broadcast composition, which is why Figure 13
shows Hoplite 12–24% behind Gloo on synchronous data-parallel training.
Gloo's broadcast, on the other hand, is not optimized (Figure 7).

Like all static collectives, every operation here waits for the full group
before moving data (Figure 8).
"""

from __future__ import annotations

from typing import Generator

from repro.collectives.base import CollectiveGroup, StaticOperation
from repro.collectives.mpi import (
    HalvingDoublingAllreduce,
    PairwiseAlltoall,
    RingAllgather,
)
from repro.net.errors import TransferError
from repro.net.node import Node
from repro.net.transport import transfer_bytes
from repro.sim import Event


class RingAllreduce(StaticOperation):
    """Ring allreduce: reduce-scatter around the ring, then allgather.

    With ``chunked=True`` each per-step chunk is further segmented so that a
    rank can start forwarding a chunk before it has fully received it — this
    is Gloo's "ring chunked" variant, the fastest algorithm for large
    payloads in the paper's measurements.
    """

    requires_full_group = True

    def __init__(self, group: CollectiveGroup, nbytes: int, chunked: bool = True):
        super().__init__(group, nbytes)
        self.chunked = chunked
        size = group.size
        steps = max(1, 2 * (size - 1))
        #: (rank, step) -> event set when the step's chunk has arrived at rank.
        self._chunk_arrived: dict[tuple[int, int], Event] = {
            (rank, step): Event(self.sim) for rank in range(size) for step in range(steps)
        }

    def _chunk_bytes(self) -> int:
        return max(1, int(self.nbytes / self.group.size))

    def _participate(self, rank: int, node: Node) -> Generator:
        size = self.group.size
        if size == 1:
            self.mark_data_ready(rank)
            return
        next_rank = (rank + 1) % size
        next_node = self.group.node_of_rank(next_rank)
        chunk = self._chunk_bytes()
        total_steps = 2 * (size - 1)
        reduce_steps = size - 1
        for step in range(total_steps):
            if step > 0:
                # Cannot forward the chunk for this step before receiving the
                # previous step's chunk from the predecessor.
                yield self._chunk_arrived[(rank, step - 1)]
                if step <= reduce_steps:
                    yield self.sim.timeout(self.config.reduce_compute_time(chunk))
            if not self.chunked:
                yield from transfer_bytes(
                    self.config, node, next_node, chunk, self.flow(rank, next_rank)
                )
            elif chunk > 0:
                yield from self.send_segmented(rank, next_rank, nbytes=chunk)
            arrived = self._chunk_arrived[(next_rank, step)]
            if not arrived.triggered:
                arrived.succeed(self.sim.now)
        # Wait for the last chunk addressed to us.
        yield self._chunk_arrived[(rank, total_steps - 1)]
        self.mark_data_ready(rank)


class FlatBroadcast(StaticOperation):
    """Gloo's unoptimized broadcast: the root sends to every rank directly."""

    requires_full_group = True

    def __init__(self, group: CollectiveGroup, nbytes: int, root: int = 0):
        super().__init__(group, nbytes)
        self.root = root
        self._received: dict[int, Event] = {
            rank: Event(self.sim) for rank in range(group.size)
        }

    def _participate(self, rank: int, node: Node) -> Generator:
        if rank == self.root:
            root_node = node
            for other in range(self.group.size):
                if other == self.root:
                    continue
                self.sim.process(
                    self._send_to(root_node, other), name=f"gloo-bcast-{other}"
                )
            self.mark_data_ready(rank)
            return
        yield self._received[rank]
        self.mark_data_ready(rank)

    def _send_to(self, root_node: Node, dst_rank: int) -> Generator:
        try:
            yield from transfer_bytes(
                self.config,
                root_node,
                self.group.node_of_rank(dst_rank),
                self.nbytes,
                self.flow(self.root, dst_rank),
            )
        except TransferError:
            # Nothing waits on a posted send: the node failure that broke it
            # aborts the whole job, which the launcher restarts.
            return
        event = self._received[dst_rank]
        if not event.triggered:
            event.succeed(self.sim.now)


class GlooCollectives:
    """Factory for Gloo-style collective operations on a cluster."""

    def __init__(self, cluster):
        self.group = CollectiveGroup(cluster)
        self.cluster = cluster
        self.config = cluster.config
        self.sim = cluster.sim

    def broadcast(self, nbytes: int, root: int = 0) -> FlatBroadcast:
        return FlatBroadcast(self.group, nbytes, root=root)

    def allreduce_ring(self, nbytes: int) -> RingAllreduce:
        return RingAllreduce(self.group, nbytes, chunked=False)

    def allreduce_ring_chunked(self, nbytes: int) -> RingAllreduce:
        return RingAllreduce(self.group, nbytes, chunked=True)

    def allreduce_halving_doubling(self, nbytes: int) -> HalvingDoublingAllreduce:
        return HalvingDoublingAllreduce(self.group, nbytes)

    def allgather(self, nbytes: int) -> RingAllgather:
        """Gloo implements the same ring allgather as OpenMPI's tuned module."""
        return RingAllgather(self.group, nbytes)

    def alltoall(self, nbytes: int) -> PairwiseAlltoall:
        """Gloo's alltoall is a pairwise exchange as well."""
        return PairwiseAlltoall(self.group, nbytes)
